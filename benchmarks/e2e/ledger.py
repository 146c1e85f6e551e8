"""The wall-clock ledger: where one traced repetition spends host time.

A :class:`Ledger` is attached like any monitor/tracer
(``runtime.observe(ledger)`` / ``kernel.attach_tracer(ledger)``) and
reads ``time.perf_counter()`` in every hook.  Each interval between two
consecutive hook callbacks is charged to exactly one *bucket*, so the
buckets sum to the traced wall time by construction:

* inside a simulated thread, the layer of the innermost open span (or
  bracketed function) on that thread; with nothing open, the thread's
  base layer — the ``repro`` sub-package that defined the function it
  runs, else ``app`` (the benchmark's own bodies);
* in kernel context, the layer that scheduled the fired timer;
* ``sim.switch`` from ``on_switch`` until the thread resumes, and from a
  thread entering the backend's public ``block()`` (or exiting) until
  the next timer fires — the kernel's heap pop after a thread yields
  cannot be told apart from outside and is part of this bucket;
* ``sim.kernel`` between a wake-up timer firing and its ``on_switch``,
  and around the run loop's entry and exit;
* ``unmapped`` for spans or timers no rule assigns to a layer.

Layers that emit no spans are bracketed by wrapping their public entry
points (:meth:`Ledger.bracket`).  A function or hook a later PR removes
simply yields no bucket — the metric reads ``null``, never an error.

Wall-clock reads live here, in ``benchmarks/``, on purpose: repro-lint
bans them inside the simulated tree.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Any, Callable

_SPAN_CATS = {
    "net": "net",
    "arbitration": "padicotm.arbitration",
    "abstraction": "padicotm.abstraction",
    "personality": "padicotm.personality",
    "gridccm": "core",
}
_SPAN_PREFIXES = {"corba": "corba", "mpi": "mpi", "giop": "corba",
                  "gridccm": "core", "net": "net"}
_PACKAGE_LAYERS = {"sim": "sim.kernel", "net": "net", "corba": "corba",
                   "mpi": "mpi", "core": "core", "ccm": "core",
                   "padicotm": "padicotm.abstraction"}


def layer_of_span(name: str, cat: str) -> str:
    """The ledger bucket of an obs span (shared by the wall ledger and
    the virtual-clock breakdown, so the two tables have the same rows)."""
    layer = _SPAN_CATS.get(cat)
    if layer is None:
        layer = _SPAN_PREFIXES.get(name.split(".", 1)[0], "unmapped")
    return layer


def layer_of_function(fn: Callable) -> str:
    """Base layer of a simulated thread: where its function is defined."""
    parts = (getattr(fn, "__module__", "") or "").split(".")
    if parts[0] != "repro":
        return "app"
    return _PACKAGE_LAYERS.get(parts[1] if len(parts) > 1 else "",
                               "unmapped")


def virtual_self_times(recorder: Any) -> dict[str, float]:
    """Per-layer *virtual* self seconds from a TraceRecorder: a span's
    duration minus what its child spans cover, summed by layer.  Threads
    overlap on the virtual clock, so these are thread-seconds."""
    spans = recorder.closed_spans()
    child_time = [0.0] * len(recorder.spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out: dict[str, float] = {}
    for span in spans:
        layer = layer_of_span(span.name, span.cat)
        out[layer] = out.get(layer, 0.0) \
            + max(0.0, span.duration - child_time[span.index])
    return out


class Ledger:
    """Monitor + kernel tracer that keeps the wall-clock ledger."""

    def __init__(self) -> None:
        self.buckets: dict[str, float] = {}
        #: calls per bracketed (owner, name)
        self.calls: dict[str, int] = {}
        self._clock = time.perf_counter
        self._t = 0.0
        self._bucket = "app"
        self._running = False
        #: current simulated thread (None in kernel context)
        self._cur: Any = None
        self._stacks: dict[Any, list[str]] = {None: []}
        self._base: dict[Any, str] = {None: "sim.kernel"}
        self._timer_layer: dict[Any, str] = {}
        self._fired = False
        self._restores: list[Callable[[], None]] = []
        self.started_at = 0.0
        self.wall = 0.0
        #: False once a kernel's backend offered no ``block()`` to wrap
        self.sees_switches = True

    # -- attachment ---------------------------------------------------------
    def on_attach(self, runtime: Any) -> None:
        self.bind(runtime.kernel)
        runtime.kernel.attach_tracer(self)

    def on_detach(self, runtime: Any) -> None:
        runtime.kernel.detach_tracer(self)

    def bind(self, kernel: Any) -> "Ledger":
        """Hook thread entry and the backend's ``block()`` of ``kernel``."""
        switcher = getattr(kernel, "backend", None)
        block = getattr(switcher, "block", None)
        if block is None:
            self.sees_switches = False
        else:
            self._patch(switcher, "block", self._wrap_block(block))
        self._patch(kernel, "spawn", self._wrap_spawn(kernel.spawn))
        return self

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        had = name in getattr(owner, "__dict__", {})
        old = getattr(owner, name)
        setattr(owner, name, value)
        self._restores.append(
            (lambda: setattr(owner, name, old)) if had
            else (lambda: delattr(owner, name)))

    def bracket(self, owner: Any, name: str, layer: str,
                count_as: str | None = None) -> bool:
        """Charge calls of ``owner.name`` to ``layer``; False if absent."""
        fn = getattr(owner, name, None)
        if fn is None:
            return False
        enter, leave, calls = self._enter, self._leave, self.calls
        key = count_as or f"{getattr(owner, '__name__', owner)}.{name}"
        calls.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        self._patch(owner, name, wrapper)
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._restores:
            self._restores.pop()()

    # -- the timed window ---------------------------------------------------
    def start(self) -> None:
        self._bucket = "sim.kernel"
        self._cur = None
        self._running = True
        self._t = self.started_at = self._clock()

    def stop(self) -> None:
        self._tick("app")
        self._running = False
        self.wall = self._t - self.started_at

    def _tick(self, bucket: str) -> None:
        """Close the open interval into the current bucket, open ``bucket``."""
        if self._running:
            now = self._clock()
            buckets = self.buckets
            cur = self._bucket
            buckets[cur] = buckets.get(cur, 0.0) + now - self._t
            self._t = now
        self._bucket = bucket

    def _enter(self, layer: str) -> None:
        self._stacks.setdefault(self._cur, []).append(layer)
        self._tick(layer)

    def _leave(self) -> None:
        stack = self._stacks.get(self._cur)
        if stack:
            stack.pop()
        self._tick(stack[-1] if stack
                   else self._base.get(self._cur, "app"))

    def _resume(self, proc: Any) -> None:
        self._cur = proc
        stack = self._stacks.get(proc)
        self._tick(stack[-1] if stack else self._base.get(proc, "app"))

    # -- thread entry / yield (wrappers around public callables) -------------
    def _wrap_spawn(self, spawn: Callable) -> Callable:
        ledger = self

        def traced_spawn(fn: Callable, *args: Any, **kwargs: Any) -> Any:
            if inspect.isgeneratorfunction(fn):
                return spawn(fn, *args, **kwargs)
            base = layer_of_function(fn)

            @functools.wraps(fn)
            def body(proc: Any, *a: Any) -> Any:
                ledger._base[proc] = base
                ledger._resume(proc)
                return fn(proc, *a)

            return spawn(body, *args, **kwargs)

        return traced_spawn

    def _wrap_block(self, block: Callable) -> Callable:
        ledger = self

        def traced_block(proc: Any) -> Any:
            ledger._tick("sim.switch")
            try:
                return block(proc)
            finally:
                ledger._resume(proc)

        return traced_block

    # -- kernel tracer hooks ------------------------------------------------
    def on_schedule(self, timer: Any) -> None:
        self._fired = False
        self._timer_layer[timer] = self._bucket

    def on_fire(self, timer: Any) -> None:
        layer = self._timer_layer.pop(timer, "unmapped")
        self._cur = None
        self._base[None] = layer
        self._tick(layer)
        self._fired = True

    def on_switch(self, proc: Any) -> None:
        if self._fired:
            # the fired timer was a wake-up: its dispatch is the kernel's
            self._bucket = "sim.kernel"
            self._fired = False
        self._tick("sim.switch")

    def on_exit(self, proc: Any) -> None:
        self._stacks.pop(proc, None)
        self._base.pop(proc, None)
        self._tick("sim.switch")

    # -- runtime monitor hooks ----------------------------------------------
    def on_span_start(self, name: str, cat: str = "", **attrs: Any) -> None:
        self._fired = False
        self.calls[name] = self.calls.get(name, 0) + 1
        self._enter(layer_of_span(name, cat))

    def on_span_end(self, name: str, **attrs: Any) -> None:
        self._leave()

    # the kernel and the flow network call their full hook surface on a
    # lone observer, so the hooks the ledger has no use for exist
    def _ignore(self, *args: Any, **kwargs: Any) -> None:
        pass

    on_join = hb_release = hb_acquire = _ignore
    on_flow_start = on_flow_end = on_counter = on_gauge = _ignore
    on_driver_io = _ignore
