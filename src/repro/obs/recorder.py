"""TraceRecorder: the attachable observability sink.

The recorder is a **runtime monitor** (``runtime.observe(recorder)``):
every instrumented layer calls ``monitor.on_span_start`` /
``on_span_end`` / ``on_counter`` / ``on_flow_start`` / ... when a
monitor is attached, and pays nothing when none is.  It is *not* a
kernel tracer: the two scheduler counts it reports,
:attr:`~TraceRecorder.events_fired` and
:attr:`~TraceRecorder.context_switches`, are differences of the
kernel's own ``events_processed`` / ``context_switches`` since
:meth:`~TraceRecorder.bind`, so with only a recorder attached
``kernel.tracer`` stays None and the kernel runs the path it runs
untraced (no hook calls).

Attachment is handled by ``on_attach(runtime)`` / ``on_detach(runtime)``
— called by :meth:`PadicoRuntime.observe` / ``unobserve`` — which bind
the kernel and freeze the two counts.  A recorder can also be used
standalone against a bare kernel via ``bind(kernel)``.

Every hook is pure bookkeeping: no sleeps, no scheduling, no wall
clock.  Attaching a recorder therefore never perturbs the simulated
schedule — the run's result and final ``kernel.now`` are bit-for-bit
identical with and without it (enforced by the zero-perturbation
tests).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.spans import CounterSample, FlowRecord, Span


class TraceRecorder:
    """Collects spans, counters, gauges, flows and driver I/O totals."""

    def __init__(self) -> None:
        self._kernel: Any = None
        #: (events fired, context switches) up to the last detach
        self._counted = (0, 0)
        #: the kernel's two counts at ``bind`` less ``_counted``; None
        #: while detached
        self._base: tuple[int, int] | None = None
        self.spans: list[Span] = []
        #: per-simulated-thread stacks of open span indices, keyed by
        #: id(SimProcess).  Lookup-only — never iterated for output, so
        #: id reuse or hash order cannot leak into the trace.
        self._stacks: dict[int, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.counter_series: list[CounterSample] = []
        self.gauges: dict[str, float] = {}
        self.gauge_series: list[CounterSample] = []
        self.flows: dict[int, FlowRecord] = {}
        self._flow_order: list[int] = []
        #: (driver, direction) -> [calls, bytes]
        self.driver_io: dict[tuple[str, str], list[float]] = {}
        self.fabric_bytes: dict[str, float] = {}

    # -- attachment ---------------------------------------------------------
    def bind(self, kernel: Any) -> "TraceRecorder":
        """Bind the virtual clock and start counting the kernel's fired
        events and context switches from here."""
        fired, switches = self._counts()
        self._kernel = kernel
        self._base = (kernel.events_processed - fired,
                      kernel.context_switches - switches)
        return self

    def on_attach(self, runtime: Any) -> None:
        """Runtime attach hook."""
        self.bind(runtime.kernel)

    def on_detach(self, runtime: Any) -> None:
        """Freeze the two counts; the clock stays readable."""
        self._counted = self._counts()
        self._base = None

    def _counts(self) -> tuple[int, int]:
        base = self._base
        if base is None:
            return self._counted
        return (self._kernel.events_processed - base[0],
                self._kernel.context_switches - base[1])

    @property
    def events_fired(self) -> int:
        """Kernel events fired while bound (frozen at detach)."""
        return self._counts()[0]

    @property
    def context_switches(self) -> int:
        """Run-token hand-overs to a process while bound (frozen at
        detach)."""
        return self._counts()[1]

    # -- clock / identity ---------------------------------------------------
    @property
    def now(self) -> float:
        return 0.0 if self._kernel is None else self._kernel.now

    def _where(self, owner: Any = None) -> tuple[Any, str, str]:
        """(process, pid label, tid label) for span stamping: ``owner``
        when a kernel chain emits on its behalf, else the current
        process."""
        proc = owner
        if proc is None and self._kernel is not None:
            proc = self._kernel.current
        if proc is None:
            return None, "sim", "main"
        padico = getattr(proc, "padico_process", None)
        pid = getattr(padico, "name", None) or "sim"
        return proc, pid, getattr(proc, "name", "?") or "?"

    # -- spans --------------------------------------------------------------
    def on_span_start(self, name: str, cat: str = "", owner: Any = None,
                      **attrs: Any) -> Span:
        proc, pid, tid = self._where(owner)
        stack = self._stacks.setdefault(id(proc), [])
        parent = stack[-1] if stack else None
        span = Span(index=len(self.spans), name=name, cat=cat,
                    pid=pid, tid=tid, start=self.now,
                    parent=parent, depth=len(stack), attrs=dict(attrs))
        self.spans.append(span)
        stack.append(span.index)
        return span

    def on_span_end(self, name: str, owner: Any = None,
                    at: float | None = None, **attrs: Any) -> None:
        """Close ``name`` at ``at`` — the instant it ended, when a
        process reports it after a later charge of the same block — or
        now."""
        proc, _pid, _tid = self._where(owner)
        stack = self._stacks.get(id(proc))
        if not stack:
            return
        end = self.now if at is None else at
        # with try/finally discipline the top matches; tolerate skipped
        # ends by closing intermediates at the same instant
        while stack:
            span = self.spans[stack.pop()]
            span.end = end
            if span.name == name:
                span.attrs.update(attrs)
                return

    @contextmanager
    def span(self, name: str, cat: str = "app",
             **attrs: Any) -> Iterator[Span]:
        """``with recorder.span("phase"):`` — a manual user-level span."""
        opened = self.on_span_start(name, cat=cat, **attrs)
        try:
            yield opened
        finally:
            self.on_span_end(name)

    # -- counters / gauges --------------------------------------------------
    def counter(self, name: str, delta: float = 1.0) -> float:
        """Bump a cumulative counter; returns the new value."""
        value = self.counters.get(name, 0.0) + delta
        self.counters[name] = value
        self.counter_series.append(CounterSample(self.now, name, value))
        return value

    # hook-surface alias so instrumentation sites read uniformly
    on_counter = counter

    def gauge(self, name: str, value: float) -> None:
        """Record the current value of a point-in-time quantity."""
        self.gauges[name] = value
        self.gauge_series.append(CounterSample(self.now, name, value))

    on_gauge = gauge

    # -- network flows ------------------------------------------------------
    def on_flow_start(self, fid: int, src: str, dst: str, nbytes: float,
                      fabric: str) -> None:
        self.flows[fid] = FlowRecord(fid, src, dst, nbytes, fabric,
                                     start=self.now)
        self._flow_order.append(fid)

    def on_flow_end(self, fid: int, ok: bool = True,
                    progress: float = 1.0) -> None:
        rec = self.flows.get(fid)
        if rec is None:
            return
        self.flows[fid] = FlowRecord(rec.fid, rec.src, rec.dst, rec.nbytes,
                                     rec.fabric, rec.start,
                                     end=self.now, ok=ok, progress=progress)
        if ok:
            total = self.fabric_bytes.get(rec.fabric, 0.0) + rec.nbytes
            self.fabric_bytes[rec.fabric] = total

    def flow_records(self) -> list[FlowRecord]:
        return [self.flows[fid] for fid in self._flow_order]

    # -- driver I/O ---------------------------------------------------------
    def on_driver_io(self, driver: str, direction: str,
                     nbytes: float) -> None:
        cell = self.driver_io.setdefault((driver, direction), [0.0, 0.0])
        cell[0] += 1
        cell[1] += nbytes

    # -- inspection ---------------------------------------------------------
    def closed_spans(self) -> list[Span]:
        return [s for s in self.spans if s.closed]

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.index]

    def render_tree(self) -> str:
        """Indented text rendering of the span forest (tests, REPL)."""
        lines: list[str] = []

        def walk(span: Span) -> None:
            lines.append(span.render())
            for child in self.children(span):
                walk(child)

        for root in self.roots():
            walk(root)
        return "\n".join(lines)
