"""Runtime typestate monitors for the abstraction layer.

The VLink/Circuit lifecycle is a small DFA (paper §4.3.2: establish,
use, close); middleware that violates it — sending on an endpoint that
was never connected, reusing a closed circuit, binding the same port
twice — corrupts the arbitration layer's bookkeeping in ways that only
surface much later.  :class:`TypestateMonitor` enforces the DFA at the
moment of violation.

The monitor is attached to a :class:`~repro.padicotm.runtime.
PadicoRuntime` (``runtime.observe(TypestateMonitor())`` or via
:class:`~repro.sanitizer.api.Sanitizer`); the abstraction and
arbitration layers notify it through duck-typed hooks guarded by
``is not None`` tests, so a runtime without a monitor pays one attribute
load per operation.  A violation raised inside a daemon process (ORB
and GIOP threads, ``mpi-isend`` helpers) dies with that process, so
every violation is also recorded and :meth:`TypestateMonitor.check`
raises them again after the run.

:class:`PublishWatch` checks the zero-copy contract the same way: a
buffer handed to the wire by reference must keep its bytes until every
receiver has read them (see "Publish windows" in docs/SANITIZER.md).
"""

from __future__ import annotations

import os
import sys
import weakref
import zlib
from typing import Any, Iterator, NamedTuple

import numpy as np

#: VLink endpoint / Circuit lifecycle states
RAW = "raw"              # constructed, not yet part of a connected pair
CONNECTED = "connected"  # established; send/recv legal
CLOSED = "closed"        # terminal

#: events accepted in each VLink endpoint state
_VLINK_DFA: dict[str, dict[str, str]] = {
    RAW: {"connect": CONNECTED, "close": CLOSED},
    CONNECTED: {"send": CONNECTED, "recv": CONNECTED, "poll": CONNECTED,
                "close": CLOSED},
    CLOSED: {"close": CLOSED},  # close is idempotent; everything else dies
}

_CIRCUIT_DFA: dict[str, dict[str, str]] = {
    CONNECTED: {"send": CONNECTED, "recv": CONNECTED, "poll": CONNECTED,
                "probe": CONNECTED, "close": CLOSED},
    CLOSED: {"close": CLOSED},
}


class TypestateError(RuntimeError):
    """A protocol-lifecycle violation on the abstraction layer."""


class TypestateMonitor:
    """Per-runtime lifecycle DFA enforcement + claim balancing.

    States are keyed by object identity; bound listener ports by
    (process name, port).  NIC claims are counted per (process, owner)
    so :meth:`unreleased_claims` can report drivers opened but never
    closed — the arbitration-layer analogue of a leaked file descriptor.
    """

    def __init__(self) -> None:
        self._states: dict[int, str] = {}       # id(obj) -> state
        self._objs: dict[int, Any] = {}         # keep ids stable/alive
        self._bound: dict[tuple[str, str], Any] = {}
        self._claims: dict[tuple[str, str], int] = {}
        #: every violation raised, for post-run reporting
        self.violations: list[str] = []

    # ------------------------------------------------------------------
    def _step(self, dfa: dict, obj: Any, kind: str, event: str) -> None:
        key = id(obj)
        state = self._states.get(key)
        if state is None:
            # first sight: VLink endpoints announce "create" explicitly;
            # an unannounced object seen mid-protocol is taken at face
            # value (monitor attached to an already-running runtime)
            state = RAW if event == "create" else CONNECTED
            self._states[key] = state
            self._objs[key] = obj
            if event == "create":
                return
        nxt = dfa.get(state, {}).get(event)
        if nxt is None:
            message = (f"{kind} typestate violation: {event!r} on "
                       f"{obj!r} in state {state!r} (legal: "
                       f"{sorted(dfa.get(state, {}))})")
            self.violations.append(message)
            raise TypestateError(message)
        self._states[key] = nxt

    # ------------------------------------------------------------------
    # hooks called by the abstraction layer
    # ------------------------------------------------------------------
    def on_vlink(self, endpoint: Any, event: str) -> None:
        """VLink endpoint lifecycle: create/connect/send/recv/poll/close."""
        self._step(_VLINK_DFA, endpoint, "VLink", event)

    def on_circuit(self, circuit: Any, event: str) -> None:
        """Circuit lifecycle: establish/send/recv/poll/probe/close."""
        if event == "establish":
            self._states[id(circuit)] = CONNECTED
            self._objs[id(circuit)] = circuit
            return
        self._step(_CIRCUIT_DFA, circuit, "Circuit", event)

    def on_bind(self, process: str, port: str, listener: Any) -> None:
        """A VLink listener binding (process, port); double bind dies."""
        key = (process, port)
        if key in self._bound:
            message = (f"VLink typestate violation: double bind of port "
                       f"{port!r} in process {process!r}")
            self.violations.append(message)
            raise TypestateError(message)
        self._bound[key] = listener

    def on_unbind(self, process: str, port: str) -> None:
        self._bound.pop((process, port), None)

    # ------------------------------------------------------------------
    # hooks called by the arbitration layer
    # ------------------------------------------------------------------
    def on_claim(self, process: str, claim: Any) -> None:
        key = (process, claim.owner)
        self._claims[key] = self._claims.get(key, 0) + 1

    def on_release(self, process: str, owner: str, dropped: int) -> None:
        key = (process, owner)
        if self._claims.get(key, 0) < dropped:
            message = (f"arbitration typestate violation: {owner!r} in "
                       f"{process!r} released {dropped} claim(s) but "
                       f"holds {self._claims.get(key, 0)}")
            self.violations.append(message)
            raise TypestateError(message)
        remaining = self._claims.get(key, 0) - dropped
        if remaining:
            self._claims[key] = remaining
        else:
            self._claims.pop(key, None)

    def unreleased_claims(self) -> list[tuple[str, str, int]]:
        """(process, owner, count) for every claim never released.

        PadicoTM's own cooperative driver claims are held for the
        process lifetime, so this is a report, not an error: a *direct*
        (``cooperative=False``) claim still listed after a run is the
        leak to look for.
        """
        return [(process, owner, count)
                for (process, owner), count in sorted(self._claims.items())]

    def check(self) -> None:
        """Raise :class:`TypestateError` naming every recorded violation."""
        if self.violations:
            plural = "s" if len(self.violations) != 1 else ""
            raise TypestateError(
                f"{len(self.violations)} typestate violation{plural} "
                f"recorded:\n" + "\n".join(f"    {v}"
                                           for v in self.violations))

    def states(self) -> dict[Any, str]:
        """Current lifecycle state of every monitored object."""
        return {self._objs[key]: state
                for key, state in self._states.items()}


# ---------------------------------------------------------------------------
# publish windows
# ---------------------------------------------------------------------------

_PKG = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_ROOT = os.path.dirname(os.path.dirname(_PKG))
#: frames between a hook site and the watch (this file, the monitor fan)
_HOOK_FILES = {os.path.abspath(__file__),
               os.path.join(_PKG, "padicotm", "runtime.py")}
#: where every simulated process body is called from
_BODY_FILE = os.path.join(_PKG, "sim", "backends.py")


class WindowViolation(NamedTuple):
    """One consume that read other bytes than were published."""

    nbytes: int
    published: str   # "path:line in <process>: <library call chain>"
    consumed: str

    def __str__(self) -> str:
        return (f"{self.nbytes} referenced bytes changed inside their "
                f"publish window\n      published at {self.published}"
                f"\n      consumed at  {self.consumed}")


class PublishWindowError(RuntimeError):
    """Bytes published by reference changed before a receiver read them."""

    def __init__(self, violations: list[WindowViolation]):
        self.violations = list(violations)
        super().__init__(
            f"{len(self.violations)} publish-window violation(s):\n"
            + "\n".join(f"    {v}" for v in self.violations))


def _segments(obj: Any) -> Iterator[tuple[Any, tuple[int, int]]]:
    """``(segment, (address, nbytes))`` for every contiguous buffer of
    ``obj``: an ndarray, a memoryview, or anything with ``segments``."""
    parts = (obj,) if isinstance(obj, (np.ndarray, memoryview)) \
        else getattr(obj, "segments", ())
    for seg in parts:
        if isinstance(seg, np.ndarray):
            if seg.nbytes and seg.flags.c_contiguous:
                yield seg, (seg.__array_interface__["data"][0], seg.nbytes)
        elif isinstance(seg, memoryview) and seg.nbytes and seg.contiguous:
            addr = np.frombuffer(seg, np.uint8).__array_interface__["data"]
            yield seg, (addr[0], seg.nbytes)


def _where(frame: Any) -> str:
    path = frame.f_code.co_filename
    if path.startswith(_ROOT + os.sep):
        path = os.path.relpath(path, _ROOT)
    return f"{path}:{frame.f_lineno}"


class PublishWatch:
    """Fingerprints every writable segment a layer hands to the wire by
    reference (``on_publish``) and re-checks it wherever a receiver
    reads it (``on_consume``).

    Segments are keyed by memory (address, length), so a receiver's
    view of the sender's array matches however many layers re-wrapped
    it.  An entry lives as long as the object last published under its
    key: a weak reference drops it when that object dies, before its
    memory can be reused.  A mismatch is recorded, never raised at the
    consume — :meth:`check` raises them all after the run.
    """

    def __init__(self, kernel: Any) -> None:
        self.kernel = kernel
        #: (address, nbytes) -> [crc32, publish site, weakref]
        self.windows: dict[tuple[int, int], list] = {}
        self.violations: list[WindowViolation] = []

    def on_publish(self, obj: Any) -> None:
        site = None
        for seg, key in _segments(obj):
            if (seg.readonly if isinstance(seg, memoryview)
                    else not seg.flags.writeable):
                continue  # immutable memory cannot change under a reader
            crc = zlib.crc32(seg)
            entry = self.windows.get(key)
            if entry is not None and entry[0] == crc:
                # the same bytes again (a layer above published them
                # first): keep that site, live as long as the newer object
                entry[2] = self._ref(seg, key)
                continue
            if site is None:
                site = self._site()
            self.windows[key] = [crc, site, self._ref(seg, key)]

    def on_consume(self, obj: Any) -> None:
        for seg, key in _segments(obj):
            entry = self.windows.get(key)
            if entry is not None and zlib.crc32(seg) != entry[0]:
                self.violations.append(
                    WindowViolation(key[1], entry[1], self._site()))

    def on_detach(self, runtime: Any) -> None:
        self.windows.clear()

    def _ref(self, seg: Any, key: tuple[int, int]) -> weakref.ref:
        def gone(ref: weakref.ref) -> None:
            entry = self.windows.get(key)
            if entry is not None and entry[2] is ref:
                del self.windows[key]
        return weakref.ref(seg, gone)

    def _site(self) -> str:
        """The calling code outside ``repro`` (if any), the library call
        chain that reached the hook, and the simulated process."""
        frame = sys._getframe(1)
        while frame.f_code.co_filename in _HOOK_FILES:
            frame = frame.f_back
        chain, user = [], None
        while frame is not None and frame.f_code.co_filename != _BODY_FILE:
            if not frame.f_code.co_filename.startswith(_PKG + os.sep):
                user = frame
                break
            if frame.f_code.co_name != "wrapper":  # decorator shells
                chain.append(frame)
            frame = frame.f_back
        proc = self.kernel.current
        text = (f"{_where(user or chain[0])} in "
                f"{proc.name if proc else '<kernel>'}")
        if chain:
            outer = (f"{chain[-1].f_code.co_qualname} ... "
                     if len(chain) > 1 else "")
            text += (f": {outer}{chain[0].f_code.co_qualname} "
                     f"({_where(chain[0])})")
        return text

    def check(self) -> None:
        """Raise :class:`PublishWindowError` naming every violation."""
        if self.violations:
            raise PublishWindowError(self.violations)
