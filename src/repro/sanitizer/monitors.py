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
"""

from __future__ import annotations

from typing import Any

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

        Cooperative subsystems legitimately hold claims for the process
        lifetime, so this is a report, not an error: a *direct*
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
