"""Circuit: the parallel-oriented abstract interface (paper §4.3.2).

A Circuit is a static group of PadicoTM processes with logical ranks and
framed messaging — the abstraction MPI is implemented on.  It holds one
inbox per rank, claims its members' NICs when it is established and
charges every message through the arbitrated driver's one message leg
(:func:`~repro.padicotm.arbitration.drivers.send_leg` /
:func:`~repro.padicotm.arbitration.drivers.recv_leg`).  The driver is
selected automatically:

- all members share a parallel fabric (Myrinet/SCI SAN) → the Madeleine
  driver (**straight** mapping);
- otherwise → the TCP driver over the best distributed fabric
  (**cross-paradigm** mapping: parallel interface on distributed
  hardware);
- all members in one host → loopback copies, still at TCP's
  per-message cost (a known deviation; see DESIGN.md §5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.net.devices import PARALLEL
from repro.padicotm.abstraction.selector import (
    MappingChoice,
    select_group_fabric,
)
from repro.padicotm.arbitration.drivers import (
    TCP,
    driver_for,
    recv_leg,
    send_leg,
)
from repro.sim.kernel import SimProcess
from repro.sim.sync import Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess, PadicoRuntime

__all__ = ["Circuit", "ANY_SOURCE"]

#: Receive from any rank.
ANY_SOURCE = -1


class Circuit:
    """Parallel-oriented group communication abstraction."""

    def __init__(self, runtime: "PadicoRuntime", name: str,
                 members: list["PadicoProcess"], choice: MappingChoice):
        self.runtime = runtime
        self.name = name
        self.members = list(members)
        self.choice = choice
        #: the arbitrated driver carrying this circuit's messages; a
        #: single-host circuit keeps TCP's per-message cost rather than
        #: loopback's (known deviation, DESIGN.md §5)
        self.driver = driver_for(choice.fabric) \
            if choice.fabric is not None else TCP
        self._hosts = [p.host.name for p in members]
        self._ranks = {p.name: i for i, p in enumerate(members)}
        if len(self._ranks) != len(members):
            raise ValueError("duplicate process in group member list")
        self._inbox = [Mailbox(runtime.kernel) for _ in members]
        if choice.fabric is not None:
            for p in members:
                p.arbitration.claim_fabric(choice.fabric.name)
        self.closed = False
        self._subcircuits: list[Circuit] = []

    def _check_open(self, op: str) -> None:
        monitor = self.runtime.monitor
        if monitor is not None:
            monitor.on_circuit(self, op)
        if self.closed:
            raise RuntimeError(
                f"Circuit {self.name!r} is closed ({op} after close)")

    # ------------------------------------------------------------------
    # establishment
    # ------------------------------------------------------------------
    @classmethod
    def establish(cls, runtime: "PadicoRuntime",
                  name: str, members: list["PadicoProcess"],
                  fabric: str | None = None) -> "Circuit":
        """Collectively create a circuit over ``members``.

        ``fabric`` forces a specific network, for a caller that pins the
        wire under test; by default the selector picks the best one.
        """
        hosts = [p.host.name for p in members]
        choice = select_group_fabric(runtime.topology, hosts, PARALLEL,
                                     forced_fabric=fabric)
        circuit = cls(runtime, name, members, choice)
        if runtime.monitor is not None:
            runtime.monitor.on_circuit(circuit, "establish")
        return circuit

    # ------------------------------------------------------------------
    # paradigm API
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def mapping(self) -> str:
        """``straight``, ``cross-paradigm`` or ``loopback``."""
        return self.choice.mapping

    @property
    def fabric_name(self) -> str | None:
        return self.choice.fabric_name

    def rank_of(self, process: "PadicoProcess") -> int:
        return self._ranks[process.name]

    def send(self, proc: SimProcess, my_rank: int, dst_rank: int,
             payload: Any, nbytes: float) -> None:
        """Send a framed message to ``dst_rank`` (blocking, timed).

        ``payload`` is opaque and delivered by reference (zero-copy):
        the timed transfer is driven by the ``nbytes`` float alone, so
        staged ndarrays and ``WireBuffer`` segment lists cross the
        circuit without being joined or copied.  Large-message senders
        must not mutate the payload until the receiver consumes it
        (rendezvous discipline enforced at the MPI layer)."""
        self._check_open("send")
        mon = self.runtime.monitor
        if mon is not None:
            mon.on_span_start("circuit.send", cat="abstraction",
                              nbytes=float(nbytes), dst=dst_rank,
                              mapping=self.mapping)
        try:
            send_leg(proc, mon, self.runtime.network, self.driver,
                     self.fabric_name, self._hosts[my_rank],
                     self._hosts[dst_rank], nbytes)
            self._inbox[dst_rank].put((my_rank, payload, nbytes))
        finally:
            if mon is not None:
                mon.on_span_end("circuit.send")

    @staticmethod
    def _predicate(source: int, where) -> Any:
        if source == ANY_SOURCE and where is None:
            return None

        def match(item) -> bool:
            if source != ANY_SOURCE and item[0] != source:
                return False
            return where is None or where(item[1])

        return match

    def recv(self, proc: SimProcess, my_rank: int,
             source: int = ANY_SOURCE, where=None,
             charge=None) -> tuple[int, Any, float]:
        """Blocking selective receive → ``(src_rank, payload, nbytes)``.

        ``where`` optionally filters on the payload (tag matching).
        ``charge(payload)`` may name the caller's next charge in seconds
        (or None), which the receive leg takes in its own block."""
        self._check_open("recv")
        mon = self.runtime.monitor
        if mon is not None:
            mon.on_span_start("circuit.recv", cat="abstraction")
        in_leg = False  # once the leg runs, it closes the span with it
        try:
            item = self._inbox[my_rank].get(proc,
                                            self._predicate(source, where))
            after = None if charge is None else charge(item[1])
            in_leg = True
            recv_leg(proc, mon, self.driver, self.fabric_name,
                     self._hosts[item[0]], self._hosts[my_rank], item[2],
                     after=after, within="circuit.recv")
            return item
        finally:
            if mon is not None and not in_leg:
                mon.on_span_end("circuit.recv")

    def poll(self, my_rank: int, source: int = ANY_SOURCE,
             where=None) -> bool:
        """Non-blocking probe for a pending message."""
        self._check_open("poll")
        return self._inbox[my_rank].poll(self._predicate(source, where))

    def wait_message(self, proc: SimProcess, my_rank: int,
                     source: int = ANY_SOURCE,
                     where=None) -> tuple[int, Any, float]:
        """Blocking probe: peek at the next matching message without
        consuming it."""
        self._check_open("probe")
        return self._inbox[my_rank].wait_match(
            proc, self._predicate(source, where))

    def subcircuit(self, name: str, ranks: list[int]) -> "Circuit":
        """Establish a circuit over the members at ``ranks`` (the
        selector picks its fabric afresh) that shares this circuit's
        lifetime: :meth:`close` retires it too."""
        if self.closed:
            raise RuntimeError(
                f"Circuit {self.name!r} is closed (subcircuit after close)")
        sub = Circuit.establish(self.runtime, name,
                                [self.members[r] for r in ranks])
        self._subcircuits.append(sub)
        return sub

    def close(self) -> None:
        """Retire the circuit and its subcircuits: any further traffic
        is a lifecycle error."""
        for sub in self._subcircuits:
            sub.close()
        monitor = self.runtime.monitor
        if monitor is not None:
            monitor.on_circuit(self, "close")
        self.closed = True

    def __repr__(self) -> str:
        return (f"<Circuit {self.name} size={self.size} "
                f"{self.mapping} on {self.fabric_name}>")
