"""Circuit: the parallel-oriented abstract interface (paper §4.3.2).

A Circuit is a static group of PadicoTM processes with logical ranks and
framed messaging — the abstraction MPI is implemented on.  The driver
is selected automatically:

- all members share a parallel fabric (Myrinet/SCI SAN) → a Madeleine
  channel (**straight** mapping);
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
from repro.padicotm.arbitration._framed import ANY_SOURCE, FramedGroupTransport
from repro.padicotm.arbitration.drivers import MADELEINE, TCP, driver_for
from repro.padicotm.arbitration.madeleine import open_channel
from repro.sim.kernel import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess, PadicoRuntime

__all__ = ["Circuit", "ANY_SOURCE"]


class Circuit:
    """Parallel-oriented group communication abstraction."""

    def __init__(self, name: str, backend: FramedGroupTransport,
                 choice: MappingChoice):
        self.name = name
        self._backend = backend
        self.choice = choice
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

        ``fabric`` forces a specific network (used by ablation benches);
        by default the selector picks the best one.
        """
        hosts = [p.host.name for p in members]
        choice = select_group_fabric(runtime.topology, hosts, PARALLEL,
                                     forced_fabric=fabric)
        # a single-host circuit keeps TCP's per-message cost rather than
        # loopback's (known deviation, DESIGN.md §5)
        driver = driver_for(choice.fabric) if choice.fabric is not None \
            else TCP
        if driver is MADELEINE:
            backend = open_channel(runtime, f"circuit:{name}", members,
                                   choice.fabric.name)
        else:
            backend = FramedGroupTransport(runtime, members,
                                           choice.fabric_name, driver)
        circuit = cls(name, backend, choice)
        if runtime.monitor is not None:
            runtime.monitor.on_circuit(circuit, "establish")
        return circuit

    # ------------------------------------------------------------------
    # paradigm API
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._backend.size

    @property
    def runtime(self) -> "PadicoRuntime":
        return self._backend.runtime

    @property
    def members(self) -> list["PadicoProcess"]:
        return self._backend.members

    @property
    def mapping(self) -> str:
        """``straight``, ``cross-paradigm`` or ``loopback``."""
        return self.choice.mapping

    @property
    def fabric_name(self) -> str | None:
        return self.choice.fabric_name

    def rank_of(self, process: "PadicoProcess") -> int:
        return self._backend.rank_of[process.name]

    def send(self, proc: SimProcess, my_rank: int, dst_rank: int,
             payload: Any, nbytes: float) -> None:
        """Send a framed message to ``dst_rank`` (blocking, timed).

        Payloads are forwarded by reference end-to-end (``nbytes``
        drives the timing); see
        :meth:`FramedGroupTransport.send <repro.padicotm.arbitration._framed.FramedGroupTransport.send>`
        for the zero-copy/rendezvous contract."""
        self._check_open("send")
        mon = self.runtime.monitor
        if mon is not None:
            mon.on_span_start("circuit.send", cat="abstraction",
                              nbytes=float(nbytes), dst=dst_rank,
                              mapping=self.mapping)
        try:
            self._backend.send(proc, my_rank, dst_rank, payload, nbytes)
        finally:
            if mon is not None:
                mon.on_span_end("circuit.send")

    def recv(self, proc: SimProcess, my_rank: int,
             source: int = ANY_SOURCE, where=None) -> tuple[int, Any, float]:
        """Blocking selective receive → ``(src_rank, payload, nbytes)``.

        ``where`` optionally filters on the payload (tag matching)."""
        self._check_open("recv")
        mon = self.runtime.monitor
        if mon is not None:
            mon.on_span_start("circuit.recv", cat="abstraction")
        try:
            return self._backend.recv(proc, my_rank, source, where)
        finally:
            if mon is not None:
                mon.on_span_end("circuit.recv")

    def poll(self, my_rank: int, source: int = ANY_SOURCE,
             where=None) -> bool:
        self._check_open("poll")
        return self._backend.poll(my_rank, source, where)

    def wait_message(self, proc: SimProcess, my_rank: int,
                     source: int = ANY_SOURCE,
                     where=None) -> tuple[int, Any, float]:
        """Blocking probe: peek at the next matching message."""
        self._check_open("probe")
        return self._backend.wait_message(proc, my_rank, source, where)

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

    def deliver_nowait(self, dst_rank: int, src_rank: int, payload: Any,
                       nbytes: float) -> None:
        self._backend.deliver_nowait(dst_rank, src_rank, payload, nbytes)

    def __repr__(self) -> str:
        return (f"<Circuit {self.name} size={self.size} "
                f"{self.mapping} on {self.fabric_name}>")
