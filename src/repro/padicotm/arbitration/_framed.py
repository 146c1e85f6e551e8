"""Framed-message group transport: the one driver-backed group channel.

A static process group with logical ranks moves framed messages through
one arbitrated driver.  A Madeleine channel (parallel paradigm) and the
cross-paradigm mesh behind :class:`~repro.padicotm.abstraction.circuit.Circuit`
are the same transport handed a different
:class:`~repro.padicotm.arbitration.drivers.Driver`; it carries rank
bookkeeping, the members' NIC claims, timed sends and selective
receives."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.padicotm.arbitration.drivers import Driver, timed_move
from repro.sim.kernel import SimProcess
from repro.sim.sync import Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess, PadicoRuntime

#: Receive from any rank.
ANY_SOURCE = -1


class FramedGroupTransport:
    """Timed, framed messaging between the ranks of a process group."""

    def __init__(self, runtime: "PadicoRuntime",
                 members: list["PadicoProcess"], fabric: str | None,
                 driver: Driver):
        self.runtime = runtime
        self.fabric = fabric  # None: every pair is same-host (loopback)
        self.driver = driver
        self.members = list(members)
        self._hosts = [p.host.name for p in members]
        self.rank_of = {p.name: i for i, p in enumerate(members)}
        if len(self.rank_of) != len(members):
            raise ValueError("duplicate process in group member list")
        self._inbox = [Mailbox(runtime.kernel) for _ in members]
        if fabric is not None:
            for p in members:
                p.arbitration.claim_fabric(fabric)

    @property
    def size(self) -> int:
        return len(self.members)

    def send(self, proc: SimProcess, src_rank: int, dst_rank: int,
             payload: Any, nbytes: float) -> None:
        """Send one framed message; blocks for overhead + transfer.

        ``payload`` is opaque and delivered by reference (zero-copy):
        the timed transfer is driven by the ``nbytes`` float alone, so
        staged ndarrays and ``WireBuffer`` segment lists cross the
        transport without being joined or copied.  Large-message senders
        must not mutate the payload until the receiver consumes it
        (rendezvous discipline enforced at the MPI layer)."""
        src = self._hosts[src_rank]
        dst = self._hosts[dst_rank]
        label, fabric = self.driver.wire(self.fabric, src, dst)
        mon = self.runtime.monitor
        if mon is not None:
            mon.on_span_start("arbitration.send", cat="arbitration",
                              driver=label)
            mon.on_driver_io(label, "send", float(nbytes))
        try:
            proc.sleep(self.driver.send_overhead)
            timed_move(proc, self.runtime.network, src, dst, fabric, nbytes)
        finally:
            if mon is not None:
                mon.on_span_end("arbitration.send")
        self._inbox[dst_rank].put((src_rank, payload, nbytes))

    @staticmethod
    def _predicate(source: int, where) -> "Any":
        if source == ANY_SOURCE and where is None:
            return None

        def match(item) -> bool:
            if source != ANY_SOURCE and item[0] != source:
                return False
            return where is None or where(item[1])

        return match

    def recv(self, proc: SimProcess, my_rank: int,
             source: int = ANY_SOURCE, where=None) -> tuple[int, Any, float]:
        """Blocking selective receive → ``(src_rank, payload, nbytes)``.

        ``where`` optionally filters on the payload (MPI tag matching).
        """
        item = self._inbox[my_rank].get(proc, self._predicate(source, where))
        mon = self.runtime.monitor
        if mon is not None:
            label = self.driver.wire(self.fabric, self._hosts[item[0]],
                                     self._hosts[my_rank])[0]
            mon.on_span_start("arbitration.recv", cat="arbitration",
                              driver=label)
            mon.on_driver_io(label, "recv", float(item[2]))
        try:
            proc.sleep(self.driver.recv_overhead)
        finally:
            if mon is not None:
                mon.on_span_end("arbitration.recv")
        return item

    def poll(self, my_rank: int, source: int = ANY_SOURCE,
             where=None) -> bool:
        """Non-blocking probe for a pending message."""
        return self._inbox[my_rank].poll(self._predicate(source, where))

    def wait_message(self, proc: SimProcess, my_rank: int,
                     source: int = ANY_SOURCE,
                     where=None) -> tuple[int, Any, float]:
        """Block until a matching message is pending, without consuming
        it (probe semantics); returns a peek at the envelope."""
        return self._inbox[my_rank].wait_match(
            proc, self._predicate(source, where))
