"""The arbitrated drivers: one per network paradigm, plus loopback.

PadicoTM arbitrates one low-level driver per paradigm (paper §4.3.1):
Madeleine for parallel-oriented networks (Myrinet, SCI) and the kernel
TCP stack for distributed-oriented links (LAN, WAN).  Circuit and VLink
each map onto one of them, straight or cross-paradigm, and a same-host
stream uses shared memory.  This table is the one place their
per-message software costs live, :meth:`Driver.wire` the one rule for
which wire a message takes and what it is counted as, and
:func:`send_leg` / :func:`recv_leg` the one message leg both interfaces
send and receive through: the ``arbitration.*`` span, the driver I/O
count, the per-message overhead and (sending) :func:`timed_move`, the
one place a message's bytes are charged to the clock."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.net import devices

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.flows import FlowNetwork
    from repro.net.topology import Fabric
    from repro.sim.kernel import SimProcess


@dataclass(frozen=True)
class Driver:
    """An arbitrated driver and its per-message software cost."""

    label: str            # what spans and driver I/O totals call it
    send_overhead: float  # seconds per message, sending side
    recv_overhead: float  # seconds per message, receiving side

    def wire(self, fabric: str | None, src_host: str,
             dst_host: str) -> tuple[str, str | None]:
        """The label rule for one (sender, receiver) pair.

        Returns ``(label, fabric)``: a same-host pair, or no fabric at
        all, is a shared-memory copy (fabric ``None``) labelled
        ``loopback``; anything else crosses ``fabric`` under this
        driver's label."""
        if fabric is None or src_host == dst_host:
            return LOOPBACK.label, None
        return self.label, fabric


#: Madeleine's user-level fast path, calibrated so MPI's one-way latency
#: over Myrinet lands at the paper's 11 µs (1 µs send + 9 µs wire + 1 µs
#: receive).
MADELEINE = Driver("madeleine", 1.0e-6, 1.0e-6)
#: The kernel TCP stack: noticeably dearer than the Madeleine fast path.
TCP = Driver("tcp", 5.0e-6, 5.0e-6)
#: Same-host shared memory.
LOOPBACK = Driver("loopback", 0.5e-6, 0.5e-6)


def driver_for(fabric: "Fabric | None") -> Driver:
    """The driver a fabric's paradigm implies (loopback without one)."""
    if fabric is None:
        return LOOPBACK
    if fabric.technology.paradigm == devices.PARALLEL:
        return MADELEINE
    return TCP


def timed_move(proc: "SimProcess", network: "FlowNetwork", src_host: str,
               dst_host: str, fabric: str | None, nbytes: float) -> None:
    """Charge moving ``nbytes`` from ``src_host`` to ``dst_host``.

    ``fabric`` is what :meth:`Driver.wire` resolved: ``None`` copies
    through shared memory, anything else is a network transfer."""
    if fabric is None:
        proc.sleep(devices.LOOPBACK.latency
                   + nbytes / devices.LOOPBACK.bandwidth)
    else:
        network.transfer(proc, src_host, dst_host, nbytes, fabric)


def send_leg(proc: "SimProcess", monitor: Any, network: "FlowNetwork",
             driver: Driver, fabric: str | None, src_host: str,
             dst_host: str, nbytes: float, extra: float = 0.0) -> None:
    """Charge sending one message under ``driver``: its per-message
    overhead plus ``extra`` (e.g. encryption), then the move itself,
    inside an ``arbitration.send`` span labelled by :meth:`Driver.wire`."""
    label, wire = driver.wire(fabric, src_host, dst_host)
    if monitor is not None:
        monitor.on_span_start("arbitration.send", cat="arbitration",
                              driver=label)
        monitor.on_driver_io(label, "send", float(nbytes))
    try:
        proc.sleep(driver.send_overhead + extra)
        timed_move(proc, network, src_host, dst_host, wire, nbytes)
    finally:
        if monitor is not None:
            monitor.on_span_end("arbitration.send")


def recv_leg(proc: "SimProcess", monitor: Any, driver: Driver,
             fabric: str | None, src_host: str, dst_host: str,
             nbytes: float, extra: float = 0.0) -> None:
    """Charge receiving one message under ``driver``: its per-message
    overhead plus ``extra`` (decryption costs what encryption did),
    inside an ``arbitration.recv`` span."""
    if monitor is not None:
        label = driver.wire(fabric, src_host, dst_host)[0]
        monitor.on_span_start("arbitration.recv", cat="arbitration",
                              driver=label)
        monitor.on_driver_io(label, "recv", float(nbytes))
    try:
        proc.sleep(driver.recv_overhead + extra)
    finally:
        if monitor is not None:
            monitor.on_span_end("arbitration.recv")
