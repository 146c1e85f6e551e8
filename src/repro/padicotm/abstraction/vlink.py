"""VLink: the distributed-oriented abstract interface (paper §4.3.2).

VLink gives middleware the shape of a dynamic stream — listen, connect,
accept, ordered duplex messages — while the actual wire is chosen per
connection by the selector:

- endpoints share a parallel fabric → the stream rides the Madeleine
  driver (**cross-paradigm**; this is how a CORBA ORB transparently
  reaches Myrinet speed in Figure 7);
- otherwise → the TCP driver over the best distributed fabric
  (**straight**);
- same host → loopback.

Both ends pick their driver once, when the pair is made, and both
claim its NIC then.

A per-endpoint ``security_policy`` hook lets the deployment layer charge
encryption cost on insecure wires (paper §2/§6)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Protocol

from repro.net.devices import DISTRIBUTED
from repro.padicotm.abstraction.selector import (
    MappingChoice,
    select_pair_fabric,
)
from repro.padicotm.arbitration.drivers import (
    driver_for,
    recv_leg,
    send_leg,
    timed_move,
)
from repro.sim.kernel import SimProcess
from repro.sim.sync import Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess, PadicoRuntime

_EOF = object()


class ConnectionRefusedError(RuntimeError):
    """No VLink listener at the target (process, port)."""


class SecurityPolicy(Protocol):  # pragma: no cover - structural type
    """Deployment-layer hook charging cryptographic CPU cost."""

    def transform_cost(self, nbytes: float, fabric_name: str | None,
                       secure_wire: bool) -> float:
        """Extra per-side CPU seconds for a message of ``nbytes``."""
        ...

    def should_encrypt(self, fabric_name: str | None,
                       secure_wire: bool) -> bool:
        ...


class VLinkListener:
    """Passive VLink endpoint accepting incoming connections."""

    def __init__(self, process: "PadicoProcess", port: str):
        self.process = process
        self.port = port
        self._backlog = Mailbox(process.runtime.kernel)
        self.closed = False

    def accept(self, proc: SimProcess) -> "VLinkEndpoint":
        """Block until a peer connects; returns the server-side end."""
        return self._backlog.get(proc)

    def poll(self) -> bool:
        return not self._backlog.empty

    def close(self) -> None:
        self.closed = True
        key = (self.process.name, self.port)
        self.process.runtime.vlink_listeners.pop(key, None)
        monitor = self.process.runtime.monitor
        if monitor is not None:
            monitor.on_unbind(self.process.name, self.port)


class VLinkEndpoint:
    """One end of an established VLink stream."""

    def __init__(self, runtime: "PadicoRuntime", local: "PadicoProcess",
                 remote: "PadicoProcess", choice: MappingChoice):
        self.runtime = runtime
        self.local = local
        self.remote = remote
        self.choice = choice
        #: the arbitrated driver carrying this stream
        self.driver = driver_for(choice.fabric)
        if choice.fabric is not None:
            local.arbitration.claim_fabric(choice.fabric.name)
        self._inbox = Mailbox(runtime.kernel)
        #: called (no arguments) when the peer queues a message here
        #: while no thread waits in :meth:`recv` — how a server that
        #: reads with a varying number of threads learns of a message
        #: none of them is there to take
        self.on_unread: Callable[[], None] | None = None
        self.peer: "VLinkEndpoint | None" = None
        self.closed = False
        # the process-wide default policy applies unless overridden
        self.security_policy: SecurityPolicy | None = \
            getattr(local, "security_policy", None)
        #: bytes this end sent through an encrypting policy (telemetry)
        self.encrypted_bytes: float = 0.0
        self.sent_bytes: float = 0.0
        if runtime.monitor is not None:
            runtime.monitor.on_vlink(self, "create")

    # ------------------------------------------------------------------
    @classmethod
    def make_pair(cls, runtime: "PadicoRuntime", a: "PadicoProcess",
                  b: "PadicoProcess", choice: MappingChoice
                  ) -> tuple["VLinkEndpoint", "VLinkEndpoint"]:
        ea = cls(runtime, a, b, choice)
        eb = cls(runtime, b, a, choice)
        ea.peer, eb.peer = eb, ea
        if runtime.monitor is not None:
            runtime.monitor.on_vlink(ea, "connect")
            runtime.monitor.on_vlink(eb, "connect")
        return ea, eb

    @property
    def mapping(self) -> str:
        return self.choice.mapping

    @property
    def fabric_name(self) -> str | None:
        return self.choice.fabric_name

    @property
    def secure_wire(self) -> bool:
        """Is the underlying wire physically trusted (SAN/loopback)?"""
        if self.choice.fabric is None:
            return True
        return self.choice.fabric.technology.secure

    # ------------------------------------------------------------------
    def send(self, proc: SimProcess, payload: Any, nbytes: float) -> None:
        """Send one message down the stream (blocking, timed).

        ``payload`` is opaque and forwarded *by reference* — the timed
        transfer is driven entirely by the separate ``nbytes`` float.
        In particular a zero-copy ``(header, WireBuffer)`` GIOP frame
        rides the whole VLink/driver path without any of its segments
        being joined or copied; the receiver gets the same object the
        sender passed in.  Senders that reuse payload memory must wait
        until the receiver is done with it (rendezvous discipline)."""
        mon = self.runtime.monitor
        if mon is not None:
            mon.on_vlink(self, "send")
            mon.on_span_start("vlink.send", cat="abstraction",
                              nbytes=float(nbytes), mapping=self.mapping,
                              fabric=self.fabric_name or "loopback")
        try:
            if self.closed:
                raise BrokenPipeError("VLink endpoint is closed")
            extra = 0.0
            if self.security_policy is not None:
                extra = self.security_policy.transform_cost(
                    nbytes, self.fabric_name, self.secure_wire)
                if self.security_policy.should_encrypt(self.fabric_name,
                                                       self.secure_wire):
                    self.encrypted_bytes += nbytes
            send_leg(proc, mon, self.runtime.network, self.driver,
                     self.fabric_name, self.local.host.name,
                     self.remote.host.name, nbytes, extra)
            self.sent_bytes += nbytes
            self.peer._deliver((payload, nbytes, extra))
        finally:
            if mon is not None:
                mon.on_span_end("vlink.send")

    def recv(self, proc: SimProcess,
             timeout: float | None = None) -> tuple[Any, float] | None:
        """Blocking receive → ``(payload, nbytes)``, or None on EOF.

        With ``timeout``, raises :class:`repro.sim.sync.SimTimeout`."""
        mon = self.runtime.monitor
        if mon is not None:
            mon.on_vlink(self, "recv")
            mon.on_span_start("vlink.recv", cat="abstraction")
        try:
            item = self._inbox.get(proc, timeout=timeout)
            if item is _EOF:
                return None
            payload, nbytes, sender_extra = item
            recv_leg(proc, mon, self.driver, self.fabric_name,
                     self.remote.host.name, self.local.host.name, nbytes,
                     sender_extra)
            return payload, nbytes
        finally:
            if mon is not None:
                mon.on_span_end("vlink.recv")

    def _deliver(self, item: Any) -> None:
        """Queue ``item`` (a message or EOF from the peer) for ``recv``."""
        unread = self.on_unread is not None and not self._inbox.waiting
        self._inbox.put(item)
        if unread:
            self.on_unread()

    def poll(self) -> bool:
        if self.runtime.monitor is not None:
            self.runtime.monitor.on_vlink(self, "poll")
        return not self._inbox.empty

    def close(self) -> None:
        """Close: signal EOF to the peer and to local readers."""
        if self.runtime.monitor is not None:
            self.runtime.monitor.on_vlink(self, "close")
        if not self.closed:
            self.closed = True
            if self.peer is not None:
                self.peer._deliver(_EOF)
            # unblock threads of our own process waiting in recv()
            self._inbox.put(_EOF)

    def __repr__(self) -> str:
        return (f"<VLinkEndpoint {self.local.name}->{self.remote.name} "
                f"{self.mapping} on {self.fabric_name}>")


class VLink:
    """Factory namespace for the distributed-oriented abstraction."""

    @staticmethod
    def listen(process: "PadicoProcess", port: str) -> VLinkListener:
        """Bind a listener on ``process`` under ``port``."""
        runtime = process.runtime
        key = (process.name, port)
        if key in runtime.vlink_listeners:
            raise OSError(f"VLink port {port!r} already bound in "
                          f"{process.name!r}")
        listener = VLinkListener(process, port)
        runtime.vlink_listeners[key] = listener
        if runtime.monitor is not None:
            runtime.monitor.on_bind(process.name, port, listener)
        return listener

    @staticmethod
    def connect(proc: SimProcess, process: "PadicoProcess",
                target_process: str, port: str,
                fabric: str | None = None) -> VLinkEndpoint:
        """Connect to ``target_process:port``; blocks for the handshake.

        ``fabric`` forces a wire (ablation benches); the default lets the
        selector choose, which is the paper's intended behaviour.
        """
        runtime = process.runtime
        target = runtime.process(target_process)
        src, dst = process.host.name, target.host.name
        choice = select_pair_fabric(runtime.topology, src, dst, DISTRIBUTED,
                                    forced_fabric=fabric)
        _label, wire = driver_for(choice.fabric).wire(
            choice.fabric_name, src, dst)
        listener = runtime.vlink_listeners.get((target_process, port))
        timed_move(proc, runtime.network, src, dst, wire, 0)  # SYN
        if listener is None or listener.closed:
            raise ConnectionRefusedError(
                f"{target_process}:{port} is not listening")
        local_end, remote_end = VLinkEndpoint.make_pair(
            runtime, process, target, choice)
        listener._backlog.put(remote_end)
        timed_move(proc, runtime.network, src, dst, wire, 0)  # ACK
        return local_end
