"""The ORB: object adapters, references, stubs, GIOP request brokering.

One ORB instance lives inside one PadicoTM process and is parameterised
by an :class:`~repro.corba.profiles.OrbProfile` (omniORB/Mico/ORBacus
cost model).  Wire path: generated stub → CDR → GIOP → VLink (PadicoTM
selects Myrinet/LAN/WAN transparently) → acceptor thread → POA dispatch
→ servant method.

Threading mirrors the products the paper ports (omniORB's thread per
connection): an acceptor thread per ORB and, per inbound connection, a
thread that reads a request and dispatches it in line.  A second thread
joins a connection only while a request waits and every thread of that
connection is inside a servant, so a blocked servant never stalls the
requests behind it.  On the client side callers read their own replies
(leader/follower) — any number of client threads share a connection
with requests in flight concurrently, and no thread reads for them.  A
request therefore costs one thread hand-off each way."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.corba import esiop, giop
from repro.corba.cdr import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    WireBuffer,
    decode_value,
    encode_value,
)
from repro.corba.idl.compiler import (
    CompiledIdl,
    InterfaceDef,
    OperationDef,
)
from repro.corba.idl.types import (
    AnyType,
    IdlType,
    ObjRefType,
    PrimitiveType,
    SequenceType,
    StringType,
    StructType,
    UserExceptionBase,
    VOID,
    VoidType,
)
from repro.corba.ior import IOR
from repro.corba.profiles import COLLOCATED_OVERHEAD, OrbProfile, OrbModule
from repro.net.flows import TransferError
from repro.net.topology import NoRouteError
from repro.padicotm.abstraction.vlink import (
    ConnectionRefusedError as VLinkRefusedError,
    VLink,
    VLinkEndpoint,
)
from repro.sim.kernel import SimProcess
from repro.sim.sync import SimEvent, SimLock, SimTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

#: re-exported for user code
UserException = UserExceptionBase


class CorbaError(Exception):
    """Local CORBA usage error."""


class SystemException(CorbaError):
    """CORBA system exception (OBJECT_NOT_EXIST, COMM_FAILURE, ...)."""

    def __init__(self, minor: str, detail: str = ""):
        super().__init__(f"{minor}: {detail}" if detail else minor)
        self.minor = minor
        self.detail = detail


_BOOLEAN = PrimitiveType("boolean")
_STRING = StringType()
_IS_A_OP = OperationDef("_is_a", _BOOLEAN,
                        [("logical_type_id", "in", _STRING)])
_NON_EXISTENT_OP = OperationDef("_non_existent", _BOOLEAN, [])


class ObjectRef:
    """Client-side object reference; generated stubs subclass this."""

    _idef: InterfaceDef | None = None  # set on generated stub classes

    def __init__(self, orb: "Orb", ior: IOR):
        self._orb = orb
        self.ior = ior

    def _invoke(self, opdef: OperationDef, args: tuple) -> Any:
        return self._orb.invoke(self, opdef, args)

    def _is_a(self, repo_id: str) -> bool:
        """Remote type check (CORBA ``_is_a``)."""
        return self._orb.invoke(self, _IS_A_OP, (repo_id,))

    def _non_existent(self) -> bool:
        """CORBA ``_non_existent``: True when the servant is gone.

        Unlike a normal invocation on a destroyed object this never
        raises OBJECT_NOT_EXIST — it is the standard liveness probe."""
        return self._orb.invoke(self, _NON_EXISTENT_OP, ())

    def _narrow(self, interface_name: str) -> "ObjectRef":
        """Re-type this reference as ``interface_name`` (local check)."""
        return self._orb.narrow(self, interface_name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectRef) and other.ior == self.ior

    def __hash__(self) -> int:
        return hash(self.ior)

    def __repr__(self) -> str:
        return f"<ObjectRef {self.ior.stringify()}>"


class Servant:
    """Base class for object implementations.

    Subclass the result of :meth:`Orb.servant_base` so the POA knows the
    IDL interface the servant implements."""

    _idef: InterfaceDef | None = None


class POA:
    """Portable Object Adapter: the servant table of one ORB."""

    def __init__(self, orb: "Orb"):
        self.orb = orb
        self._servants: dict[str, Servant] = {}
        self._counter = 0

    def activate_object(self, servant: Servant, key: str | None = None,
                        type_id: str | None = None) -> ObjectRef:
        """Register ``servant``; returns a typed object reference.

        ``type_id`` overrides the repository id advertised in the IOR —
        used when a servant implements a *derived* interface but should
        present itself to clients as the base (GridCCM proxies)."""
        idef = servant._idef
        if idef is None:
            raise CorbaError(
                f"{type(servant).__name__} has no IDL interface; subclass "
                f"orb.servant_base(<interface>)")
        if key is None:
            self._counter += 1
            key = f"{idef.name.lower()}-{self._counter}"
        if key in self._servants:
            raise CorbaError(f"object key {key!r} already active")
        self._servants[key] = servant
        ior = IOR(type_id or idef.repo_id, self.orb.process.name,
                  self.orb.port, key)
        return self.orb.create_reference(ior)

    def deactivate_object(self, key: str) -> None:
        if key not in self._servants:
            raise CorbaError(f"no active object under key {key!r}")
        del self._servants[key]

    def lookup(self, key: str) -> Servant:
        try:
            return self._servants[key]
        except KeyError:
            raise SystemException("OBJECT_NOT_EXIST", key) from None


#: a follower's wake-up value: nobody reads the connection now, you do
_LEAD = object()


class _ClientConnection:
    """Cached outbound connection with multiplexed requests.

    Callers read their own replies (leader/follower): the caller that
    finds nobody reading becomes the *leader* and reads the endpoint,
    handing every reply for another request id to the caller waiting on
    it; the *followers* wait on their slot.  A leader that leaves — its
    reply in, timed out or interrupted — promotes the oldest waiting
    follower.  So any number of client threads can have invocations in
    flight on one connection concurrently (how omniORB drives a GIOP
    connection), only the *writes* are serialised, and a lone caller
    reads its reply without a thread hand-off."""

    def __init__(self, orb: "Orb", endpoint: VLinkEndpoint):
        self.orb = orb
        self.endpoint = endpoint
        kernel = orb.process.runtime.kernel
        self._kernel = kernel
        self.send_lock = SimLock(kernel)
        self._next_id = 0
        #: request id → reply slot of every two-way call in flight
        self._pending: dict[int, SimEvent] = {}
        #: request id of the caller reading the endpoint (or promoted to)
        self._leader: int | None = None
        self.dead: SystemException | None = None

    def next_request_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def register(self, request_id: int) -> SimEvent:
        slot = SimEvent(self._kernel)
        self._pending[request_id] = slot
        return slot

    def forget(self, request_id: int) -> None:
        """Drop ``request_id``'s slot; a leader leaving promotes the
        oldest follower still waiting."""
        self._pending.pop(request_id, None)
        if self._leader == request_id:
            self._leader = None
            for rid, slot in self._pending.items():
                if not slot.is_set:
                    self._leader = rid
                    slot.set(_LEAD)
                    return

    def reply(self, proc: SimProcess, request_id: int, slot: SimEvent,
              timeout: float | None) -> Any:
        """The reply to ``request_id`` — ``(status, stream, nbytes)`` —
        or the SystemException that ended the connection, read by this
        caller while nobody else reads, else waited for in ``slot``.
        Raises :class:`SimTimeout` after ``timeout`` virtual seconds."""
        deadline = None if timeout is None else self._kernel.now + timeout
        try:
            while True:
                if not slot.is_set and self._leader in (None, request_id):
                    self._leader = request_id
                    return self._read(proc, request_id, deadline)
                value = slot.wait(proc, timeout=self._left(deadline))
                if value is not _LEAD:
                    return value
                slot.clear()
        finally:
            self.forget(request_id)

    def _left(self, deadline: float | None) -> float | None:
        return None if deadline is None else \
            max(deadline - self._kernel.now, 0.0)

    def _read(self, proc: SimProcess, request_id: int,
              deadline: float | None) -> Any:
        """Leader: read until the reply to ``request_id``, handing the
        others to their callers."""
        wire = self.orb.wire
        while True:
            item = self.endpoint.recv(proc, timeout=self._left(deadline))
            if item is None:
                self._fail(SystemException("COMM_FAILURE",
                                           "connection closed"))
                return self.dead
            (header, body), nbytes = item
            try:
                msg_type, _size, little, _ver = wire.parse_header(header)
            except CdrError:
                continue  # garbage frame: drop it
            if msg_type != wire.MSG_REPLY:
                continue
            inp = CdrInputStream(body, little)
            try:
                rid, status = wire.read_reply(inp)
            except CdrError as exc:
                # a valid header over an unparseable reply: protocol
                # error on this connection — pending callers raise, the
                # next invocation reconnects
                self._fail(SystemException("COMM_FAILURE",
                                           f"malformed reply: {exc}"))
                return self.dead
            if rid == request_id:
                return status, inp, nbytes
            slot = self._pending.pop(rid, None)
            if slot is not None:
                slot.set((status, inp, nbytes))
            # unmatched replies (e.g. for timed-out requests) are dropped

    def _fail(self, exc: SystemException) -> None:
        """End the connection: every pending caller gets the first
        cause, a leader blocked in ``recv`` wakes on the EOF."""
        if self.dead is None:
            self.dead = exc
        self.endpoint.close()
        for slot in self._pending.values():
            slot.set(self.dead)
        self._pending.clear()


class _ServerConnection:
    """The threads serving one inbound connection.

    The thread that reads a request dispatches it in line (omniORB's
    thread per connection).  Another ``giop-conn`` thread starts only
    while a request waits and every thread of the connection is inside
    a dispatch: one already queued when the reader turns to dispatching,
    or one that arrives later (the endpoint's ``on_unread`` hook) — the
    instants a dedicated reader would have picked it up.  So a servant
    that blocks never stalls the requests behind it (reply order may
    differ; the client demultiplexes by id).  A thread that finishes a
    dispatch while another one reads exits."""

    def __init__(self, orb: "Orb", endpoint: VLinkEndpoint):
        self.orb = orb
        self.endpoint = endpoint
        #: threads reading (or spawned to read) rather than dispatching;
        #: the first is the caller of :meth:`serve`
        self.readers = 1
        endpoint.on_unread = self._unread

    def _unread(self) -> None:
        if not self.readers and not self.endpoint.closed:
            self._add_reader()

    def _add_reader(self) -> None:
        self.readers += 1
        self.orb.process.spawn(self.serve, name="giop-conn", daemon=True)

    def serve(self, proc: SimProcess) -> None:
        """Read and dispatch requests until the connection ends, or until
        a dispatch ends while another thread reads."""
        orb, endpoint = self.orb, self.endpoint
        wire, profile = orb.wire, orb.profile
        reading = True
        try:
            while True:
                item = endpoint.recv(proc)
                if item is None:
                    endpoint.close()
                    return
                (header, body), nbytes = item
                try:
                    msg_type, _size, little, _ver = wire.parse_header(header)
                except CdrError:
                    endpoint.close()  # protocol error: drop this connection
                    return
                if msg_type == wire.MSG_CLOSE_CONNECTION:
                    endpoint.close()
                    return
                if msg_type != wire.MSG_REQUEST:
                    continue  # ignore unknown traffic, like real ORBs
                # protocol-engine receive cost, paid before the dispatch
                proc.sleep(profile.server_overhead * orb._ovh +
                           profile.unmarshal_cost(nbytes))
                reading = False
                self.readers -= 1
                if not endpoint.closed and endpoint.poll():
                    self._add_reader()  # the next request is in already
                try:
                    orb._handle_request(proc, endpoint, body, little)
                except (TransferError, NoRouteError, BrokenPipeError):
                    endpoint.close()  # reply path died; drop the connection
                if self.readers or endpoint.closed:
                    return
                reading = True
                self.readers += 1
        finally:
            if reading:
                self.readers -= 1


class Orb:
    """One CORBA ORB inside one PadicoTM process."""

    def __init__(self, process: "PadicoProcess", profile: OrbProfile,
                 idl: CompiledIdl | None = None, port: str | None = None,
                 protocol: str = "giop", little_endian: bool = True):
        if protocol not in ("giop", "esiop"):
            raise CorbaError(f"unknown wire protocol {protocol!r}")
        self.process = process
        self.profile = profile
        #: byte order this ORB *sends* in; received messages are decoded
        #: per their header flag (CORBA receiver-makes-right)
        self.little_endian = little_endian
        #: pluggable wire protocol namespace (GIOP, or the PadicoTM
        #: environment-specific ESIOP with its leaner engine — §4.4)
        self.wire = giop if protocol == "giop" else esiop
        self._ovh = self.wire.OVERHEAD_SCALE
        self.idl = idl or CompiledIdl()
        # no ':' in the port — it must survive corbaloc stringification;
        # the protocol is part of the endpoint identity
        self.port = port or f"{protocol}-{profile.key}"
        self.poa = POA(self)
        #: identity attached to every outgoing request (GIOP Principal);
        #: servants read the caller's via :meth:`caller_principal`
        self.credentials: str = ""
        #: reply deadline in virtual seconds (None = wait forever); a
        #: timed-out invocation raises SystemException("TIMEOUT") and
        #: keeps the connection (its late reply is dropped unmatched)
        self.request_timeout: float | None = None
        self._listener = None
        self._connections: dict[tuple[str, str], _ClientConnection] = {}
        self._conn_lock = SimLock(process.runtime.kernel)
        self._stub_classes: dict[str, type] = {}
        module = OrbModule(profile)
        if not process.modules.is_loaded(module.name):
            process.modules.load(module)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind the GIOP listener and spawn the acceptor thread."""
        if self._listener is not None:
            return
        self._listener = VLink.listen(self.process, self.port)
        self.process.spawn(self._acceptor, name=f"orb-{self.profile.key}",
                           daemon=True)

    def _acceptor(self, proc: SimProcess) -> None:
        while True:
            endpoint = self._listener.accept(proc)
            self.process.spawn(self._serve_connection, endpoint,
                               name="giop-conn", daemon=True)

    def shutdown(self) -> None:
        """Stop accepting, drop the listener and every cached outbound
        connection (in-flight requests get COMM_FAILURE)."""
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        for conn in list(self._connections.values()):
            conn._fail(SystemException("COMM_FAILURE", "ORB shut down"))
        self._connections.clear()

    # ------------------------------------------------------------------
    # current simulated thread
    # ------------------------------------------------------------------
    def _current(self) -> SimProcess:
        proc = self.process.runtime.kernel.current
        if proc is None:
            raise CorbaError("CORBA invocations must run inside a "
                             "simulated thread")
        owner = getattr(proc, "padico_process", None)
        if owner is not None and owner is not self.process:
            raise CorbaError(
                f"thread {proc.name!r} belongs to process {owner.name!r} "
                f"but drives a stub of {self.process.name!r}'s ORB — "
                f"object references do not cross OS processes")
        return proc

    # ------------------------------------------------------------------
    # references & stubs
    # ------------------------------------------------------------------
    def create_reference(self, ior: IOR) -> ObjectRef:
        """A reference, typed with a generated stub when the IDL knows
        the interface behind ``ior.type_id``."""
        idef = self._interface_for_repo_id(ior.type_id)
        if idef is None:
            return ObjectRef(self, ior)
        return self._stub_class(idef)(self, ior)

    def _interface_for_repo_id(self, type_id: str) -> InterfaceDef | None:
        for idef in self.idl.interfaces.values():
            if idef.repo_id == type_id:
                return idef
        return None

    def narrow(self, ref: ObjectRef, interface_name: str) -> ObjectRef:
        idef = self.idl.interface(interface_name)
        return self._stub_class(idef)(self, ref.ior)

    def adopt(self, ref: ObjectRef | None) -> ObjectRef | None:
        """Rebind a reference created by another ORB onto this one.

        Needed on collocated call paths where the caller hands over a
        stub bound to its own ORB; storing it as-is would let later
        invocations bypass this process's transport accounting."""
        if ref is None or ref._orb is self:
            return ref
        return self.create_reference(ref.ior)

    def object_to_string(self, ref: ObjectRef) -> str:
        return ref.ior.stringify()

    def string_to_object(self, text: str) -> ObjectRef:
        return self.create_reference(IOR.destringify(text))

    def _stub_class(self, idef: InterfaceDef) -> type:
        cls = self._stub_classes.get(idef.scoped_name)
        if cls is None:
            cls = _make_stub_class(idef)
            self._stub_classes[idef.scoped_name] = cls
        return cls

    def servant_base(self, interface_name: str) -> type:
        """A base class binding servants to ``interface_name``."""
        idef = self.idl.interface(interface_name)
        return type(f"{idef.name}Servant", (Servant,), {"_idef": idef})

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def invoke(self, ref: ObjectRef, opdef: OperationDef,
               args: tuple) -> Any:
        """Synchronous invocation of ``opdef`` on ``ref``."""
        proc = self._current()
        n_in = len(opdef.in_params)
        if len(args) != n_in:
            raise CorbaError(
                f"{opdef.name} takes {n_in} argument(s), got {len(args)}")
        mon = self.process.runtime.monitor
        if mon is not None:
            mon.on_span_start("corba.invoke", cat="middleware",
                              op=opdef.name, target=ref.ior.process,
                              oneway=opdef.oneway)
        try:
            if ref.ior.process == self.process.name:
                return self._invoke_collocated(proc, ref, opdef, args)
            try:
                conn = self._connection(proc, ref.ior.process, ref.ior.port)
            except (NoRouteError, VLinkRefusedError) as exc:
                raise SystemException("COMM_FAILURE", str(exc)) from exc
            try:
                return self._invoke_remote(proc, conn, ref, opdef, args)
            except (TransferError, NoRouteError, BrokenPipeError) as exc:
                # the wire died under us: drop the cached connection so
                # the next invocation re-routes/reconnects, surface
                # COMM_FAILURE
                conn._fail(SystemException("COMM_FAILURE", str(exc)))
                self._connections.pop((ref.ior.process, ref.ior.port), None)
                raise SystemException("COMM_FAILURE", str(exc)) from exc
        finally:
            if mon is not None:
                mon.on_span_end("corba.invoke")

    def _invoke_remote(self, proc: SimProcess, conn: _ClientConnection,
                       ref: ObjectRef, opdef: OperationDef,
                       args: tuple) -> Any:
        profile = self.profile
        request_id = conn.next_request_id()
        out = CdrOutputStream(little_endian=self.little_endian,
                              zero_copy=profile.zero_copy)
        self.wire.start_request(out, request_id, ref.ior.object_key,
                                opdef.name, not opdef.oneway,
                                principal=self.credentials)
        for (pname, ptype), value in zip(opdef.in_params, args):
            try:
                encode_value(out, ptype, value)
            except CdrError as exc:  # rejected by the codec
                raise SystemException(
                    "MARSHAL", f"{opdef.name} arg {pname!r}: {exc}") from exc
        # two-way bodies leave as segment lists: bulk args ride by
        # reference down to the NIC, safe because the caller blocks on
        # the reply while the server reads.  Oneway callers return
        # immediately, so their bodies are joined — rendezvous needs a
        # blocked sender.
        body = out.getvalue() if opdef.oneway else out.getbuffer()
        payload = self.wire.frame(self.wire.MSG_REQUEST, body,
                                  self.little_endian)
        mon = self.process.runtime.monitor
        if mon is not None:
            mon.on_counter("giop.requests")
            mon.on_counter("wire.copied_bytes.corba",
                           float(out.copied_bytes))
            mon.on_counter("wire.referenced_bytes.corba",
                           float(out.referenced_bytes))
            mon.on_publish(body)
        slot = None if opdef.oneway else conn.register(request_id)
        conn.send_lock.acquire(proc)
        try:
            proc.sleep(profile.client_overhead * self._ovh +
                       profile.marshal_cost(out.copied_bytes))
            conn.endpoint.send(proc, payload,
                               self.wire.message_size(payload))
        except BaseException:
            conn.forget(request_id)
            raise
        finally:
            conn.send_lock.release(proc)
        if slot is None:
            return None
        try:
            result = conn.reply(proc, request_id, slot,
                                self.request_timeout)
        except SimTimeout as exc:
            # the slot is gone: whoever reads the late reply drops it,
            # so the connection itself stays usable
            raise SystemException(
                "TIMEOUT", f"{opdef.name}: no reply within "
                f"{self.request_timeout} s") from exc
        if isinstance(result, SystemException):  # connection died
            self._connections.pop((ref.ior.process, ref.ior.port), None)
            raise result
        status, inp, rn = result
        if mon is not None:
            mon.on_counter("giop.replies")
        # reply-side client CPU: wake-up, demultiplex, unmarshal
        proc.sleep(profile.client_overhead * self._ovh +
                   profile.unmarshal_cost(rn))
        try:
            if status == self.wire.REPLY_NO_EXCEPTION:
                return self._decode_results(inp, opdef)
            if status == self.wire.REPLY_USER_EXCEPTION:
                raise self._decode_user_exception(inp, opdef)
            minor = inp.read_string()
            detail = inp.read_string()
            raise SystemException(minor, detail)
        except CdrError as exc:  # a reply body that will not decode
            raise SystemException(
                "MARSHAL", f"{opdef.name} reply: {exc}") from exc
        finally:
            if mon is not None:
                mon.on_counter("wire.copied_bytes.corba",
                               float(inp.copied_bytes))
                mon.on_counter("wire.referenced_bytes.corba",
                               float(inp.referenced_bytes))
                mon.on_consume(inp)

    def _decode_results(self, inp: CdrInputStream,
                        opdef: OperationDef) -> Any:
        results: list[Any] = []
        if not isinstance(opdef.return_type, VoidType):
            results.append(self._localise(
                decode_value(inp, opdef.return_type), opdef.return_type))
        for pname, ptype in opdef.out_params:
            results.append(self._localise(decode_value(inp, ptype), ptype))
        if not results:
            return None
        return results[0] if len(results) == 1 else tuple(results)

    def _decode_user_exception(self, inp: CdrInputStream,
                               opdef: OperationDef) -> Exception:
        repo = inp.read_string()
        for etype in opdef.raises:
            if etype.repo_id == repo:
                fields = {fname: self._localise(decode_value(inp, ftype),
                                                ftype)
                          for fname, ftype in etype.fields}
                return etype.make(**fields)
        return SystemException("UNKNOWN", f"undeclared user exception {repo}")

    def _localise(self, value: Any, idl_type: Any) -> Any:
        """Turn decoded IORs into live, invocable references."""
        if isinstance(idl_type, ObjRefType):
            return self.create_reference(value) \
                if isinstance(value, IOR) else value
        if isinstance(idl_type, SequenceType) and isinstance(value, list):
            return [self._localise(v, idl_type.element) for v in value]
        if isinstance(idl_type, StructType) and value is not None:
            for fname, ftype in idl_type.fields:
                setattr(value, fname,
                        self._localise(getattr(value, fname), ftype))
            return value
        if isinstance(idl_type, AnyType) and isinstance(value, tuple):
            inner_t, inner_v = value
            return (inner_t, self._localise(inner_v, inner_t))
        return value

    def _connection(self, proc: SimProcess, target: str,
                    port: str) -> _ClientConnection:
        key = (target, port)
        self._conn_lock.acquire(proc)
        try:
            conn = self._connections.get(key)
            if conn is not None and conn.endpoint.peer.closed:
                # the server hung up while nobody was reading: what it
                # left unread dies with the connection
                conn._fail(SystemException("COMM_FAILURE",
                                           "connection closed"))
            if conn is None or conn.endpoint.closed or \
                    conn.dead is not None:
                endpoint = VLink.connect(proc, self.process, target, port)
                conn = _ClientConnection(self, endpoint)
                self._connections[key] = conn
            return conn
        finally:
            self._conn_lock.release(proc)

    # ------------------------------------------------------------------
    # collocated fast path
    # ------------------------------------------------------------------
    def _invoke_collocated(self, proc: SimProcess, ref: ObjectRef,
                           opdef: OperationDef, args: tuple) -> Any:
        """A same-process call: the servant runs on the caller's thread
        with the arguments as given.  Nothing is marshalled, so nothing
        passes the codec's acceptance check either — a value a remote
        call would answer ``MARSHAL`` reaches the servant as is."""
        proc.sleep(COLLOCATED_OVERHEAD)
        if opdef.name == "_non_existent":
            return ref.ior.object_key not in self.poa._servants
        servant = self.poa.lookup(ref.ior.object_key)
        if opdef.name == "_is_a":
            return self._servant_is_a(servant, args[0])
        prev_principal = getattr(proc, "corba_principal", "")
        proc.corba_principal = self.credentials
        try:
            return _call_servant(servant, opdef, list(args))
        finally:
            proc.corba_principal = prev_principal

    def caller_principal(self) -> str:
        """Identity of the request the *current thread* is dispatching
        ("" when anonymous or outside a dispatch)."""
        proc = self.process.runtime.kernel.current
        return getattr(proc, "corba_principal", "") if proc else ""

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------
    def _serve_connection(self, proc: SimProcess,
                          endpoint: VLinkEndpoint) -> None:
        """Serve an accepted connection, starting on the calling thread."""
        _ServerConnection(self, endpoint).serve(proc)

    def _handle_request(self, proc: SimProcess, endpoint: VLinkEndpoint,
                        body: "bytes | WireBuffer", little: bool) -> None:
        inp = CdrInputStream(body, little)
        try:
            request_id, expect_reply, key, opname, principal = \
                self.wire.read_request(inp)
        except CdrError:
            # protocol error, as for a bad header: drop this connection
            # (a caller waiting on it gets COMM_FAILURE, not silence)
            endpoint.close()
            return
        mon = self.process.runtime.monitor
        out: CdrOutputStream | None = None
        if mon is not None:
            mon.on_span_start("corba.dispatch", cat="middleware",
                              op=opname, request_id=request_id)
            mon.on_counter("giop.requests.served")
        try:
            prev_principal = getattr(proc, "corba_principal", "")
            proc.corba_principal = principal
            try:
                out = self._execute(proc, inp, request_id, key, opname)
            finally:
                proc.corba_principal = prev_principal
            if not expect_reply:
                return
            # the reply too leaves as a segment list; bulk results must
            # stay unmutated by the servant until the client decodes —
            # the zero-copy reply contract (the transfer completes
            # inside send(), and the client unblocks at that instant)
            reply_body = out.getbuffer()
            payload = self.wire.frame(self.wire.MSG_REPLY, reply_body,
                                      self.little_endian)
            # reply-side server CPU: marshal results + send-path
            # processing
            proc.sleep(self.profile.server_overhead * self._ovh +
                       self.profile.marshal_cost(out.copied_bytes))
            endpoint.send(proc, payload, self.wire.message_size(payload))
        finally:
            if mon is not None:
                copied = inp.copied_bytes
                referenced = inp.referenced_bytes
                if out is not None:
                    copied += out.copied_bytes
                    referenced += out.referenced_bytes
                mon.on_counter("wire.copied_bytes.corba", float(copied))
                mon.on_counter("wire.referenced_bytes.corba",
                               float(referenced))
                mon.on_consume(body)  # the request's arguments
                if out is not None and expect_reply:
                    # fingerprinted once the send returns: the client
                    # decodes only after its own wake-up cost
                    mon.on_publish(out.getbuffer())
                mon.on_span_end("corba.dispatch")

    def _execute(self, proc: SimProcess, inp: CdrInputStream,
                 request_id: int, key: str, opname: str) -> CdrOutputStream:
        """Run the request; returns a complete reply-body stream.

        The servant executes *before* the reply header is written, so the
        header carries the final status and results are CDR-aligned
        relative to the true body start."""
        wire = self.wire
        status = wire.REPLY_NO_EXCEPTION
        try:
            values = self._dispatch(inp, key, opname)
        except UserExceptionBase as ue:
            status = wire.REPLY_USER_EXCEPTION
            values = [(ue._exception_type, ue)]
        except SystemException as se:
            status = wire.REPLY_SYSTEM_EXCEPTION
            values = _system_exception(se.minor, se.detail)
        except Exception as exc:  # noqa: BLE001 - servant bug → UNKNOWN
            status = wire.REPLY_SYSTEM_EXCEPTION
            values = _system_exception("UNKNOWN",
                                       f"{type(exc).__name__}: {exc}")
        try:
            return self._reply_body(request_id, status, values)
        except CdrError as exc:  # the codec rejects what the servant gave
            what = ("result" if status == wire.REPLY_NO_EXCEPTION
                    else "exception")
            return self._reply_body(
                request_id, wire.REPLY_SYSTEM_EXCEPTION,
                _system_exception("MARSHAL", f"{opname} {what}: {exc}"))

    def _reply_body(self, request_id: int, status: int,
                    values: list[tuple[IdlType, Any]]) -> CdrOutputStream:
        """The one place a reply body is built: header, then ``values``."""
        out = CdrOutputStream(little_endian=self.little_endian,
                              zero_copy=self.profile.zero_copy)
        self.wire.start_reply(out, request_id, status)
        for idl_type, value in values:
            encode_value(out, idl_type, value)
        return out

    def _dispatch(self, inp: CdrInputStream, key: str,
                  opname: str) -> list[tuple[IdlType, Any]]:
        """Decode the arguments and run the operation; returns the typed
        values of a normal reply."""
        if opname == "_non_existent":
            return [(_BOOLEAN, key not in self.poa._servants)]
        servant = self.poa.lookup(key)
        if opname == "_is_a":
            repo, = self._decode_in(inp, opname, [_STRING])
            return [(_BOOLEAN, self._servant_is_a(servant, repo))]
        opdef = self._find_operation(servant._idef, opname)
        args = self._decode_in(inp, opname,
                               [ptype for _p, ptype in opdef.in_params])
        return _result_values(opdef, _call_servant(servant, opdef, args))

    def _decode_in(self, inp: CdrInputStream, opname: str,
                   types: list) -> list:
        """A request's in-arguments; ones that will not decode are
        MARSHAL, like arguments the caller's codec rejects."""
        try:
            return [self._localise(decode_value(inp, t), t) for t in types]
        except CdrError as exc:
            raise SystemException(
                "MARSHAL", f"{opname} arguments: {exc}") from exc

    @staticmethod
    def _servant_is_a(servant: Servant, repo: str) -> bool:
        idef = servant._idef
        if idef is None:
            return False
        if idef.repo_id == repo:
            return True
        return any(repo == f"IDL:{b.replace('::', '/')}:1.0"
                   for b in idef.bases)

    @staticmethod
    def _find_operation(idef: InterfaceDef | None,
                        opname: str) -> OperationDef:
        if idef is None:
            raise SystemException("NO_IMPLEMENT", "untyped servant")
        if opname in idef.operations:
            return idef.operations[opname]
        if opname.startswith("_get_"):
            attr = idef.attributes.get(opname[5:])
            if attr is not None:
                return OperationDef(opname, attr.type, [])
        if opname.startswith("_set_"):
            attr = idef.attributes.get(opname[5:])
            if attr is not None and not attr.readonly:
                return OperationDef(opname, VOID,
                                    [("value", "in", attr.type)])
        raise SystemException("BAD_OPERATION",
                              f"{idef.scoped_name} has no {opname!r}")


def _result_values(opdef: OperationDef,
                   result: Any) -> list[tuple[IdlType, Any]]:
    """A servant's return value as the typed values of its reply: the
    return value, then the out parameters.  An operation with one of
    them (or none: ``void``, which the codec holds to ``None``) returns
    it bare, one with more returns a tuple."""
    types = [ptype for _p, ptype in opdef.out_params]
    if not types or not isinstance(opdef.return_type, VoidType):
        types.insert(0, opdef.return_type)
    if len(types) == 1:
        return [(types[0], result)]
    if not isinstance(result, tuple) or len(result) != len(types):
        raise SystemException(
            "MARSHAL", f"{opdef.name} must return a {len(types)}-"
            f"tuple (return value + out parameters)")
    return list(zip(types, result))


def _system_exception(minor: str,
                      detail: str) -> list[tuple[IdlType, Any]]:
    return [(_STRING, minor), (_STRING, detail)]


def _call_servant(servant: Servant, opdef: OperationDef,
                  args: list) -> Any:
    if opdef.name.startswith("_get_") and opdef.name[5:] in (
            servant._idef.attributes if servant._idef else {}):
        return getattr(servant, opdef.name[5:])
    if opdef.name.startswith("_set_") and opdef.name[5:] in (
            servant._idef.attributes if servant._idef else {}):
        setattr(servant, opdef.name[5:], args[0])
        return None
    method = getattr(servant, opdef.name, None)
    if method is None:
        raise SystemException(
            "NO_IMPLEMENT",
            f"{type(servant).__name__} does not implement {opdef.name!r}")
    return method(*args)


def _make_stub_class(idef: InterfaceDef) -> type:
    """Generate the client stub class for an interface."""
    namespace: dict[str, Any] = {"_idef": idef}

    def make_method(opdef: OperationDef):
        def method(self: ObjectRef, *args: Any) -> Any:
            return self._invoke(opdef, args)

        method.__name__ = opdef.name
        method.__doc__ = (f"IDL operation {idef.scoped_name}::{opdef.name}"
                          f"({', '.join(n for n, _d, _t in opdef.params)})")
        return method

    for opdef in idef.operations.values():
        namespace[opdef.name] = make_method(opdef)

    for attr in idef.attributes.values():
        getter_op = OperationDef(f"_get_{attr.name}", attr.type, [])

        def getter(self: ObjectRef, _op=getter_op) -> Any:
            return self._invoke(_op, ())

        if attr.readonly:
            namespace[attr.name] = property(getter)
        else:
            setter_op = OperationDef(f"_set_{attr.name}", VOID,
                                     [("value", "in", attr.type)])

            def setter(self: ObjectRef, value: Any,
                       _op=setter_op) -> None:
                self._invoke(_op, (value,))

            namespace[attr.name] = property(getter, setter)

    return type(f"{idef.name}Stub", (ObjectRef,), namespace)
