"""MPI communicator: point-to-point and collective operations.

A :class:`Comm` is bound to one rank of a Circuit and to the simulated
thread that runs that rank (see :func:`repro.mpi.world.spmd`).  Message
envelopes are ``(context, tag, body)`` tuples; contexts isolate
communicators (and each collective call) from each other, so overlapping
traffic can never be mis-matched.

Every message takes one path: the channel pair ``_send`` / ``_recv``
(group circuit, or a site's subcircuit for intra-site edges), where
ranks are checked and :data:`PROC_NULL` completes at once; the codec
``_pickle`` / ``_decode``; ``_deliver``, the one copy of a buffer
message into the receiver's array (a body of the wrong kind, count or
type raises :class:`MpiError`); and ``_start``, which runs a blocking
body on a helper thread for the nonblocking calls — the helper is the
:class:`Request`, whose ``wait()`` returns its result or raises its error.

Cost model (charged to the virtual clock):

- lowercase/pickle path: ``len(pickle) * PICKLE_BYTE_COST`` CPU seconds
  on each side (the serialisation copy);
- uppercase/buffer path: no software copy — the zero-copy Madeleine DMA
  path, which is what lets MPI saturate Myrinet in Figure 7;
- wire time and per-message overheads are charged by the Circuit layer.

Collectives are *topology aware* (MPICH-G2 style, see
:mod:`repro.mpi.coll`) and there is one schedule for each: a binomial
stage over the caller's site under a per-site leader, and a stage over
the leaders, the only ranks that cross the WAN — a binomial tree for a
rooted operation, one symmetric exchange for ``barrier``, ``allgather``
and ``allreduce``.  Intra-site edges ride a per-site subcircuit whose
fabric the PadicoTM selector picks (the site SAN on a grid).  A
single-site group runs the same code over a one-block site map: the
leaders stage has one participant, and what remains is the classic
rank-order binomial tree.  Every communicator keeps WAN-crossing/byte
counters (:attr:`Comm.coll_stats`) and, when a monitor is attached,
emits the ``mpi.wan_crossings`` / ``mpi.wan_bytes.<op>`` obs counters.

Wall-clock protocol selection (Madeleine-style, virtual clock
unaffected): outgoing buffers below :data:`RENDEZVOUS_THRESHOLD` are
staged through an eager copy, so the caller may reuse its buffer the
moment the send returns; buffers at or above it ride the rendezvous
path — the message references the caller's memory, which must stay
unmutated until the matching receive has completed.  That is a known
deviation from MPI, tracked as ROADMAP item 4: a blocking MPI send
returns only once its buffer may be reused, and here a rendezvous
``Send`` (or ``Bcast``, or an ``Isend``'s ``wait()``) returns before the
receiver has copied it.  sim-san's publish-window watch reports a
write in that window.  Both disciplines are metered through the
``wire.copied_bytes.mpi`` / ``wire.referenced_bytes.mpi`` obs counters,
as is the delivery copy into the receiver's buffer.
"""

from __future__ import annotations

import functools
import pickle
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro.mpi.coll import CollShared, CollStats, SiteMap, shared_state
from repro.mpi.ops import ReduceOp
from repro.mpi.request import Request
from repro.padicotm.abstraction.circuit import ANY_SOURCE as _CIRCUIT_ANY
from repro.padicotm.abstraction.circuit import Circuit
from repro.sim.kernel import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

#: wildcard receive selectors (mpi4py names)
ANY_SOURCE = -1
ANY_TAG = -1
#: the null peer (a non-periodic boundary): send, receive and probe
#: complete at once, with no traffic and an empty envelope
PROC_NULL = -2

#: CPU cost of the pickle serialisation copy, seconds per byte (~500 MB/s,
#: generous for a 1 GHz Pentium III but it keeps the pickle path visibly
#: slower than the zero-copy buffer path).
PICKLE_BYTE_COST = 2.0e-9

#: eager/rendezvous cutover for the buffer path: sends below this size
#: are staged through an eager copy (buffer reusable immediately);
#: larger sends reference the caller's buffer until the matching
#: receive completes — Madeleine's large-message rendezvous protocol.
RENDEZVOUS_THRESHOLD = 64 * 1024


class MpiError(RuntimeError):
    """MPI usage or transport error."""


def _decode_charge(envelope: tuple) -> float | None:
    """What :meth:`Comm._decode` charges for an envelope's body: the
    deserialisation copy of a pickled one, nothing for a buffer."""
    kind, data = envelope[2]
    return len(data) * PICKLE_BYTE_COST if kind == "p" else None


def _collective(op: str) -> Callable:
    """Wrap a collective in an ``mpi.<op>`` observability span.

    Pure bookkeeping when a monitor is attached, nothing at all when
    none is — the decorated body runs unchanged either way.
    """
    def deco(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: "Comm", *args: Any, **kwargs: Any) -> Any:
            mon = self._monitor()
            if mon is None:
                return fn(self, *args, **kwargs)
            mon.on_span_start(f"mpi.{op}", cat="middleware",
                              rank=self._rank, size=self.size)
            try:
                return fn(self, *args, **kwargs)
            finally:
                mon.on_span_end(f"mpi.{op}")
        return wrapper
    return deco


class Status:
    """Receive status: envelope information of a matched message."""

    def __init__(self) -> None:
        self.source: int = ANY_SOURCE
        self.tag: int = ANY_TAG
        self.count: float = 0.0

    def Get_source(self) -> int:
        return self.source

    def Get_tag(self) -> int:
        return self.tag

    def Get_count(self) -> float:
        return self.count


class Comm:
    """An MPI communicator bound to one rank.

    Created through :func:`repro.mpi.world.create_world`; user code
    receives it already bound to the simulated thread of its rank.
    """

    def __init__(self, circuit: Circuit, group: list[int], rank: int,
                 context: str):
        self._circuit = circuit
        self._group = group           # group index -> circuit rank
        self._rank = rank             # my index within the group
        self._context = context
        self._coll_seq = 0
        self._proc: SimProcess | None = None
        self._shared_memo: CollShared | None = None

    # ------------------------------------------------------------------
    # binding & identity
    # ------------------------------------------------------------------
    def bind(self, proc: SimProcess) -> "Comm":
        """Attach this communicator to the simulated thread of its rank."""
        self._proc = proc
        return self

    @property
    def proc(self) -> SimProcess:
        if self._proc is None:
            raise MpiError("communicator not bound to a thread; "
                           "run ranks through repro.mpi.spmd()")
        return self._proc

    @property
    def kernel(self):
        return self._circuit.runtime.kernel

    @property
    def process(self) -> "PadicoProcess":
        return self._circuit.members[self._group[self._rank]]

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return len(self._group)

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self.size

    def Get_processor_name(self) -> str:
        return self.process.host.name

    def Wtime(self) -> float:
        return self.kernel.now

    def _monitor(self) -> Any:
        return self._circuit.runtime.monitor

    def _stage(self, arr: np.ndarray) -> np.ndarray:
        """Eager/rendezvous protocol selection for an outgoing buffer.

        Below :data:`RENDEZVOUS_THRESHOLD` the buffer is copied
        (eager — the caller may scribble on it right away); at or above
        it the message references the caller's memory (rendezvous).
        Pure wall-clock behaviour: the virtual clock never charges for
        this copy either way."""
        mon = self._monitor()
        if arr.nbytes >= RENDEZVOUS_THRESHOLD:
            if mon is not None:
                mon.on_counter("wire.referenced_bytes.mpi",
                               float(arr.nbytes))
                mon.on_publish(arr)
            return arr
        if mon is not None:
            mon.on_counter("wire.copied_bytes.mpi", float(arr.nbytes))
        return arr.copy()

    def _count_delivery(self, nbytes: int, data: np.ndarray) -> None:
        """Meter the copy of message ``data`` into the receiver's buffer."""
        mon = self._monitor()
        if mon is not None:
            mon.on_counter("wire.copied_bytes.mpi", float(nbytes))
            mon.on_consume(data)

    def __repr__(self) -> str:
        return (f"<Comm rank {self._rank}/{self.size} "
                f"ctx={self._context!r}>")

    # ------------------------------------------------------------------
    # contexts & topology-aware routing (see repro.mpi.coll)
    # ------------------------------------------------------------------
    def _p2p_context(self) -> str:
        return f"{self._context}|p2p"

    def _coll_context(self, opname: str) -> str:
        """A fresh context per collective call.

        SPMD discipline means every rank issues collectives in the same
        order, so per-rank sequence numbers agree."""
        ctx = f"{self._context}|coll{self._coll_seq}|{opname}"
        self._coll_seq += 1
        return ctx

    def _shared(self) -> CollShared:
        if self._shared_memo is None:
            self._shared_memo = shared_state(
                self._circuit, self._group, self._context)
        return self._shared_memo

    @property
    def coll_stats(self) -> CollStats:
        """Per-communicator WAN crossing/byte counters (shared across
        all ranks of this communicator)."""
        return self._shared().stats

    @property
    def coll_aware(self) -> bool:
        """True when the group spans more than one site, so collectives
        have a WAN to keep off."""
        return self._shared().sitemap.multi_site

    # ------------------------------------------------------------------
    # the message path: one channel pair, one codec, one delivery
    # ------------------------------------------------------------------
    def _channel(self, local: bool) -> tuple[Circuit, Sequence[Any]]:
        """The circuit an edge rides and its rank of each group rank:
        the group circuit, or (``local``) my site's subcircuit."""
        if not local:
            return self._circuit, self._group
        shared = self._shared()
        return shared.site_channel(shared.sitemap.site_of[self._rank])

    def _peer(self, rank: int, ranks: Sequence[Any], role: str) -> int:
        """The channel rank of group rank ``rank``: ``ANY_SOURCE`` passes
        through as a source, any other rank outside the group raises."""
        if rank == ANY_SOURCE and role == "source":
            return _CIRCUIT_ANY
        if not 0 <= rank < self.size:
            raise MpiError(f"{role} rank {rank} out of range "
                           f"(size {self.size})")
        return ranks[rank]

    @staticmethod
    def _matcher(ctx: str, tag: int) -> Callable[[tuple], bool]:
        """The envelope predicate: context ``ctx`` and tag ``tag``
        (any tag for ``ANY_TAG``)."""
        return lambda env: env[0] == ctx and (tag == ANY_TAG or env[1] == tag)

    def _send(self, proc: SimProcess, dest: int, tag: int, body: Any,
              nbytes: float, ctx: str, op: str | None = None,
              local: bool = False) -> None:
        """Send one envelope to group rank ``dest``.

        ``local=True`` (an edge inside a site, where the matching
        receive agrees) rides the site subcircuit; any other edge rides
        the group circuit, and a collective's edge (``op`` given) that
        crosses sites is counted against the communicator's WAN stats."""
        if dest == PROC_NULL:
            return
        circuit, ranks = self._channel(local)
        cdest = self._peer(dest, ranks, "destination")
        if op is not None and not local:
            shared = self._shared()
            site_of = shared.sitemap.site_of
            if site_of[self._rank] != site_of[dest]:
                shared.stats.count(op, nbytes)
                mon = self._monitor()
                if mon is not None:
                    mon.on_counter("mpi.wan_crossings", 1.0)
                    mon.on_counter(f"mpi.wan_bytes.{op}", float(nbytes))
        circuit.send(proc, ranks[self._rank], cdest, (ctx, tag, body),
                     nbytes)

    def _recv(self, proc: SimProcess, source: int, tag: int, ctx: str,
              local: bool = False,
              decode: bool = False) -> tuple[int, int, Any, float]:
        """Receive one envelope → ``(source, tag, body, nbytes)``, the
        source as a group rank.  Routing mirrors :meth:`_send`
        (``local=True`` with ``ANY_SOURCE`` matches any same-site sender
        on the subcircuit).  ``decode=True`` returns the object the body
        carries, as :meth:`_decode` would, its deserialisation charged
        in the receive leg's block."""
        if source == PROC_NULL:
            return PROC_NULL, ANY_TAG, None, 0.0
        circuit, ranks = self._channel(local)
        src, (_ctx, mtag, body), n = circuit.recv(
            proc, ranks[self._rank],
            source=self._peer(source, ranks, "source"),
            where=self._matcher(ctx, tag),
            charge=_decode_charge if decode else None)
        if decode:
            kind, body = body
            if kind == "p":
                body = pickle.loads(body)
        return ranks.index(src), mtag, body, n

    @staticmethod
    def _fill(status: Status | None, source: int, tag: int,
              count: float) -> None:
        if status is not None:
            status.source, status.tag, status.count = source, tag, count

    def _pickle(self, proc: SimProcess, obj: Any) -> bytes:
        """Pickle ``obj``, charging ``proc`` the serialisation copy."""
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        proc.sleep(len(data) * PICKLE_BYTE_COST)
        return data

    def _decode(self, proc: SimProcess, body: tuple[str, Any]) -> Any:
        """The object a message body carries; a pickled body charges
        ``proc`` the deserialisation copy."""
        kind, data = body
        if kind != "p":
            return data
        proc.sleep(len(data) * PICKLE_BYTE_COST)
        return pickle.loads(data)

    @staticmethod
    def _decode_all(proc: SimProcess, datas: list[bytes]) -> list[Any]:
        """Unpickle a bundle's raw bodies: each its own deserialisation
        charge, as :meth:`_decode` would make them one by one, but one
        block for the whole bundle."""
        if datas:
            proc.sleep(*[len(data) * PICKLE_BYTE_COST for data in datas])
        return [pickle.loads(data) for data in datas]

    def _deliver(self, out: np.ndarray, body: tuple[str, Any],
                 op: str) -> None:
        """Copy a buffer message into the receiver's ``out``.

        A pickled body, a different element count, or element values
        ``out`` cannot take (numpy's ``same_kind`` casting) raise
        :class:`MpiError` before anything is written."""
        kind, data = body
        if kind != "b":
            raise MpiError(f"{op} matched a pickled message; use the "
                           f"lowercase call")
        out = np.asarray(out)
        if data.size != out.size or not np.can_cast(data.dtype, out.dtype,
                                                    "same_kind"):
            raise MpiError(f"{op}: a receive buffer of {out.size} × "
                           f"{out.dtype} cannot take a message of "
                           f"{data.size} × {data.dtype}")
        np.copyto(out, data.reshape(out.shape))
        self._count_delivery(out.nbytes, data)

    def _start(self, name: str, fn: Callable[[SimProcess], Any]) -> Request:
        """Run ``fn`` on a helper thread (a Marcel thread in the real
        runtime) named ``name``; the helper's outcome is the request's."""
        return Request(self, self.process.spawn(fn, name=name, daemon=True))

    # ------------------------------------------------------------------
    # point-to-point: pickle path (lowercase)
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking send of a pickled Python object."""
        data = self._pickle(self.proc, obj)
        self._send(self.proc, dest, tag, ("p", data), len(data),
                   self._p2p_context())

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             status: Status | None = None) -> Any:
        """Blocking receive of a pickled Python object."""
        return self._recv_obj(self.proc, source, tag, self._p2p_context(),
                              status)

    def _recv_obj(self, proc: SimProcess, source: int, tag: int, ctx: str,
                  status: Status | None = None) -> Any:
        src, mtag, obj, n = self._recv(proc, source, tag, ctx, decode=True)
        self._fill(status, src, mtag, n)
        return obj

    # ------------------------------------------------------------------
    # point-to-point: buffer path (uppercase, zero-copy)
    # ------------------------------------------------------------------
    def Send(self, buf: np.ndarray, dest: int, tag: int = 0) -> None:
        """Blocking send of a numpy buffer on the zero-copy path.

        Small sends are eager (the buffer is reusable immediately);
        sends of :data:`RENDEZVOUS_THRESHOLD` bytes or more reference
        the caller's buffer, which must stay unmutated until the
        receiver has completed the matching receive.  MPI's blocking
        send promises the opposite — the buffer is reusable when it
        returns — so this is a known deviation (ROADMAP item 4), not a
        contract."""
        arr = np.ascontiguousarray(buf)
        self._send(self.proc, dest, tag, ("b", self._stage(arr)),
                   arr.nbytes, self._p2p_context())

    def Recv(self, buf: np.ndarray, source: int = ANY_SOURCE,
             tag: int = ANY_TAG, status: Status | None = None) -> None:
        """Blocking receive into a caller-provided numpy buffer."""
        self._recv_into(self.proc, buf, source, tag, self._p2p_context(),
                        "Recv", status)

    def _recv_into(self, proc: SimProcess, buf: np.ndarray, source: int,
                   tag: int, ctx: str, op: str,
                   status: Status | None = None) -> None:
        src, mtag, body, n = self._recv(proc, source, tag, ctx)
        if src != PROC_NULL:
            self._deliver(buf, body, op)
        self._fill(status, src, mtag, n)

    # ------------------------------------------------------------------
    # nonblocking: the blocking bodies on a helper thread
    # ------------------------------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Nonblocking pickled send; the object is pickled at the call,
        the serialisation cost is charged to the helper."""
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        ctx = self._p2p_context()

        def run(p: SimProcess) -> None:
            p.sleep(len(data) * PICKLE_BYTE_COST)
            self._send(p, dest, tag, ("p", data), len(data), ctx)

        return self._start("mpi-isend", run)

    def Isend(self, buf: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Nonblocking buffer send."""
        # MPI nonblocking semantics already forbid touching the buffer
        # before wait(), so the rendezvous reference is always safe here
        arr = self._stage(np.ascontiguousarray(buf))
        ctx = self._p2p_context()
        return self._start("mpi-Isend", lambda p: self._send(
            p, dest, tag, ("b", arr), arr.nbytes, ctx))

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking pickled receive; ``wait()`` returns the object."""
        ctx = self._p2p_context()
        return self._start("mpi-irecv", lambda p: self._recv_obj(
            p, source, tag, ctx))

    def Irecv(self, buf: np.ndarray, source: int = ANY_SOURCE,
              tag: int = ANY_TAG) -> Request:
        """Nonblocking buffer receive into ``buf``."""
        ctx = self._p2p_context()
        return self._start("mpi-Irecv", lambda p: self._recv_into(
            p, buf, source, tag, ctx, "Irecv"))

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG) -> Any:
        """Combined send+receive (deadlock-free by construction)."""
        req = self.isend(obj, dest, sendtag)
        got = self.recv(source, recvtag)
        req.wait()
        return got

    @_collective("Scatterv")
    def Scatterv(self, sendbuf: np.ndarray | None,
                 counts: Sequence[int] | None, recvbuf: np.ndarray,
                 root: int = 0) -> None:
        """Variable-count scatter of a numpy buffer.

        ``counts[i]`` elements go to rank i; displacements are the
        running sum (contiguous layout, the common case)."""
        ctx = self._coll_context("Scatterv")
        if self._rank != root:
            _s, _t, body, _n = self._recv(self.proc, root, 9, ctx)
            self._deliver(recvbuf, body, "Scatterv")
            return
        if sendbuf is None or counts is None or len(counts) != self.size:
            raise MpiError(f"root must supply sendbuf and exactly "
                           f"{self.size} counts")
        flat = np.ascontiguousarray(sendbuf).ravel()
        if sum(counts) != flat.size:
            raise MpiError(f"counts sum to {sum(counts)} but sendbuf "
                           f"has {flat.size} elements")
        offset = 0
        for dst, count in enumerate(counts):
            part = flat[offset:offset + count]
            offset += count
            if dst == root:
                mine = part
            else:
                self._send(self.proc, dst, 9, ("b", self._stage(part)),
                           part.nbytes, ctx, "Scatterv")
        self._deliver(recvbuf, ("b", mine), "Scatterv")

    @_collective("Gatherv")
    def Gatherv(self, sendbuf: np.ndarray,
                recvbuf: np.ndarray | None,
                counts: Sequence[int] | None, root: int = 0) -> None:
        """Variable-count gather into a contiguous buffer at ``root``."""
        ctx = self._coll_context("Gatherv")
        part = np.ascontiguousarray(sendbuf).ravel()
        if self._rank != root:
            self._send(self.proc, root, 10, ("b", self._stage(part)),
                       part.nbytes, ctx, "Gatherv")
            return
        if recvbuf is None or counts is None or len(counts) != self.size:
            raise MpiError(f"root must supply recvbuf and exactly "
                           f"{self.size} counts")
        flat = np.asarray(recvbuf).ravel()
        if sum(counts) != flat.size:
            raise MpiError(f"counts sum to {sum(counts)} but recvbuf "
                           f"has {flat.size} elements")
        offsets = np.concatenate(([0], np.cumsum(counts)))
        self._deliver(flat[offsets[root]:offsets[root + 1]], ("b", part),
                      "Gatherv")
        for _ in range(self.size - 1):
            src, _t, body, _n = self._recv(self.proc, ANY_SOURCE, 10, ctx)
            self._deliver(flat[offsets[src]:offsets[src + 1]], body,
                          "Gatherv")

    # ------------------------------------------------------------------
    # probing
    # ------------------------------------------------------------------
    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              status: Status | None = None) -> None:
        """Block until a matching message is pending, without receiving
        it (MPI_Probe); fills ``status`` with the pending envelope."""
        if source == PROC_NULL:
            self._fill(status, PROC_NULL, ANY_TAG, 0.0)
            return
        src, payload, n = self._circuit.wait_message(
            self.proc, self._group[self._rank],
            source=self._peer(source, self._group, "source"),
            where=self._matcher(self._p2p_context(), tag))
        self._fill(status, self._group.index(src), payload[1], n)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking check for a matching pending message."""
        if source == PROC_NULL:
            return True
        return self._circuit.poll(
            self._group[self._rank],
            source=self._peer(source, self._group, "source"),
            where=self._matcher(self._p2p_context(), tag))

    # ------------------------------------------------------------------
    # collective tree primitives
    #
    # The _seq_* helpers run a binomial schedule over an explicit
    # participant list (global ranks) rooted at ``parts[rootpos]``.
    # Every collective uses them twice: once over the caller's block of
    # the site map (``local`` edges ride the site subcircuit) and once
    # over the per-block leaders (WAN edges, counted).
    # ------------------------------------------------------------------
    def _seq_bcast(self, parts: list[int], rootpos: int, body: Any,
                   nbytes: float, tag: int, ctx: str, op: str,
                   local: bool, decode: bool = False) -> tuple[Any, float]:
        """Each participant receives once (from its parent in the
        virtual-rank tree), then forwards down.  ``decode=True`` returns
        the object the body carries in place of the body: a leaf — a
        rank that forwards nothing — decodes in its receive leg's block,
        any other rank once it has forwarded."""
        k = len(parts)
        v = (parts.index(self._rank) - rootpos) % k
        mask = 1
        while mask < k:
            if v < mask:
                if v + mask < k:
                    dst = parts[(v + mask + rootpos) % k]
                    self._send(self.proc, dst, tag, body, nbytes, ctx,
                               op, local=local)
            elif v < mask << 1:
                src = parts[(v - mask + rootpos) % k]
                # the first child would be v + 2·mask
                leaf = decode and v + (mask << 1) >= k
                _s, _t, body, nbytes = self._recv(self.proc, src, tag,
                                                  ctx, local=local,
                                                  decode=leaf)
                if leaf:
                    return body, nbytes
            mask <<= 1
        if decode:
            body = self._decode(self.proc, body)
        return body, nbytes

    def _seq_gather_signal(self, parts: list[int], rootpos: int, tag: int,
                           ctx: str, op: str, local: bool) -> None:
        k = len(parts)
        v = (parts.index(self._rank) - rootpos) % k
        mask = 1
        while mask < k:
            if v & mask:
                dst = parts[(v - mask + rootpos) % k]
                self._send(self.proc, dst, tag, ("p", b""), 0, ctx, op,
                           local=local)
                break
            if v + mask < k:
                src = parts[(v + mask + rootpos) % k]
                self._recv(self.proc, src, tag, ctx, local=local)
            mask <<= 1

    def _pack(self, acc: Any, buffered: bool) -> tuple[Any, float]:
        """``(body, bytes)`` of a reduction operand (pickling is charged)."""
        if buffered:
            return ("b", acc), acc.nbytes
        data = self._pickle(self.proc, acc)
        return ("p", data), len(data)

    def _seq_reduce(self, parts: list[int], rootpos: int, value: Any,
                    redop: ReduceOp, tag: int, ctx: str, op: str,
                    local: bool, buffered: bool) -> Any:
        """Binomial reduction over ``parts``; combines child-first so
        operands associate in participant order (result meaningful only
        at ``parts[rootpos]``)."""
        k = len(parts)
        v = (parts.index(self._rank) - rootpos) % k
        acc = value
        mask = 1
        while mask < k:
            if v & mask:
                dst = parts[(v - mask + rootpos) % k]
                self._send(self.proc, dst, tag, *self._pack(acc, buffered),
                           ctx, op, local=local)
                break
            if v + mask < k:
                src = parts[(v + mask + rootpos) % k]
                _s, _t, other, _n = self._recv(self.proc, src, tag, ctx,
                                               local=local, decode=True)
                acc = redop(acc, other)
            mask <<= 1
        return acc

    def _seq_allreduce(self, parts: list[int], acc: Any, redop: ReduceOp,
                       tag: int, ctx: str, op: str, buffered: bool) -> Any:
        """Recursive doubling over ``parts``: everyone ends with the
        fold of all values in participant order.  A pair puts its lower
        side on the left, so both partners compute the identical partial
        (only associativity is assumed).  A count that is not a power of
        two first folds ``parts[2j + 1]`` into ``parts[2j]`` for its
        lowest ``k − p`` pairs; the odd one gets the result back last."""
        def send(j: int, acc: Any) -> None:
            self._send(self.proc, parts[j], tag,
                       *self._pack(acc, buffered), ctx, op)

        def recv(j: int) -> Any:
            return self._recv(self.proc, parts[j], tag, ctx,
                              decode=True)[2]

        k, i = len(parts), parts.index(self._rank)
        p = 1 << (k.bit_length() - 1)
        r = k - p
        if i < 2 * r:
            if i & 1:
                send(i - 1, acc)
                return recv(i - 1)
            acc = redop(acc, recv(i + 1))
        v = i // 2 if i < 2 * r else i - r
        mask = 1
        while mask < p:
            w = v ^ mask
            peer = 2 * w if w < r else w + r
            send(peer, acc)
            other = recv(peer)
            acc = redop(other, acc) if w < v else redop(acc, other)
            mask <<= 1
        if i < 2 * r:
            send(i + 1, acc)
        return acc

    def _sitemap(self, root: int, ordered: bool) -> SiteMap:
        """The site map a collective rooted at ``root`` runs over.

        ``ordered`` (reductions): the binomial tree combines operands
        child-first in root-rotated rank order, and per-site
        pre-reduction preserves that order for non-commutative ops only
        when sites partition the ranks into contiguous blocks and the
        root leads its block.  Any other layout reduces over the whole
        group as one block (associativity is still assumed, as in any
        tree reduction)."""
        shared = self._shared()
        sm = shared.sitemap
        if ordered and not (sm.contiguous
                            and sm.members[sm.site_of[root]][0] == root):
            return shared.one_block
        return sm

    def _hier(self, root: int, ordered: bool = False
              ) -> tuple[SiteMap, list[int], int, bool]:
        """Two-level shape of a collective rooted at ``root``: ``(site
        map, my block, my block's leader, local)``.

        ``local`` — do the block's edges ride its site subcircuit? —
        follows the map in use, not the communicator: only a map with
        several blocks has sites for blocks.  A one-block map spans
        whatever the group spans, so its edges ride the group circuit,
        where :meth:`_send` counts the ones that cross sites."""
        sm = self._sitemap(root, ordered)
        si = sm.site_of[self._rank]
        return sm, sm.members[si], sm.leader(si, root), sm.multi_site

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    @_collective("barrier")
    def barrier(self) -> None:
        """Binomial fence under each site's leader, an exchange of
        nothing among the leaders, binomial release by each leader.

        On one site that is gather-to-0 then release (MPICH style):
        2·ceil(log2(size)) message hops on the critical path — the term
        the paper's Figure-8 latency column grows by with node count.
        Sites add ceil(log2(sites)) WAN hops and release in parallel.
        """
        ctx = self._coll_context("barrier")
        sm, members, leader, local = self._hier(0)
        lpos = members.index(leader)
        self._seq_gather_signal(members, lpos, 22, ctx, "barrier",
                                local=local)
        if self._rank == leader:
            self._leaders_exchange(sm, [], ctx, "barrier")
        self._seq_bcast(members, lpos, ("p", b""), 0.0, 25, ctx,
                        "barrier", local=local)

    Barrier = barrier

    @_collective("bcast")
    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast of a pickled object (leader-relayed:
        exactly sites−1 WAN crossings)."""
        ctx = self._coll_context("bcast")
        body, n = None, 0.0
        if self._rank == root:
            data = self._pickle(self.proc, obj)
            body, n = ("p", data), float(len(data))
        return self._bcast_body(body, n, root, ctx, "bcast",
                                decode=True)[0]

    @_collective("Bcast")
    def Bcast(self, buf: np.ndarray, root: int = 0) -> None:
        """Binomial-tree broadcast of a numpy buffer, in place.

        Like :meth:`Send`: a buffer of :data:`RENDEZVOUS_THRESHOLD`
        bytes or more is referenced, not copied, so the root's buffer
        must stay unmutated until every receiver has copied it — the
        root's return does not mean that (fence with a barrier)."""
        ctx = self._coll_context("Bcast")
        body, n = None, 0.0
        if self._rank == root:
            # rendezvous contract for large broadcasts: the root buffer
            # must stay unmutated until every rank's delivery copy —
            # tree forwarding (leaders included) passes the same
            # reference down unchanged, so the hierarchy stays
            # reference-only end-to-end
            arr = np.ascontiguousarray(buf)
            body, n = ("b", self._stage(arr)), float(arr.nbytes)
        body, _n = self._bcast_body(body, n, root, ctx, "Bcast")
        if self._rank != root:
            self._deliver(buf, body, "Bcast")

    def _bcast_body(self, body: Any, nbytes: float, root: int, ctx: str,
                    op: str, held: bool = False,
                    decode: bool = False) -> tuple[Any, float]:
        """Route a broadcast body: WAN tree over the leaders (skipped
        when they all hold it, ``held``), then a tree inside each site
        (which decodes it, ``decode``: see :meth:`_seq_bcast`)."""
        sm, members, leader, local = self._hier(root)
        if self._rank == leader and not held:
            body, nbytes = self._seq_bcast(
                sm.leaders(root), sm.site_of[root], body, nbytes, 20,
                ctx, op, local=False)
        return self._seq_bcast(members, members.index(leader), body,
                               nbytes, 21, ctx, op, local=local,
                               decode=decode)

    def _leaders_exchange(self, sm: SiteMap, mine: list, ctx: str,
                          op: str) -> list:
        """A Bruck exchange of per-site ``(rank, raw body)`` bundles
        among the leaders: ceil(log2(sites)) steps, sites − 1 bundles
        through each uplink.  Returns every entry, in rank order."""
        leaders, i, s = sm.leaders(0), sm.site_of[self._rank], sm.nsites
        blocks = [mine]  # blocks[j] is the bundle of site (i + j) mod s
        while (dist := len(blocks)) < s:
            part = blocks[:s - dist]
            self._send(self.proc, leaders[i - dist], 27, ("rl", part),
                       sum(len(d) for b in part for _r, d in b), ctx, op)
            _s, _t, got, _n = self._recv(
                self.proc, leaders[(i + dist) % s], 27, ctx)
            blocks += got[1]
        return sorted(e for b in blocks for e in b)

    def _block_bodies(self, members: list[int], data: bytes, ctx: str,
                      local: bool) -> list[tuple[int, bytes]]:
        """Leader side of a gather: ``(rank, raw pickled body)`` for my
        whole block, mine included, in rank order."""
        entries = [(self._rank, data)]
        for _ in range(len(members) - 1):
            src, _t, body, _n = self._recv(self.proc, ANY_SOURCE, 26, ctx,
                                           local=local)
            entries.append((src, body[1]))
        entries.sort()
        return entries

    def _forward_body(self, data: bytes, root: int, members: list[int],
                      leader: int, ctx: str, op: str, local: bool) -> None:
        """Non-root side of a gather: my raw body goes to my leader;
        the leader forwards its block to the root as one bundle (one WAN
        crossing per remote site, carrying only that site's bytes)."""
        if self._rank != leader:
            self._send(self.proc, leader, 26, ("p", data), len(data), ctx,
                       op, local=local)
            return
        entries = self._block_bodies(members, data, ctx, local)
        total = sum(len(d) for _r, d in entries)
        self._send(self.proc, root, 27, ("rl", entries), total, ctx, op)

    @_collective("gather")
    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather pickled objects to ``root`` (rank order preserved).

        Raw pickled bodies are collected under each site leader first,
        then forwarded to the root as one bundle per remote site
        (sites−1 WAN crossings); the root alone pays the unpickle cost,
        once per contribution."""
        ctx = self._coll_context("gather")
        sm, members, leader, local = self._hier(root)
        if self._rank != root:
            self._forward_body(self._pickle(self.proc, obj), root, members,
                               leader, ctx, "gather", local)
            return None
        out: list[Any] = [None] * self.size
        out[root] = obj
        for _ in range(len(members) - 1):
            src, _t, value, _n = self._recv(self.proc, ANY_SOURCE, 26, ctx,
                                            local=local, decode=True)
            out[src] = value
        for _ in range(sm.nsites - 1):
            _s, _t, body, _n = self._recv(self.proc, ANY_SOURCE, 27, ctx)
            values = self._decode_all(self.proc, [d for _r, d in body[1]])
            for (src, _d), value in zip(body[1], values):
                out[src] = value
        return out

    @_collective("scatter")
    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter one object per rank from ``root``.

        The root pickles every part up front and charges the
        serialisation cost once (the per-iteration sleep used to
        stretch the send loop), then ships one bundle per remote site
        to its leader, which fans out locally."""
        if self._rank == root and (objs is None or len(objs) != self.size):
            # reject before allocating the collective context so a failed
            # call leaves the context sequence aligned across ranks
            raise MpiError(f"scatter needs exactly {self.size} items "
                           f"at the root")
        ctx = self._coll_context("scatter")
        sm, members, leader, local = self._hier(root)
        if self._rank == root:
            parts = {dst: pickle.dumps(item,
                                       protocol=pickle.HIGHEST_PROTOCOL)
                     for dst, item in enumerate(objs) if dst != root}
            self.proc.sleep(
                sum(len(d) for d in parts.values()) * PICKLE_BYTE_COST)
            for s in range(sm.nsites):
                if s == sm.site_of[root]:
                    for dst in members:
                        if dst != root:
                            self._send(self.proc, dst, 29,
                                       ("p", parts[dst]), len(parts[dst]),
                                       ctx, "scatter", local=local)
                    continue
                bundle = [(dst, parts[dst]) for dst in sm.members[s]]
                total = sum(len(d) for _r, d in bundle)
                self._send(self.proc, sm.leader(s, root), 28,
                           ("rl", bundle), total, ctx, "scatter")
            return objs[root]
        if self._rank == leader:
            _s, _t, body, _n = self._recv(self.proc, root, 28, ctx)
            mine = None
            for dst, data in body[1]:
                if dst == self._rank:
                    mine = data
                else:
                    self._send(self.proc, dst, 29, ("p", data), len(data),
                               ctx, "scatter", local=local)
            return self._decode(self.proc, ("p", mine))
        # on the root's site the root is the leader
        return self._recv(self.proc, leader, 29, ctx, local=local,
                          decode=True)[2]

    @_collective("allgather")
    def allgather(self, obj: Any) -> list[Any]:
        """Raw pickled bodies collect under each site leader, the
        leaders exchange their bundles, every leader broadcasts the
        whole set inside its site.  Bytes are serialised once at their
        source and deserialised once per consumer."""
        ctx = self._coll_context("allgather")
        sm, members, leader, local = self._hier(0)
        data = self._pickle(self.proc, obj)
        body, nbytes = None, 0.0
        if self._rank == leader:
            mine = self._block_bodies(members, data, ctx, local)
            entries = self._leaders_exchange(sm, mine, ctx, "allgather")
            body = ("rl", entries)
            nbytes = float(sum(len(d) for _r, d in entries))
        else:
            self._send(self.proc, leader, 26, ("p", data), len(data), ctx,
                       "allgather", local=local)
        body, _n = self._bcast_body(body, nbytes, 0, ctx, "allgather",
                                    held=True)
        # one entry per rank, in rank order
        return self._decode_all(self.proc, [raw for _r, raw in body[1]])

    @_collective("alltoall")
    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        """Personalised all-to-all exchange.

        Every payload is pickled up front and the serialisation cost
        charged once (hoisted out of the send loop).  Payloads for my
        own site travel directly; the rest is aggregated through the
        two leaders (the source leader merges its site's traffic into
        one message per destination site, the destination leader fans
        out), so size·(size − site size) WAN crossings collapse to
        sites·(sites − 1).  Every walk over destinations starts at the
        walker's successor — ``rank + 1, rank + 2, …`` inside a site,
        ``site + 1, site + 2, …`` between leaders — so no destination
        is hit by all its senders at once."""
        if len(objs) != self.size:
            raise MpiError(f"alltoall needs exactly {self.size} items")
        ctx = self._coll_context("alltoall")
        out: list[Any] = [None] * self.size
        out[self._rank] = objs[self._rank]
        shifts = [(self._rank + s) % self.size
                  for s in range(1, self.size)]
        parts = {dst: pickle.dumps(objs[dst],
                                   protocol=pickle.HIGHEST_PROTOCOL)
                 for dst in shifts}
        self.proc.sleep(
            sum(len(d) for d in parts.values()) * PICKLE_BYTE_COST)
        sm, members, leader, local = self._hier(0)
        si = sm.site_of[self._rank]
        for dst in shifts:
            if sm.site_of[dst] == si:
                self._send(self.proc, dst, 5, ("p", parts[dst]),
                           len(parts[dst]), ctx, "alltoall", local=local)
        relayed: list[tuple[int, bytes]] = []
        if sm.multi_site:  # a single block has no one to relay to or for
            relayed = self._alltoall_relay(parts, sm, members, leader,
                                           ctx, local)
        for _ in range(len(members) - 1):
            src, _t, value, _n = self._recv(self.proc, ANY_SOURCE, 5, ctx,
                                            local=local, decode=True)
            out[src] = value
        values = self._decode_all(self.proc, [data for _s, data in relayed])
        for (src, _d), value in zip(relayed, values):
            out[src] = value
        return out

    def _alltoall_relay(self, parts: dict[int, bytes], sm: SiteMap,
                        members: list[int], leader: int, ctx: str,
                        local: bool) -> list[tuple[int, bytes]]:
        """The inter-site half of :meth:`alltoall`: returns the ``(src,
        raw pickled body)`` pairs other sites addressed to me."""
        si = sm.site_of[self._rank]
        remote = [(si + k) % sm.nsites for k in range(1, sm.nsites)]
        up = [(self._rank, dst, parts[dst])
              for s in remote for dst in sm.members[s]]
        if self._rank != leader:
            self._send(self.proc, leader, 60, ("a2a", up),
                       sum(len(d) for _s, _d, d in up), ctx, "alltoall",
                       local=local)
            _s, _t, body, _n = self._recv(self.proc, leader, 62, ctx,
                                          local=local)
            return body[1]
        for _ in range(len(members) - 1):
            _s, _t, body, _n = self._recv(self.proc, ANY_SOURCE, 60, ctx,
                                          local=local)
            up.extend(body[1])
        outgoing: dict[int, list[tuple[int, int, bytes]]] = \
            {s: [] for s in remote}  # keyed in walk order
        for entry in sorted(up):
            outgoing[sm.site_of[entry[1]]].append(entry)
        for s, entries in outgoing.items():
            self._send(self.proc, sm.leader(s, 0), 61, ("a2a", entries),
                       sum(len(d) for _s, _d, d in entries), ctx,
                       "alltoall")
        deliveries: dict[int, list[tuple[int, bytes]]] = \
            {m: [] for m in members}
        for _ in remote:
            _s, _t, body, _n = self._recv(self.proc, ANY_SOURCE, 61, ctx)
            for src, dst, data in body[1]:
                deliveries[dst].append((src, data))
        for m in members:
            deliveries[m].sort()
            if m != self._rank:
                self._send(self.proc, m, 62, ("a2a", deliveries[m]),
                           sum(len(d) for _r, d in deliveries[m]), ctx,
                           "alltoall", local=local)
        return deliveries[self._rank]

    def _reduce_value(self, value: Any, redop: ReduceOp, root: int,
                      tag: int, ctx: str, op: str, buffered: bool) -> Any:
        """Each block pre-reduces under its leader, then the partials
        combine over a leaders-only tree — sites−1 WAN crossings, each
        carrying one partial (result meaningful only at ``root``)."""
        sm, members, leader, local = self._hier(root, ordered=True)
        acc = self._seq_reduce(members, members.index(leader), value,
                               redop, tag, ctx, op, local=local,
                               buffered=buffered)
        if self._rank == leader:
            acc = self._seq_reduce(sm.leaders(root), sm.site_of[root],
                                   acc, redop, tag + 1, ctx, op,
                                   local=False, buffered=buffered)
        return acc

    @_collective("reduce")
    def reduce(self, obj: Any, op: ReduceOp, root: int = 0) -> Any:
        """Binomial-tree reduction of pickled objects towards ``root``.

        Operands combine in **root-rotated** rank order — ``root,
        root + 1, …, size − 1, 0, …, root − 1`` — not in MPI's
        canonical rank order; only a non-commutative ``op`` at
        ``root != 0`` can tell the difference.  Sites pre-reduce under
        their leaders when that preserves this order (contiguous site
        blocks, block-leading root); otherwise the whole group reduces
        as one block."""
        ctx = self._coll_context("reduce")
        acc = self._reduce_value(obj, op, root, 30, ctx, "reduce",
                                 buffered=False)
        return acc if self._rank == root else None

    def _allreduce_value(self, value: Any, redop: ReduceOp, tag: int,
                         ctx: str, op: str, buffered: bool) -> Any:
        """Each block pre-reduces under its leader, the leaders combine
        the partials (each ends with the bit-identical rank-order fold)
        and broadcast inside their sites.  A layout that would reorder
        operands reduces to rank 0 as one block, which then broadcasts."""
        sm, members, leader, local = self._hier(0, ordered=True)
        acc = self._seq_reduce(members, members.index(leader), value, redop,
                               tag, ctx, op, local, buffered)
        body, n = None, 0.0
        if self._rank == leader:
            acc = self._seq_allreduce(sm.leaders(0), acc, redop, tag + 1,
                                      ctx, op, buffered)
            body, n = self._pack(acc, buffered)
        return self._bcast_body(body, n, 0, ctx, op, held=sm.multi_site,
                                decode=True)[0]

    @_collective("allreduce")
    def allreduce(self, obj: Any, op: ReduceOp) -> Any:
        """Rank-order reduction of pickled objects to every rank: one
        wide-area sweep among the site leaders, no root."""
        ctx = self._coll_context("allreduce")
        return self._allreduce_value(obj, op, 34, ctx, "allreduce", False)

    @_collective("scan")
    def scan(self, obj: Any, op: ReduceOp) -> Any:
        """Inclusive prefix reduction (linear chain)."""
        ctx = self._coll_context("scan")
        acc = obj
        if self._rank > 0:
            acc = op(self._recv(self.proc, self._rank - 1, 7, ctx,
                                decode=True)[2], obj)
        if self._rank + 1 < self.size:
            self._send(self.proc, self._rank + 1, 7,
                       *self._pack(acc, False), ctx, "scan")
        return acc

    @_collective("Reduce")
    def Reduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray | None,
               op: ReduceOp, root: int = 0) -> None:
        """Buffer-path binomial reduction (no pickle cost).

        Same schedule and operand order as :meth:`reduce`; partials stay
        on the zero-copy path throughout (the initial accumulator is
        staged once, op results are fresh arrays forwarded by
        reference)."""
        ctx = self._coll_context("Reduce")
        # ops are functional (no in-place accumulation), so the initial
        # accumulator can reference sendbuf on the rendezvous path
        acc = self._reduce_value(
            self._stage(np.ascontiguousarray(sendbuf)), op, root, 32, ctx,
            "Reduce", buffered=True)
        if self._rank == root:
            if recvbuf is None:
                raise MpiError("root must supply recvbuf")
            self._deliver(recvbuf, ("b", acc), "Reduce")

    @_collective("Allreduce")
    def Allreduce(self, sendbuf: np.ndarray, recvbuf: np.ndarray,
                  op: ReduceOp) -> None:
        """Buffer-path :meth:`allreduce`: same schedule and operand
        order, no pickle cost."""
        acc = self._allreduce_value(
            self._stage(np.ascontiguousarray(sendbuf)), op, 36,
            self._coll_context("Allreduce"), "Allreduce", buffered=True)
        self._deliver(recvbuf, ("b", acc), "Allreduce")

    # ------------------------------------------------------------------
    # communicator management
    # ------------------------------------------------------------------
    def _derive(self, name: str, members: list[int],
                cls: "type[Comm] | None" = None, **extra: Any) -> "Comm":
        """A ``cls`` (default :class:`Comm`) over my group's ``members``,
        in that order, with context ``<mine>/<name>``, bound to my
        thread: what ``split``, ``dup`` and ``Create_cart`` return."""
        comm = (cls or Comm)(self._circuit, [self._group[r] for r in members],
                             members.index(self._rank),
                             f"{self._context}/{name}", **extra)
        return comm.bind(self.proc)

    def split(self, color: int | None, key: int = 0) -> "Comm | None":
        """Partition the communicator by ``color``; order ranks by
        ``(key, old rank)``.  Returns None for ``color=None``
        (MPI_UNDEFINED)."""
        triples = self.allgather((color, key, self._rank))
        seq = self._coll_seq  # advanced identically on every rank
        if color is None:
            return None
        members = [r for _k, r in sorted(
            (k, r) for c, k, r in triples if c == color)]
        return self._derive(f"split{seq}:{color}", members)

    def Create_cart(self, dims, periods=None) -> "Comm":
        """Cartesian topology view (see :mod:`repro.mpi.cartesian`)."""
        from repro.mpi.cartesian import create_cart

        return create_cart(self, dims, periods)

    def dup(self) -> "Comm":
        """Duplicate with a fresh context (isolated traffic)."""
        self.allgather(0)  # synchronise context generation
        return self._derive(f"dup{self._coll_seq}", list(range(self.size)))
