"""GridCCM runtime: parallel components, proxies, client layers.

Call path for a parallel invocation (paper Figures 3 & 4):

1. every client rank calls the operation on its
   :class:`ParallelClient` port with its *local* chunk of each
   distributed argument (canonical block distribution over the client
   group);
2. the client layer agrees on global sizes (one small allgather on the
   client's own MPI world), computes the redistribution schedule, and
   sends each piece **directly** to the server node that owns it — one
   internal CORBA invocation per target, each the body of its own
   helper thread; the caller joins every helper in target order and,
   if any failed, raises the lowest failing target's own exception;
3. each server node's layer collects the pieces it expects, assembles
   the local block, and runs the user operation *once* (all handler
   threads of that invocation return its result);
4. results combine client-side, in target order, according to the
   declared policy.

Sequential clients never see any of this: the :class:`ParallelProxy` on
node 0 implements the original interface and performs the scatter
itself, so a parallel component remains a perfectly ordinary CORBA
component from the outside.

Cost model: the layer's split/assemble copies cost
``GRIDCCM_COPY_COST`` seconds per byte on each side, calibrated so a
1→1 GridCCM invocation over Mico/Myrinet peaks at the paper's 43 MB/s
(Figure 8 first row)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.ccm.container import Container
from repro.ccm.component import ComponentImpl
from repro.core.compiler import GridCcmCompiler, ParallelOpInfo, ParallelPlan
from repro.core.distribution import (
    BlockDistribution,
    Distribution,
    make_distribution,
)
from repro.core.parallelism import ParallelismDescriptor
from repro.core.redistribution import RedistributionPlan, redistribute_schedule
from repro.corba.idl.compiler import compile_idl
from repro.corba.ior import IOR
from repro.corba.orb import ObjectRef, Orb
from repro.corba.profiles import OMNIORB4, OrbProfile
from repro.mpi.communicator import Comm
from repro.mpi.ops import SUM
from repro.mpi.world import World, create_world
from repro.sim.kernel import SimProcess
from repro.sim.sync import SimEvent, SimLock

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess, PadicoRuntime

#: per-byte CPU cost of the GridCCM split/assembly copy, each side.
#: 1/43 MB/s = 2·GRIDCCM_COPY_COST + Mico's 2·7.0 ns/B + 1/240 MB/s.
GRIDCCM_COPY_COST = 2.55e-9

#: fixed bookkeeping per internal invocation, each side (the Figure-8
#: 1→1 latency is dominated by Mico, so this is small).
GRIDCCM_CALL_OVERHEAD = 0.5e-6


#: redistribution plans each layer keeps (oldest evicted): a plan per
#: distinct (length, distribution) a caller alternates between
_PLAN_CACHE_SIZE = 16


class GridCcmError(RuntimeError):
    """GridCCM layer usage or protocol error."""


def _cached_plan(cache: dict[tuple, RedistributionPlan], key: tuple,
                 build: Callable[[], RedistributionPlan]
                 ) -> RedistributionPlan:
    """The layer's plan for ``key``, built on first use."""
    plan = cache.get(key)
    if plan is None:
        if len(cache) >= _PLAN_CACHE_SIZE:
            del cache[next(iter(cache))]
        plan = cache[key] = build()
    return plan


def _target_distribution(info: ParallelOpInfo, pos: int, parts: int,
                         total: int) -> Distribution:
    pname = info.original.in_params[pos][0]
    spec = info.spec.arg(pname)
    assert spec is not None
    return make_distribution(spec.distribution, parts, total,
                             spec.block_size)


def _is_nested(seqtype) -> bool:
    """2D argument: sequence<sequence<numeric>>, distributed by rows."""
    from repro.corba.idl.types import SequenceType

    return isinstance(seqtype.element, SequenceType)


def _elem_dtype(seqtype) -> np.dtype:
    elem = seqtype.element
    if _is_nested(seqtype):
        elem = elem.element
    return np.dtype(elem.dtype)


def _as_dist_array(seqtype, value) -> np.ndarray:
    """Normalise a distributed argument to a contiguous 1D or 2D array."""
    arr = np.ascontiguousarray(np.asarray(value, dtype=_elem_dtype(seqtype)))
    want = 2 if _is_nested(seqtype) else 1
    if arr.ndim != want:
        raise GridCcmError(
            f"distributed argument of type {seqtype.typename()} must be "
            f"{want}-dimensional, got shape {arr.shape}")
    return arr


def _row_nbytes(arr: np.ndarray) -> int:
    """Bytes per distributed element (a scalar, or a 2D row)."""
    return arr.itemsize * (arr.shape[1] if arr.ndim == 2 else 1)


def _chunk_nbytes(chunk) -> int:
    """Payload bytes of one wire chunk without materialising it.

    Equals ``np.asarray(chunk).nbytes`` for every chunk shape the wire
    produces (ndarray, list of row views, list of numbers)."""
    nb = getattr(chunk, "nbytes", None)
    if nb is not None:
        return int(nb)
    total = 0
    for row in chunk:
        nb = getattr(row, "nbytes", None)
        if nb is None:
            return int(np.asarray(chunk).nbytes)
        total += int(nb)
    return total


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------

class _Pending:
    """Pieces of one collective invocation arriving at one server node."""

    def __init__(self, kernel, expected: int):
        self.expected = expected
        self.pieces: list[tuple] = []
        self.event = SimEvent(kernel)
        self.result: Any = None
        self.error: BaseException | None = None
        self.returned = 0


class _ServerPortLayer:
    """Per-(node, port) GridCCM layer: chunk collection + dispatch."""

    def __init__(self, container: Container, executor: ComponentImpl,
                 comm: Comm, rank: int, size: int, port: str,
                 infos: list[ParallelOpInfo], internal_idef,
                 key_prefix: str):
        self.container = container
        self.executor = executor
        self.comm = comm
        self.rank = rank
        self.size = size
        self.port = port
        self.infos = {info.name: info for info in infos}
        self._pending: dict[tuple[str, str], _Pending] = {}
        self._plan_cache: dict[tuple, RedistributionPlan] = {}
        kernel = container.process.runtime.kernel
        self._exec_lock = SimLock(kernel)
        self._kernel = kernel

        # build a servant class with one method per parallel operation
        namespace: dict[str, Any] = {"_idef": internal_idef}
        for info in infos:
            namespace[info.name] = _make_server_method(self, info)
        servant_cls = type(f"GridCcm{port.capitalize()}Servant", (object,),
                           namespace)
        self.ref = container.orb.poa.activate_object(
            servant_cls(), key=f"{key_prefix}.gridccm.{port}")

    # -- piece handling -----------------------------------------------------
    def handle(self, info: ParallelOpInfo, proc: SimProcess,
               request: str, src_rank: int, src_parts: int, expected: int,
               wire_args: tuple) -> Any:
        mon = self.container.process.runtime.monitor
        if mon is not None:
            mon.on_span_start("gridccm.gather", cat="gridccm",
                              op=info.name, request=request,
                              src_rank=src_rank, expected=expected)
        try:
            return self._handle_piece(info, proc, request, src_rank,
                                      src_parts, expected, wire_args, mon)
        finally:
            if mon is not None:
                mon.on_span_end("gridccm.gather")

    def _handle_piece(self, info: ParallelOpInfo, proc: SimProcess,
                      request: str, src_rank: int, src_parts: int,
                      expected: int, wire_args: tuple, mon) -> Any:
        plains, chunks = self._split_wire_args(info, wire_args)
        nbytes = sum(_chunk_nbytes(c) for _pos, _total, c in chunks)
        if mon is not None:
            mon.on_counter("gridccm.redistribution_bytes", float(nbytes))
        proc.sleep(GRIDCCM_CALL_OVERHEAD + nbytes * GRIDCCM_COPY_COST)

        key = (info.name, request)
        pend = self._pending.get(key)
        if pend is None:
            pend = _Pending(self._kernel, expected)
            self._pending[key] = pend
        if pend.expected != expected:
            raise GridCcmError(
                f"{info.name}/{request}: inconsistent expected-piece "
                f"counts ({pend.expected} vs {expected})")
        pend.pieces.append((src_rank, src_parts, plains, chunks))

        if len(pend.pieces) == pend.expected:
            try:
                args = self._assemble(info, pend, mon)
                self._exec_lock.acquire(proc)
                try:
                    self.comm.bind(proc)
                    method = getattr(self.executor, info.name, None)
                    if method is None:
                        raise GridCcmError(
                            f"{type(self.executor).__name__} does not "
                            f"implement {info.name!r}")
                    pend.result = method(*args)
                finally:
                    self._exec_lock.release(proc)
            except Exception as exc:  # noqa: BLE001 → all callers
                pend.error = exc
            pend.event.set()
        else:
            pend.event.wait(proc)

        pend.returned += 1
        if pend.returned == pend.expected:
            self._pending.pop(key, None)
        if pend.error is not None:
            raise pend.error
        return pend.result

    def _split_wire_args(self, info: ParallelOpInfo, wire_args: tuple
                         ) -> tuple[dict[int, Any], list[tuple]]:
        """wire args → ({pos: plain value}, [(pos, total, chunk), ...])"""
        plains: dict[int, Any] = {}
        chunks: list[tuple] = []
        it = iter(wire_args)
        for pos, (pname, _ptype) in enumerate(info.original.in_params):
            if pos in info.dist_positions:
                total = next(it)
                chunk = next(it)
                chunks.append((pos, total, chunk))
            else:
                plains[pos] = next(it)
        return plains, chunks

    def _assemble(self, info: ParallelOpInfo, pend: _Pending,
                  mon=None) -> list[Any]:
        """Rebuild this node's local arguments from the pieces.

        This is the one unavoidable copy of the zero-copy scatter path:
        incoming pieces (views over wire buffers) are placed into the
        node's fresh local block — metered as
        ``wire.copied_bytes.gridccm``."""
        in_params = info.original.in_params
        args: list[Any] = [None] * len(in_params)
        _src, _parts, plains, _chunks = pend.pieces[0]
        for pos, value in plains.items():
            args[pos] = value

        for pos, seqtype in info.dist_positions.items():
            totals = {int(t) for _s, _p, _pl, cl in pend.pieces
                      for (p2, t, _c) in cl if p2 == pos}
            if len(totals) != 1:
                raise GridCcmError(
                    f"{info.name}: inconsistent total lengths {totals}")
            total = totals.pop()
            target = _target_distribution(info, pos, self.size, total)
            dtype = _elem_dtype(seqtype)
            nested = _is_nested(seqtype)

            # decode pieces (and, for 2D, learn the row width)
            decoded: list[tuple[int, int, np.ndarray]] = []
            ncols = 0
            for src_rank, src_parts, _pl, chunk_list in pend.pieces:
                chunk = next(c for (p2, _t, c) in chunk_list if p2 == pos)
                # asarray keeps already-2D collocated pieces as views;
                # remote nested pieces (lists of row views) materialise
                # into one 2D array — a single metered copy per piece
                data = np.asarray(chunk, dtype=dtype) if not nested else \
                    (np.asarray(chunk, dtype=dtype) if len(chunk)
                     else np.zeros((0, 0), dtype=dtype))
                if nested and len(chunk) and not isinstance(chunk,
                                                            np.ndarray):
                    if mon is not None:
                        mon.on_counter("wire.copied_bytes.gridccm",
                                       float(data.nbytes))
                if nested and len(data):
                    if ncols and data.shape[1] != ncols:
                        raise GridCcmError(
                            f"{info.name}: ragged 2D argument "
                            f"({data.shape[1]} vs {ncols} columns)")
                    ncols = data.shape[1]
                decoded.append((src_rank, src_parts, data))

            shape = (target.local_size(self.rank), ncols) if nested \
                else target.local_size(self.rank)
            local = np.zeros(shape, dtype=dtype)
            for src_rank, src_parts, data in decoded:
                if len(data) == 0:
                    continue  # kick piece
                plan = self._plan(src_parts, total, target)
                transfer = plan.transfer(src_rank, self.rank)
                if transfer is None or transfer.size != len(data):
                    raise GridCcmError(
                        f"{info.name}: piece from rank {src_rank} does "
                        f"not match the redistribution schedule")
                local[transfer.dst_index] = data
                if mon is not None:
                    mon.on_counter("wire.copied_bytes.gridccm",
                                   float(data.nbytes))
                    mon.on_consume(data)
            args[pos] = local
        return args

    def _plan(self, src_parts: int, total: int,
              target: Distribution) -> RedistributionPlan:
        """This node's column of the clients' block → ``target`` plan."""
        key = (src_parts, total, target.kind,
               getattr(target, "block_size", None))
        return _cached_plan(
            self._plan_cache, key, lambda: redistribute_schedule(
                BlockDistribution(src_parts, total), target, dst=self.rank))


def _make_server_method(layer: _ServerPortLayer,
                        info: ParallelOpInfo) -> Callable:
    def method(self, request: str, src_rank: int, src_parts: int,
               expected: int, *wire_args: Any) -> Any:
        proc = layer._kernel.current
        return layer.handle(info, proc, request, src_rank, src_parts,
                            expected, wire_args)

    method.__name__ = info.name
    return method


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------

class _CallEngine:
    """Shared invocation machinery for parallel clients and the proxy."""

    def __init__(self, orb: Orb, plan: ParallelPlan, port: str,
                 node_refs: list[ObjectRef], comm: Comm | None,
                 group_id: str):
        self.orb = orb
        self.plan = plan
        self.port = port
        self.nodes = node_refs
        self.comm = comm
        self.group_id = group_id
        self._seq = 0
        self._plan_cache: dict[tuple, RedistributionPlan] = {}

    @property
    def n_clients(self) -> int:
        return self.comm.size if self.comm is not None else 1

    @property
    def my_rank(self) -> int:
        return self.comm.rank if self.comm is not None else 0

    def call(self, info: ParallelOpInfo, args: tuple) -> Any:
        proc = self.orb._current()
        in_params = info.original.in_params
        if len(args) != len(in_params):
            raise GridCcmError(
                f"{info.name} takes {len(in_params)} arguments, got "
                f"{len(args)}")
        n, me, m = self.n_clients, self.my_rank, len(self.nodes)
        self._seq += 1
        request = f"{self.group_id}#{self._seq}"
        mon = self.orb.process.runtime.monitor
        if mon is not None:
            mon.on_span_start("gridccm.call", cat="gridccm", op=info.name,
                              request=request, rank=me, nodes=m)
        try:
            return self._call_body(info, args, proc, n, me, m, request,
                                   mon)
        finally:
            if mon is not None:
                mon.on_span_end("gridccm.call")

    def _call_body(self, info: ParallelOpInfo, args: tuple, proc,
                   n: int, me: int, m: int, request: str, mon) -> Any:
        in_params = info.original.in_params

        # agree on global lengths (one allgather over the client world)
        local_lens = tuple(len(np.asarray(args[pos]))
                           for pos in sorted(info.dist_positions))
        if self.comm is not None:
            all_lens = self.comm.allgather(local_lens)
        else:
            all_lens = [local_lens]

        dist_data: dict[int, np.ndarray] = {}
        plans: dict[int, RedistributionPlan] = {}
        for i, pos in enumerate(sorted(info.dist_positions)):
            total = sum(lens[i] for lens in all_lens)
            src = BlockDistribution(n, total)
            if src.local_size(me) != local_lens[i]:
                raise GridCcmError(
                    f"{info.name}: rank {me} passed {local_lens[i]} "
                    f"elements but the canonical block distribution of "
                    f"{total} over {n} expects {src.local_size(me)}")
            seqtype = info.dist_positions[pos]
            dist_data[pos] = _as_dist_array(seqtype, args[pos])
            pname = info.original.in_params[pos][0]
            spec = info.spec.arg(pname)
            # this rank's row only; plan.senders still covers every node
            plans[pos] = _cached_plan(
                self._plan_cache,
                (n, m, total, spec.distribution, spec.block_size),
                lambda: redistribute_schedule(
                    src, _target_distribution(info, pos, m, total), src=me))

        # expected pieces per server node (union across arguments)
        senders: dict[int, set[int]] = {r: set() for r in range(m)}
        for plan in plans.values():
            for r, srcs in plan.senders.items():
                senders[r].update(srcs)
        kick_targets = [r for r in range(m) if not senders[r]]
        expected = {r: max(len(s), 1) for r, s in senders.items()}

        my_targets = sorted({t.dst for plan in plans.values()
                             for t in plan.outgoing(me)})
        if me == 0:
            my_targets = sorted(set(my_targets) | set(kick_targets))

        # layer cost: gather processing of every outgoing piece; pure
        # arithmetic (size × row bytes) — identical to the nbytes of a
        # materialised gather, without performing one
        out_bytes = sum(
            t.size * _row_nbytes(dist_data[pos])
            for pos, plan in plans.items() for t in plan.outgoing(me))
        proc.sleep(GRIDCCM_CALL_OVERHEAD + out_bytes * GRIDCCM_COPY_COST)

        if mon is not None:
            mon.on_counter("gridccm.redistribution_bytes", float(out_bytes))
            mon.on_span_start("gridccm.scatter", cat="gridccm",
                              op=info.name, targets=len(my_targets),
                              nbytes=float(out_bytes))
        helpers: list[SimProcess] = []
        try:
            for r in my_targets:
                wire = self._wire_args(info, plans, dist_data, args, me, n,
                                       expected[r], request, r, mon)
                call = getattr(self.nodes[r], info.name)
                helpers.append(self.orb.process.spawn(
                    lambda _p, call=call, wire=wire: call(*wire),
                    name=f"gridccm-{info.name}", daemon=True))
            for h in helpers:
                proc.join_any((h,))
        finally:
            if mon is not None:
                mon.on_span_end("gridccm.scatter")
        for h in helpers:
            if h.exc is not None:
                raise h.exc
        results = {r: h.result for r, h in zip(my_targets, helpers)}
        # several clients may have contacted the same server node and
        # all hold its (identical) result; for global reductions each
        # server result must count exactly once — the lowest-ranked
        # contacting client "owns" it (kick targets belong to rank 0)
        owned = {r: v for r, v in results.items()
                 if me == min(senders[r], default=0)}
        return self._combine(info, results, owned, senders)

    # -- helpers ------------------------------------------------------------
    def _wire_args(self, info: ParallelOpInfo,
                   plans: dict[int, RedistributionPlan],
                   dist_data: dict[int, np.ndarray], args: tuple,
                   me: int, n: int, expected: int, request: str,
                   target: int, mon=None) -> tuple:
        """Build one server node's piece message.

        A unit-stride transfer (every block→block plan) gathers the
        piece as a *view* of the caller's array — zero client-side
        copies.  A stepped one (a cyclic target) is a strided view,
        copied once into a contiguous piece; only a block-cyclic
        target's index array still gathers with a fancy-index copy.
        A nested (2D) piece stays one contiguous 2D array: the CDR
        layer encodes its rows as contiguous views, so the old
        copy-per-row is gone."""
        wire: list[Any] = [request, me, n, expected]
        for pos, (pname, _t) in enumerate(info.original.in_params):
            if pos in info.dist_positions:
                plan = plans[pos]
                transfer = plan.transfer(me, target)
                data = dist_data[pos]
                if transfer is None:
                    piece = data[:0]
                else:
                    piece = data[transfer.src_index]
                    if not piece.flags["C_CONTIGUOUS"]:
                        piece = np.ascontiguousarray(piece)
                    if mon is not None:
                        kind = ("referenced" if piece.base is not None
                                else "copied")
                        mon.on_counter(f"wire.{kind}_bytes.gridccm",
                                       float(piece.nbytes))
                        mon.on_publish(piece)
                wire.append(plan.source.length)
                wire.append(piece)
            else:
                wire.append(args[pos])
        return tuple(wire)

    def _combine(self, info: ParallelOpInfo, results: dict[int, Any],
                 owned: dict[int, Any],
                 senders: dict[int, set[int]]) -> Any:
        policy = info.spec.result_policy
        if policy == "none":
            return None
        if policy == "first":
            if self.comm is None:
                return results[min(results)] if results else None
            # the client rank owning server 0's result shares it
            root = min(senders.get(0, ()), default=0)
            return self.comm.bcast(owned.get(0), root=root)
        if policy == "sum":
            partial = sum(owned.values()) if owned else 0
            if self.comm is not None:
                return self.comm.allreduce(partial, SUM)
            return partial
        # concat: every rank needs every server chunk in rank order
        if self.comm is not None:
            gathered = self.comm.allgather(
                {r: np.asarray(v) for r, v in owned.items()})
            merged: dict[int, np.ndarray] = {}
            for d in gathered:
                for r, v in d.items():
                    merged.setdefault(r, v)
        else:
            merged = {r: np.asarray(v) for r, v in results.items()}
        if not merged:
            return np.zeros(0)
        return np.concatenate([merged[r] for r in sorted(merged)])


class ParallelClient:
    """Client-side GridCCM layer for one port of a parallel component.

    Parallel clients pass ``comm`` (their rank's communicator) and call
    operations SPMD-style with local chunks; ``comm=None`` gives a
    sequential client that passes whole arrays."""

    def __init__(self, engine: _CallEngine, proxy: ObjectRef):
        self._engine = engine
        self._proxy = proxy

    @classmethod
    def attach(cls, orb: Orb, plan: ParallelPlan, port: str,
               proxy_url: str, comm: Comm | None = None,
               group_id: str | None = None) -> "ParallelClient":
        """Connect to a parallel component's port (call in a sim thread).

        Every rank of a parallel client group must use the same
        ``group_id`` (and distinct groups distinct ids)."""
        proxy_iface = plan.proxy_interfaces[port]
        proxy = orb.narrow(orb.string_to_object(proxy_url),
                           proxy_iface.scoped_name)
        size = proxy.gridccm_size()
        nodes = [proxy.gridccm_node(i) for i in range(size)]
        gid = group_id or f"{port}-client"
        if comm is not None:
            gid = f"{gid}/{comm.size}"
        engine = _CallEngine(orb, plan, port, nodes, comm, gid)
        return cls(engine, proxy)

    @property
    def n_nodes(self) -> int:
        return len(self._engine.nodes)

    def __getattr__(self, name: str) -> Any:
        info = self._engine.plan.ops.get((self._engine.port, name))
        if info is not None:
            return lambda *args: self._engine.call(info, args)
        # non-parallel operations go through the proxy (standard CORBA)
        return getattr(self._proxy, name)


# ---------------------------------------------------------------------------
# the parallel component itself
# ---------------------------------------------------------------------------

@dataclass
class _NodeRuntime:
    process: "PadicoProcess"
    container: Container
    executor: ComponentImpl
    layers: dict[str, _ServerPortLayer]
    instance_key: str


class ParallelComponent:
    """A deployed GridCCM parallel component (one instance per node)."""

    def __init__(self, name: str, plan: ParallelPlan, world: World,
                 nodes: list[_NodeRuntime],
                 proxy_refs: dict[str, ObjectRef]):
        self.name = name
        self.plan = plan
        self.world = world
        self.nodes = nodes
        self.proxy_refs = proxy_refs

    @classmethod
    def create(cls, runtime: "PadicoRuntime", name: str,
               processes: list["PadicoProcess"], idl_source: str,
               parallelism_xml: str,
               executor_factory: Callable[[], ComponentImpl],
               profile: OrbProfile = OMNIORB4) -> "ParallelComponent":
        """Deploy the SPMD executor over ``processes``.

        Creates per node: a container (ORB with the given ``profile``),
        the CCM component instance, and the GridCCM server layer; plus
        the MPI world binding the nodes together and the proxy on node 0.
        """
        descriptor = ParallelismDescriptor.parse(parallelism_xml)
        world = create_world(runtime, f"gridccm:{name}", processes)
        nodes: list[_NodeRuntime] = []
        plan0: ParallelPlan | None = None
        for rank, process in enumerate(processes):
            idl = compile_idl(idl_source)
            plan = GridCcmCompiler(idl, descriptor).compile()
            container = Container(process, idl, profile=profile,
                                  port=f"gridccm-{name}")
            home = container.install_home(descriptor.component,
                                          executor_factory,
                                          name=f"{name}-home")
            instance = home.create()
            executor = instance.executor
            executor.mpi = world.comm(rank)
            executor.grid_rank = rank
            executor.grid_size = len(processes)
            layers = {}
            for port in descriptor.ports():
                layers[port] = _ServerPortLayer(
                    container, executor, world.comm(rank), rank,
                    len(processes), port, plan.ops_for_port(port),
                    plan.internal_interfaces[port], instance.key)
            nodes.append(_NodeRuntime(process, container, executor,
                                      layers, instance.key))
            if rank == 0:
                plan0 = plan
        assert plan0 is not None

        proxy_refs = cls._build_proxies(name, plan0, nodes)
        return cls(name, plan0, world, nodes, proxy_refs)

    @classmethod
    def _build_proxies(cls, name: str, plan: ParallelPlan,
                       nodes: list[_NodeRuntime]) -> dict[str, ObjectRef]:
        """Node-0 proxies hiding the nodes from the outside (§4.2.1)."""
        head = nodes[0]
        orb0 = head.container.orb
        proxy_refs: dict[str, ObjectRef] = {}
        for port, proxy_idef in plan.proxy_interfaces.items():
            node_refs = [
                orb0.create_reference(IOR(
                    plan.internal_interfaces[port].repo_id,
                    node.process.name, node.container.orb.port,
                    f"{node.instance_key}.gridccm.{port}"))
                for node in nodes]
            engine = _CallEngine(orb0, plan, port, node_refs, None,
                                 f"proxy-{name}-{port}")
            servant = _make_proxy_servant(proxy_idef, plan, port, engine,
                                          head.executor, node_refs)
            # the proxy advertises the ORIGINAL interface: sequential
            # clients see a perfectly standard component reference
            original = plan.component.provides[port]
            original_repo = f"IDL:{original.replace('::', '/')}:1.0"
            proxy_refs[port] = orb0.poa.activate_object(
                servant, key=f"{name}.proxy.{port}",
                type_id=original_repo)
        return proxy_refs

    # -- lifecycle -----------------------------------------------------------
    def activate(self) -> None:
        """Run ``ccm_activate`` on every node's component instance."""
        for node in self.nodes:
            node.container.instance(node.instance_key).activate()

    def configure(self, name: str, value: Any) -> None:
        """Set an IDL attribute on every node executor (SPMD config)."""
        for node in self.nodes:
            if name not in node.container.idl.component(
                    self.plan.component.scoped_name).attributes:
                raise GridCcmError(
                    f"{self.plan.component.scoped_name} has no attribute "
                    f"{name!r}")
            setattr(node.executor, name, value)

    def remove(self) -> None:
        """Tear down every node instance."""
        for node in self.nodes:
            node.container.instance(node.instance_key).remove()

    # -- accessors -----------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.nodes)

    def proxy_url(self, port: str) -> str:
        ref = self.proxy_refs.get(port)
        if ref is None:
            raise GridCcmError(f"no parallel port {port!r} "
                               f"(ports: {sorted(self.proxy_refs)})")
        return self.nodes[0].container.orb.object_to_string(ref)

    def executors(self) -> list[ComponentImpl]:
        return [n.executor for n in self.nodes]


def _make_proxy_servant(proxy_idef, plan: ParallelPlan, port: str,
                        engine: _CallEngine, head_executor: ComponentImpl,
                        node_refs: list[ObjectRef]):
    """Servant for the proxy interface: sequential gateway + navigation."""
    namespace: dict[str, Any] = {"_idef": proxy_idef}

    namespace["gridccm_size"] = lambda self: len(node_refs)
    namespace["gridccm_node"] = lambda self, rank: node_refs[int(rank)]

    for info in plan.ops_for_port(port):
        def make(info=info):
            def op(self, *args: Any) -> Any:
                return engine.call(info, args)
            op.__name__ = info.name
            return op
        namespace[info.name] = make()

    def passthrough(self, attr_name: str) -> Any:
        return getattr(head_executor, attr_name)

    namespace["__getattr__"] = passthrough
    return type(f"{proxy_idef.name}Servant", (object,), namespace)()
