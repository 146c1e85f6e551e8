"""The six workloads: build a repetition, drive it, check it.

Each workload is prepared once per child process (payloads and oracle
references are materialised from the seeded inputs — the benchmark's
own cost, kept out of ``setup_s``), then built afresh for every
repetition.  ``build()`` is the set-up the system pays (IDL compile,
topology, runtime, ORBs, components, worlds, route look-ups);
``Stage.drive()`` is the timed region (``run()`` to drain plus
``shutdown()``); ``check()`` compares what arrived against references
computed here in plain NumPy/Python, never through the code under test.

Only default constructor arguments and public API of :mod:`repro`.
Bodies stay thin: a loop of operations plus one append per operation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.ccm import ComponentImpl
from repro.core import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    GridCcmCompiler,
    ParallelClient,
    ParallelComponent,
    ParallelismDescriptor,
)
from repro.corba import MICO, OMNIORB4, Orb, compile_idl
from repro.mpi import SUM, create_world
from repro.net import MYRINET_2000, Topology, build_cluster, build_grid
from repro.net.flows import FlowNetwork, maxmin_rates
from repro.padicotm import PadicoRuntime
from repro.sim import SimKernel

IDL = """
module Bench {
    typedef sequence<octet> Blob;
    typedef sequence<long> IntVector;
    interface Sink {
        void push(in Blob data);
        void absorb(in IntVector values);
    };
    component Endpoint {
        provides Sink input;
    };
    home EndpointHome manages Endpoint {};
};
"""

PROFILES = {"OMNIORB4": OMNIORB4, "MICO": MICO}

#: payloads of at least this size are shared per size class instead of
#: being distinct per operation (100 distinct 8 MiB payloads is 800 MB)
_SHARED_ABOVE = 64 * 1024
#: byte stride of the sampled checksum on large buffers (a prime, so the
#: sample walks every byte lane of multi-byte elements)
_SAMPLE_STRIDE = 4099

#: called right after a kernel/runtime exists, before anything spawns:
#: ``observe(kernel, runtime, network)``
Observe = Callable[[Any, Any, Any], None]


def checksum(buf: Any) -> tuple[int, int]:
    """(length, crc32) of a bytes-like or contiguous array.

    Small buffers are summed whole; large ones by head, tail and a
    1-in-4099 byte sample — position-sensitive (catches truncation,
    shifts and wrong-buffer aliasing) at a cost that keeps the oracle
    out of the per-byte profile of the workloads that move megabytes.
    """
    mv = memoryview(buf).cast("B")
    n = len(mv)
    if n <= 2 * _SAMPLE_STRIDE:
        return n, zlib.crc32(mv)
    crc = zlib.crc32(mv[:64])
    crc = zlib.crc32(mv[-64:], crc)
    return n, zlib.crc32(mv[::_SAMPLE_STRIDE].tobytes(), crc)


def vector_checksum(values: np.ndarray) -> tuple[int, int, int]:
    """:func:`checksum` plus the exact element sum of an integer vector."""
    n, crc = checksum(values)
    return n, crc, int(np.add.reduce(values, dtype=np.int64))


@dataclass
class Stage:
    """One kernel's worth of a repetition."""

    kernel: Any
    #: the timed region: run to drain, then shut down
    drive: Callable[[], None]
    network: Any
    topology: Any
    #: virtual time the stage's work ended at, when that is not the
    #: kernel's clock at drain
    ended_at: Callable[[], float] | None = None

    def virt_end(self) -> float:
        return self.ended_at() if self.ended_at else self.kernel.now


@dataclass
class Rep:
    stages: list[Stage]
    #: workload-private results, read by ``check()``
    state: Any = None
    #: (owner, attribute) of benchmark-side callables that run inside a
    #: middleware span; the ledger brackets them as ``app``
    app_hooks: list[tuple[Any, str]] = field(default_factory=list)


@dataclass
class Outcome:
    ops: int
    failed: int
    #: per-operation virtual completion times, in issue order
    op_times: list[float]
    #: ``model.*`` metrics derived on this workload
    model: dict[str, float] = field(default_factory=dict)


def _drive_runtime(rt: PadicoRuntime) -> Callable[[], None]:
    def drive() -> None:
        try:
            rt.run()
        finally:  # a raising operation must not leave threads behind
            rt.shutdown()
    return drive


class Workload:
    #: operations one repetition attempts (``prepare()`` sets it)
    ops: int

    def __init__(self, const: dict, inputs: dict, fault: str | None = None):
        """``fault`` is for the self-test: ``"corrupt"`` sends data the
        oracle does not expect, ``"raise"`` makes one operation raise."""
        self.const = const
        self.inputs = inputs
        self.fault = fault
        self.prepare(fault == "corrupt")

    def prepare(self, corrupt: bool) -> None:
        raise NotImplementedError

    def all_failed(self, error: str) -> "Outcome":
        """The outcome of a repetition that raised ``error``."""
        return Outcome(self.ops, self.ops, [error])

    def build(self, observe: Observe) -> Rep:
        raise NotImplementedError

    def check(self, rep: Rep) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# rpc_small / bulk_sharing: CORBA and MPI cohabiting in two processes
# ---------------------------------------------------------------------------

@dataclass
class _CohabLog:
    profile: str
    corba_got: list = field(default_factory=list)
    corba_done: list = field(default_factory=list)
    mpi_got: list = field(default_factory=list)
    mpi_echo: list = field(default_factory=list)
    mpi_done: list = field(default_factory=list)


class _Cohab(Workload):
    """2 hosts on Myrinet-2000, one runtime: a CORBA caller pushes blobs
    while an MPI pair exchanges buffers in the same two processes."""

    #: True: every MPI message is echoed back (round trips);
    #: False: one-way bulk sends
    echo = True

    def prepare(self, corrupt: bool) -> None:
        rng = np.random.default_rng(self.inputs["data_seed"])
        self.sizes_corba = self.inputs["sizes_corba"]
        self.sizes_mpi = self.inputs["sizes_mpi"]
        corba = self._payloads(rng, self.sizes_corba)
        self.corba_payloads = [a.tobytes() for a in corba]
        self.mpi_payloads = self._payloads(rng, self.sizes_mpi)
        self.corba_expect = [checksum(p) for p in self.corba_payloads]
        self.mpi_expect = [checksum(p) for p in self.mpi_payloads]
        if corrupt:
            # what is sent no longer matches what the oracle expects
            self.corba_payloads[0] = _flip(self.corba_payloads[0],
                                           self.corba_payloads)
            self.mpi_payloads[-1] = _flip(self.mpi_payloads[-1],
                                          self.mpi_payloads)
        self.profiles = self.const.get("profiles", ["OMNIORB4"])
        self.ops = len(self.profiles) * (len(self.corba_expect)
                                         + len(self.mpi_expect))

    @staticmethod
    def _payloads(rng: np.random.Generator,
                  sizes: list[int]) -> list[np.ndarray]:
        shared: dict[int, np.ndarray] = {}
        out = []
        for size in sizes:
            data = shared.get(size)
            if data is None:
                data = rng.integers(0, 256, size, dtype=np.uint8)
                if size >= _SHARED_ABOVE:
                    shared[size] = data
            out.append(data)
        return out

    def build(self, observe: Observe) -> Rep:
        rep = Rep(stages=[], state=[])
        for key in self.profiles:
            self._build_stage(rep, key, observe)
        return rep

    def _build_stage(self, rep: Rep, profile_key: str,
                     observe: Observe) -> None:
        profile = PROFILES[profile_key]
        topo = Topology()
        build_cluster(topo, "n", 2, san=MYRINET_2000)
        rt = PadicoRuntime(topo)
        observe(rt.kernel, rt, rt.network)
        p0 = rt.create_process("n0", "p0")
        p1 = rt.create_process("n1", "p1")
        s_orb = Orb(p1, profile, compile_idl(IDL))
        s_orb.start()
        c_orb = Orb(p0, profile, compile_idl(IDL))
        log = _CohabLog(profile_key)
        kernel = rt.kernel

        raising = self.fault == "raise"

        class Sink(s_orb.servant_base("Bench::Sink")):
            def push(self, data):
                if raising:
                    raise RuntimeError("injected servant fault")
                log.corba_got.append(checksum(data))

        url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
        world = create_world(rt, "bench", [p0, p1])
        payloads, buffers = self.corba_payloads, self.mpi_payloads
        echo = self.echo
        recv_bufs = {size: np.empty(size, dtype=np.uint8)
                     for size in set(self.sizes_mpi)}
        echo_bufs = {size: np.empty(size, dtype=np.uint8)
                     for size in set(self.sizes_mpi)} if echo else {}

        def corba_main(proc):
            stub = c_orb.string_to_object(url)
            done = log.corba_done
            for payload in payloads:
                stub.push(payload)
                done.append(kernel.now)

        def mpi_sender(proc):
            comm = world.comm(0).bind(proc)
            done = log.mpi_done
            for buf in buffers:
                comm.Send(buf, dest=1)
                if echo:
                    back = echo_bufs[len(buf)]
                    comm.Recv(back, source=1)
                    log.mpi_echo.append(checksum(back))
                done.append(kernel.now)

        def mpi_receiver(proc):
            comm = world.comm(1).bind(proc)
            for sent in buffers:
                buf = recv_bufs[len(sent)]
                comm.Recv(buf, source=0)
                log.mpi_got.append(checksum(buf))
                if echo:
                    comm.Send(buf, dest=0)

        p0.spawn(corba_main, name="corba-client")
        p0.spawn(mpi_sender, name="mpi-rank0")
        p1.spawn(mpi_receiver, name="mpi-rank1")
        rep.stages.append(Stage(kernel, _drive_runtime(rt), rt.network,
                                topo))
        rep.state.append(log)
        rep.app_hooks.append((Sink, "push"))

    def check(self, rep: Rep) -> Outcome:
        failed = 0
        times: list[float] = []
        for log in rep.state:
            failed += _mismatches(self.corba_expect, log.corba_got,
                                  log.corba_done)
            failed += _mismatches(
                self.mpi_expect, log.mpi_got, log.mpi_done,
                log.mpi_echo if self.echo else None)
            times += log.corba_done + log.mpi_done
        return Outcome(self.ops, failed, times, self.model(rep.state))

    def model(self, logs: list[_CohabLog]) -> dict[str, float]:
        return {}


def _flip(payload: Any, others: list) -> Any:
    """A copy of ``payload`` with its first byte inverted (the payload
    must not be empty: pick the first non-empty one otherwise)."""
    if len(payload) == 0:
        payload = next(p for p in others if len(p))
    raw = bytearray(bytes(payload))
    raw[0] ^= 0xFF
    if isinstance(payload, np.ndarray):
        return np.frombuffer(bytes(raw), dtype=np.uint8)
    return bytes(raw)


def _mismatches(expect: list, got: list, done: list,
                echoed: list | None = None) -> int:
    """Operations that did not complete or delivered the wrong bytes."""
    bad = 0
    for i, want in enumerate(expect):
        ok = i < len(got) and i < len(done) and got[i] == want
        if ok and echoed is not None:
            ok = i < len(echoed) and echoed[i] == want
        bad += not ok
    return bad


def _durations(done: list[float]) -> list[float]:
    """Closed loop: an operation starts when the previous one returned
    (the first one when its thread was first scheduled, at t = 0)."""
    return [t - (done[i - 1] if i else 0.0) for i, t in enumerate(done)]


class RpcSmall(_Cohab):
    echo = True

    def model(self, logs: list[_CohabLog]) -> dict[str, float]:
        log = logs[0]
        # skip each stream's first operation: it pays connection set-up
        corba = [d for d, s in zip(_durations(log.corba_done)[1:],
                                   self.sizes_corba[1:]) if s == 0]
        mpi = [d for d, s in zip(_durations(log.mpi_done)[1:],
                                 self.sizes_mpi[1:]) if s == 0]
        out = {}
        if corba:
            out["model.corba_latency_us"] = min(corba) / 2 * 1e6
        if mpi:
            out["model.mpi_latency_us"] = min(mpi) / 2 * 1e6
        return out


class BulkSharing(_Cohab):
    echo = False

    def model(self, logs: list[_CohabLog]) -> dict[str, float]:
        log = next(l for l in logs if l.profile == "OMNIORB4")
        top = max(self.const["sizes"])
        out = {}
        for key, done, sizes in (
                ("model.corba_bw_mbps", log.corba_done, self.sizes_corba),
                ("model.mpi_bw_mbps", log.mpi_done, self.sizes_mpi)):
            rates = [s / d / 1e6 for d, s in zip(_durations(done), sizes)
                     if s == top and d > 0]
            if rates:
                out[key] = float(np.median(rates))
        return out


# ---------------------------------------------------------------------------
# fig8_block / gridccm_cyclic: GridCCM n -> m redistribution
# ---------------------------------------------------------------------------

_XML = """
<parallelism component="Bench::Endpoint">
  <port name="input">
    <operation name="absorb">
      <argument name="values" distribution="{kind}"{blocksize}/>
      <result policy="none"/>
    </operation>
  </port>
</parallelism>
"""


class _SinkImpl(ComponentImpl):
    """The paper's Figure-8 server: 'the invoked operation only contains
    a MPI_Barrier' — plus one checksum of what arrived, for the oracle."""

    def __init__(self, log: dict[int, list]):
        self.log = log

    def absorb(self, values):
        self.log.setdefault(self.grid_rank, []).append(
            vector_checksum(values))
        self.mpi.Barrier()

    def push(self, data):
        pass


def _target(kind: str, parts: int, total: int, block_size: int | None):
    if kind == "block":
        return BlockDistribution(parts, total)
    if kind == "cyclic":
        return CyclicDistribution(parts, total)
    return BlockCyclicDistribution(parts, total, block_size)


class GridCcm(Workload):
    """Two parallel components exchange a distributed integer vector."""

    def prepare(self, corrupt: bool) -> None:
        rng = np.random.default_rng(self.inputs["data_seed"])
        self.profile = PROFILES[self.const["profile"]]
        self.shapes = []
        for n, m, kind, block_size in self.const["shapes"]:
            chunks, expect = [], []
            for length in self.inputs["lengths"]:
                total = n * length
                vec = rng.integers(1, 2 ** 31 - 1, total, dtype=np.int32)
                target = _target(kind, m, total, block_size)
                # the reference is sliced straight from the global vector
                expect.append([vector_checksum(np.ascontiguousarray(
                    vec[target.global_indices(s)])) for s in range(m)])
                chunks.append([vec[r * length:(r + 1) * length]
                               for r in range(n)])
            if corrupt:
                first = chunks[0][0].copy()
                first[0] ^= 0x55
                chunks[0][0] = first
            xml = _XML.format(
                kind=kind,
                blocksize=f' blocksize="{block_size}"' if block_size else "")
            self.shapes.append((n, m, kind, xml, chunks, expect))
        self.ops = len(self.shapes) * self.const["invocations"]

    def build(self, observe: Observe) -> Rep:
        rep = Rep(stages=[], state=[])
        for n, m, _kind, xml, chunks, _expect in self.shapes:
            self._build_stage(rep, n, m, xml, chunks, observe)
        rep.app_hooks.append((_SinkImpl, "absorb"))
        return rep

    def _build_stage(self, rep: Rep, n: int, m: int, xml: str,
                     chunks: list, observe: Observe) -> None:
        topo = Topology()
        build_cluster(topo, "h", n + m, san=MYRINET_2000)
        rt = PadicoRuntime(topo)
        observe(rt.kernel, rt, rt.network)
        kernel = rt.kernel
        server_procs = [rt.create_process(f"h{i}", f"s{i}")
                        for i in range(m)]
        server_log: dict[int, list] = {}
        comp = ParallelComponent.create(
            rt, "bench", server_procs, IDL, xml,
            lambda: _SinkImpl(server_log), profile=self.profile)
        url = comp.proxy_url("input")
        client_procs = [rt.create_process(f"h{m + i}", f"c{i}")
                        for i in range(n)]
        world = create_world(rt, "clients", client_procs)
        descriptor = ParallelismDescriptor.parse(xml)
        clients = []
        for proc in client_procs:
            idl = compile_idl(IDL)
            plan = GridCcmCompiler(idl, descriptor).compile()
            clients.append((Orb(proc, self.profile, idl), plan))
        invocations = self.const["invocations"]
        spans: list[tuple[float, float]] = []

        def body(proc, rank):
            comm = world.comm(rank).bind(proc)
            orb, plan = clients[rank]
            pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
            for k in range(invocations):
                data = chunks[k % len(chunks)][rank]
                comm.barrier()
                t0 = kernel.now
                pc.absorb(data)
                comm.barrier()
                if rank == 0:
                    spans.append((t0, kernel.now))

        for rank, proc in enumerate(client_procs):
            proc.spawn(body, rank, name=f"client{rank}")
        rep.stages.append(Stage(kernel, _drive_runtime(rt), rt.network,
                                topo))
        rep.state.append((server_log, spans))

    def check(self, rep: Rep) -> Outcome:
        invocations = self.const["invocations"]
        failed = 0
        times: list[float] = []
        model: dict[str, float] = {}
        for (n, m, kind, _xml, chunks, expect), (server_log, spans) in zip(
                self.shapes, rep.state):
            for k in range(invocations):
                want = expect[k % len(expect)]
                ok = k < len(spans) and all(
                    len(server_log.get(s, ())) > k
                    and server_log[s][k] == want[s] for s in range(m))
                failed += not ok
            times += [t1 for _t0, t1 in spans]
            if (n, m, kind) == (8, 8, "block") and spans:  # paper Fig. 8
                t0, t1 = spans[-1]
                nbytes = n * chunks[(invocations - 1) % len(chunks)][0].nbytes
                model["model.fig8_agg_mbps"] = nbytes / (t1 - t0) / 1e6
        return Outcome(self.ops, failed, times, model)


# ---------------------------------------------------------------------------
# grid_collectives: 20 ranks on a 4-site grid
# ---------------------------------------------------------------------------

_COLL_OPS = ("bcast", "barrier", "gather", "allgather", "allreduce",
             "alltoall")


class GridCollectives(Workload):
    def prepare(self, corrupt: bool) -> None:
        c = self.const
        rng = np.random.default_rng(self.inputs["data_seed"])
        self.ranks = ranks = c["sites"] * c["hosts_per_site"]
        self.roots = self.inputs["roots"]
        self.ops = len(self.roots) * len(_COLL_OPS)

        def blob(nbytes: int) -> bytes:
            return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()

        self.blob = blob(c["bcast_bytes"])
        self.chunks = [(r, blob(c["chunk_bytes"])) for r in range(ranks)]
        # integer-valued doubles: the sum is exact in any reduction order
        self.vecs = [rng.integers(0, 1000, c["reduce_len"]).astype(np.float64)
                     for _ in range(ranks)]
        self.vec_sum = np.sum(self.vecs, axis=0)
        piece = c["alltoall_bytes"] // ranks
        self.pieces = [[blob(piece) for _d in range(ranks)]
                       for _r in range(ranks)]
        self.a2a_expect = [[self.pieces[r][d] for r in range(ranks)]
                           for d in range(ranks)]
        self.sent_blob = self.blob
        if corrupt:
            self.sent_blob = _flip(self.blob, [])

    def build(self, observe: Observe) -> Rep:
        c = self.const
        topo, site_hosts = build_grid(sites=c["sites"],
                                      hosts_per_site=c["hosts_per_site"],
                                      san=MYRINET_2000)
        rt = PadicoRuntime(topo)
        observe(rt.kernel, rt, rt.network)
        kernel = rt.kernel
        procs = [rt.create_process(h, f"p-{h.name}")
                 for hs in site_hosts.values() for h in hs]
        world = create_world(rt, "bench", procs)
        roots = self.roots
        #: passed[round][op] = ranks whose result matched the reference
        passed = [[0] * len(_COLL_OPS) for _ in roots]
        done: list[float] = []

        def body(proc, rank):
            comm = world.comm(rank).bind(proc)
            mine, vec, pieces = self.chunks[rank], self.vecs[rank], \
                self.pieces[rank]

            def mark():
                if rank == 0:
                    done.append(kernel.now)

            for k, root in enumerate(roots):
                ok = passed[k]
                got = comm.bcast(self.sent_blob if rank == root else None,
                                 root=root)
                ok[0] += got == self.blob
                mark()
                comm.barrier()
                ok[1] += 1
                mark()
                got = comm.gather(mine, root=root)
                ok[2] += (got == self.chunks) if rank == root \
                    else (got is None)
                mark()
                got = comm.allgather(mine)
                ok[3] += got == self.chunks
                mark()
                got = comm.allreduce(vec, SUM)
                ok[4] += bool(np.array_equal(got, self.vec_sum))
                mark()
                got = comm.alltoall(pieces)
                ok[5] += got == self.a2a_expect[rank]
                mark()

        for rank, proc in enumerate(procs):
            proc.spawn(body, rank, name=f"rank{rank}")
        stage = Stage(kernel, _drive_runtime(rt), rt.network, topo)
        return Rep([stage], state=(passed, done))

    def check(self, rep: Rep) -> Outcome:
        passed, done = rep.state
        ops = self.ops
        failed = sum(count != self.ranks for row in passed for count in row)
        failed += max(0, ops - len(done))  # rounds that never completed
        return Outcome(ops, min(failed, ops), done)


# ---------------------------------------------------------------------------
# flow_churn: bare kernel + flow network, no processes
# ---------------------------------------------------------------------------

@dataclass
class _ChurnState:
    net: Any
    started_bytes: float = 0.0
    completed_bytes: float = 0.0
    completed: int = 0
    bad: int = 0


class FlowChurn(Workload):
    """Self-refilling flow churn on a two-site grid (the shape of
    ``wallclock.topology.scaling``): every host keeps ``flows_per_host``
    intra-site flows alive — one leaf-switch over, so traffic crosses
    the leaf-spine links, plus one to the site hub — and each site one
    WAN flow.  Completions at one instant are refilled as one batch."""

    def prepare(self, corrupt: bool) -> None:
        unit = self.inputs["size_unit"]
        self.size_cycle = [float(unit * k)
                           for k in self.inputs["size_cycle"]]
        self.corrupt = corrupt
        # at least: check() also counts the flows still active at the end
        self.ops = self.const["completions"]

    def build(self, observe: Observe) -> Rep:
        c = self.const
        topo, sites = build_grid(sites=c["sites"],
                                 hosts_per_site=c["hosts_per_site"],
                                 switch_fanout=c["switch_fanout"])
        kernel = SimKernel()
        net = FlowNetwork(kernel, topo)
        observe(kernel, None, net)
        fanout = c["switch_fanout"]
        site_names = list(sites)
        intra = []
        for s in site_names:
            names = [h.name for h in sites[s]]
            for i, name in enumerate(names):
                cross = names[(i + fanout) % len(names)]
                hub = names[0] if i else names[1]
                intra.append(topo.route(name, cross, f"{s}-san"))
                intra.append(topo.route(name, hub, f"{s}-san"))
        wan = [topo.route(sites[s][0].name,
                          sites[site_names[(si + 1) % len(site_names)]][0].name,
                          "g-wan")
               for si, s in enumerate(site_names)]
        routes = intra + wan
        state = _ChurnState(net)
        cycle = self.size_cycle
        launched = [0]
        pending: list[int] = []

        def request(route_i: int):
            size = cycle[launched[0] % len(cycle)]
            launched[0] += 1
            state.started_bytes += size
            return routes[route_i], size, \
                lambda flow, r=route_i: completed(flow, r)

        def completed(flow, route_i: int) -> None:
            state.completed += 1
            state.completed_bytes += flow.size
            state.bad += flow.error is not None or flow.remaining != 0.0
            if not pending:
                kernel.schedule(0.0, flush)
            pending.append(route_i)

        def flush() -> None:
            reqs = [request(i) for i in pending]
            pending.clear()
            net.start_flows(reqs)

        def start_batch(slots: list[int]) -> None:
            net.start_flows([request(i) for i in slots])

        # round-robin ramp: (flows_per_host - 1) waves on the cross-leaf
        # routes, one on the hub routes, then the WAN flows
        adds = [i for _ in range(c["flows_per_host"] - 1)
                for i in range(0, len(intra), 2)]
        adds += range(1, len(intra), 2)
        adds += range(len(intra), len(routes))
        batch = c["ramp_batch"]
        batches = [adds[k:k + batch] for k in range(0, len(adds), batch)]
        for k, slots in enumerate(batches):
            kernel.schedule(k * 1e-6, start_batch, slots)
        ramp_end = len(batches) * 1e-6
        target, chunk = c["completions"], c["chunk_s"]

        def drive() -> None:
            try:
                kernel.run(until=ramp_end)
                horizon = ramp_end
                # chunking run(until=...) never changes the event order
                while state.completed < target:
                    horizon += chunk
                    kernel.run(until=horizon)
            finally:
                kernel.shutdown()

        # the churn never drains and run(until=...) stops on a chunk
        # boundary: the work ends when the target-th flow completes
        stage = Stage(kernel, drive, net, topo,
                      ended_at=lambda: net.flow_log[target - 1][1])
        return Rep([stage], state=state)

    def check(self, rep: Rep) -> Outcome:
        state: _ChurnState = rep.state
        net = state.net
        log = net.flow_log
        active = net.active_flows
        failed = state.bad
        # bytes conserve: what completed is what the log says, and what
        # was started is either completed or still in flight
        conserved = (
            len(log) == state.completed == net.completed_flows
            and sum(entry[2] for entry in log) == state.completed_bytes
            and state.started_bytes - state.completed_bytes
            == sum(f.size for f in active))
        # every live flow holds exactly its from-scratch max-min rate
        reference = maxmin_rates(active)
        if self.corrupt and active:
            active[0].rate *= 2.0  # the oracle must notice a wrong rate
        stale = sum(net.current_rate(f) != reference[f] for f in active)
        ops = state.completed + len(active)
        failed += stale + (0 if conserved else state.completed)
        return Outcome(ops, min(failed, ops), [entry[1] for entry in log])


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    "rpc_small": RpcSmall, "bulk_sharing": BulkSharing,
    "fig8_block": GridCcm, "gridccm_cyclic": GridCcm,
    "grid_collectives": GridCollectives, "flow_churn": FlowChurn}
