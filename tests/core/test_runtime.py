"""GridCCM runtime integration: parallel components end-to-end."""

import numpy as np
import pytest

from repro.ccm import ComponentImpl
from repro.core import (
    GridCcmCompiler,
    ParallelClient,
    ParallelComponent,
    ParallelismDescriptor,
)
from repro.corba import MICO, OMNIORB4, Orb, compile_idl
from repro.mpi import create_world, spmd
from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime

IDL = """
module App {
    typedef sequence<double> Vector;
    interface Compute {
        double norm2(in Vector values);
        void store(in Vector values);
        Vector scale(in Vector values, in double factor);
        string info();
    };
    component Solver {
        provides Compute input;
    };
    home SolverHome manages Solver {};
};
"""

PAR_XML = """
<parallelism component="App::Solver">
  <port name="input">
    <operation name="norm2">
      <argument name="values" distribution="block"/>
      <result policy="sum"/>
    </operation>
    <operation name="store">
      <argument name="values" distribution="block"/>
      <result policy="none"/>
    </operation>
    <operation name="scale">
      <argument name="values" distribution="block"/>
      <result policy="concat"/>
    </operation>
  </port>
</parallelism>
"""


class SolverImpl(ComponentImpl):
    def __init__(self):
        self.stored = None
        self.calls = 0

    def norm2(self, values):
        self.calls += 1
        self.mpi.Barrier()  # the paper's Figure-8 workload
        return float(np.sum(values * values))

    def store(self, values):
        self.calls += 1
        self.stored = np.array(values)
        self.mpi.Barrier()

    def scale(self, values, factor):
        self.calls += 1
        return values * factor

    def info(self):
        return f"rank {self.grid_rank}/{self.grid_size}"


@pytest.fixture()
def rt():
    topo = Topology()
    build_cluster(topo, "a", 8)
    runtime = PadicoRuntime(topo)
    yield runtime
    runtime.shutdown()


def _deploy(rt, n_servers, hosts_offset=0, profile=OMNIORB4,
            par_xml=PAR_XML, impl=SolverImpl):
    servers = [rt.create_process(f"a{hosts_offset + i}", f"srv{i}")
               for i in range(n_servers)]
    return ParallelComponent.create(rt, "solver", servers, IDL, par_xml,
                                    impl, profile=profile)


def _parallel_clients(rt, n_clients, hosts_offset):
    procs = [rt.create_process(f"a{hosts_offset + i}", f"cli{i}")
             for i in range(n_clients)]
    return procs, create_world(rt, "cw", procs)


def _client_plan():
    idl = compile_idl(IDL)
    plan = GridCcmCompiler(
        idl, ParallelismDescriptor.parse(PAR_XML)).compile()
    return idl, plan


@pytest.mark.parametrize("n_clients,n_servers", [
    (1, 1), (1, 4), (2, 2), (2, 4), (4, 2), (3, 4),
])
def test_parallel_invocation_matrix(rt, n_clients, n_servers):
    """N client ranks invoke an M-node component; data and reductions
    must be exact for every N→M combination."""
    comp = _deploy(rt, n_servers)
    url = comp.proxy_url("input")
    procs, world = _parallel_clients(rt, n_clients, n_servers)
    total = 120
    full = np.arange(total, dtype="f8")
    results = []

    def body(proc, comm):
        idl, plan = _client_plan()
        orb = Orb(procs[comm.rank], OMNIORB4, idl)
        pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
        from repro.core.distribution import BlockDistribution
        dist = BlockDistribution(comm.size, total)
        local = full[dist.start(comm.rank):dist.end(comm.rank)]
        s = pc.norm2(local)
        pc.store(local)
        scaled = pc.scale(local, 3.0)
        results.append((comm.rank, s, scaled))

    spmd(world, body)
    rt.run()
    expected = float(np.sum(full ** 2))
    assert len(results) == n_clients
    for _rank, s, scaled in results:
        assert s == pytest.approx(expected)
        assert np.allclose(scaled, full * 3.0)
    # the component's nodes hold the full array, block-distributed
    stored = np.concatenate([e.stored for e in comp.executors()])
    assert np.array_equal(stored, full)
    # each op ran exactly three times on every node
    assert all(e.calls == 3 for e in comp.executors())


def test_sequential_client_through_proxy(rt):
    """Interoperability claim: a standard sequential client sees a
    normal CORBA interface; the proxy scatters and gathers."""
    comp = _deploy(rt, 4)
    url = comp.proxy_url("input")
    cli = rt.create_process("a4", "seqcli")
    idl, _plan = _client_plan()
    orb = Orb(cli, OMNIORB4, idl)
    out = {}

    def body(proc):
        stub = orb.string_to_object(url)  # typed proxy stub
        full = np.arange(40, dtype="f8")
        out["norm"] = stub.norm2(full)
        out["scaled"] = stub.scale(full, 2.0)
        out["info"] = stub.info()

    cli.spawn(body)
    rt.run()
    assert out["norm"] == pytest.approx(np.sum(np.arange(40.0) ** 2))
    assert np.allclose(out["scaled"], np.arange(40.0) * 2.0)
    assert out["info"] == "rank 0/4"  # passthrough hits node 0
    # yet the data was truly distributed: every node computed
    assert all(e.calls >= 1 for e in comp.executors())


def test_parallel_aware_client_via_attach_sequential(rt):
    """ParallelClient with comm=None behaves like the proxy path but
    talks to the nodes directly."""
    comp = _deploy(rt, 3)
    url = comp.proxy_url("input")
    cli = rt.create_process("a4", "cli")
    idl, plan = _client_plan()
    orb = Orb(cli, OMNIORB4, idl)
    out = {}

    def body(proc):
        pc = ParallelClient.attach(orb, plan, "input", url)
        assert pc.n_nodes == 3
        full = np.arange(30, dtype="f8")
        out["norm"] = pc.norm2(full)
        out["info"] = pc.info()

    cli.spawn(body)
    rt.run()
    assert out["norm"] == pytest.approx(np.sum(np.arange(30.0) ** 2))
    assert out["info"] == "rank 0/3"


def test_short_array_kicks_idle_nodes(rt):
    """total < m: some nodes receive no data but the SPMD op (with its
    barrier) must still run everywhere."""
    comp = _deploy(rt, 4)
    url = comp.proxy_url("input")
    cli = rt.create_process("a4", "cli")
    idl, plan = _client_plan()
    orb = Orb(cli, OMNIORB4, idl)
    out = {}

    def body(proc):
        pc = ParallelClient.attach(orb, plan, "input", url)
        out["norm"] = pc.norm2(np.array([3.0, 4.0]))

    cli.spawn(body)
    rt.run()
    assert out["norm"] == pytest.approx(25.0)
    assert all(e.calls == 1 for e in comp.executors())
    sizes = [len(e.stored) if e.stored is not None else 0
             for e in comp.executors()]
    del sizes  # store() not called here; the barrier covered by calls


def test_cyclic_distribution_target(rt):
    """The component may declare a cyclic distribution; the layer must
    deal block→cyclic chunks correctly."""
    xml = PAR_XML.replace('name="values" distribution="block"',
                          'name="values" distribution="cyclic"', 1)
    comp = _deploy(rt, 2, par_xml=xml)
    url = comp.proxy_url("input")
    cli = rt.create_process("a4", "cli")
    idl = compile_idl(IDL)
    plan = GridCcmCompiler(idl, ParallelismDescriptor.parse(xml)).compile()
    orb = Orb(cli, OMNIORB4, idl)
    out = {}

    def body(proc):
        pc = ParallelClient.attach(orb, plan, "input", url)
        out["norm"] = pc.norm2(np.arange(6, dtype="f8"))

    cli.spawn(body)
    rt.run()
    assert out["norm"] == pytest.approx(float(np.sum(np.arange(6.0) ** 2)))


def test_wrong_chunk_size_rejected(rt):
    from repro.core.runtime import GridCcmError

    comp = _deploy(rt, 2)
    url = comp.proxy_url("input")
    procs, world = _parallel_clients(rt, 2, 2)
    failures = []

    def body(proc, comm):
        idl, plan = _client_plan()
        orb = Orb(procs[comm.rank], OMNIORB4, idl)
        pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
        # rank 0 passes too many elements for the canonical block split
        local = np.zeros(7 if comm.rank == 0 else 3)
        try:
            pc.norm2(local)
        except GridCcmError:
            failures.append(comm.rank)

    spmd(world, body)
    rt.run()
    assert failures == [0, 1]


def test_server_exception_propagates_to_all_clients(rt):
    class FailingSolver(SolverImpl):
        def norm2(self, values):
            raise RuntimeError("solver blew up")

    comp = _deploy(rt, 2, impl=FailingSolver)
    url = comp.proxy_url("input")
    procs, world = _parallel_clients(rt, 2, 2)
    caught = []

    def body(proc, comm):
        idl, plan = _client_plan()
        orb = Orb(procs[comm.rank], OMNIORB4, idl)
        pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
        from repro.corba import SystemException
        try:
            pc.norm2(np.zeros(10))
        except SystemException as e:
            caught.append((comm.rank, "blew up" in e.detail))

    spmd(world, body)
    rt.run()
    assert sorted(caught) == [(0, True), (1, True)]


def test_two_failing_targets_raise_the_lowest_targets_error(rt):
    """Node 1 fails first, node 0 later: the caller still gets node 0's
    error, after every helper has been joined."""
    class LateFailingSolver(SolverImpl):
        def norm2(self, values):
            if self.grid_rank == 0:
                self.mpi.proc.sleep(0.5)
            raise RuntimeError(f"node {self.grid_rank} blew up")

    comp = _deploy(rt, 2, impl=LateFailingSolver)
    url = comp.proxy_url("input")
    client = rt.create_process("a2", "cli")
    caught = []

    def body(proc):
        from repro.corba import SystemException
        idl, plan = _client_plan()
        pc = ParallelClient.attach(Orb(client, OMNIORB4, idl), plan,
                                   "input", url)
        try:
            pc.norm2(np.zeros(10))
        except SystemException as e:
            caught.append(e.detail)
        caught.append([p.name for p in rt.kernel._processes
                       if "gridccm-" in p.name and p.alive])

    client.spawn(body)
    rt.run()
    assert "node 0 blew up" in caught[0]
    assert caught[1] == []


def test_gridccm_aggregate_bandwidth_scales(rt):
    """Figure-8 shape: n→n aggregate bandwidth grows ~linearly when each
    pair has its own host (one process per machine here)."""
    measured = {}
    for n, offset in ((1, 0), (2, 2)):
        topo = Topology()
        build_cluster(topo, "h", 2 * n)
        local_rt = PadicoRuntime(topo)
        servers = [local_rt.create_process(f"h{i}", f"s{i}")
                   for i in range(n)]
        comp = ParallelComponent.create(local_rt, "solver", servers, IDL,
                                        PAR_XML, SolverImpl, profile=MICO)
        url = comp.proxy_url("input")
        procs = [local_rt.create_process(f"h{n + i}", f"c{i}")
                 for i in range(n)]
        world = create_world(local_rt, "cw", procs)
        size = 1_000_000  # doubles per rank
        t = {}

        def body(proc, comm, n=n, url=url, procs=procs, t=t):
            idl, plan = _client_plan()
            orb = Orb(procs[comm.rank], MICO, idl)
            pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
            local = np.zeros(size)
            pc.store(local[:n])  # warm up connections
            comm.barrier()
            t0 = comm.Wtime()
            pc.store(local)
            comm.barrier()
            if comm.rank == 0:
                t["elapsed"] = comm.Wtime() - t0

        spmd(world, body)
        local_rt.run()
        measured[n] = n * size * 8 / t["elapsed"]
        local_rt.shutdown()
    # per-pair bandwidth in the 43 MB/s régime, aggregate ~doubles
    assert measured[1] / 1e6 == pytest.approx(43, rel=0.10)
    assert measured[2] > measured[1] * 1.7


# ---------------------------------------------------------------------------
# schedule check and plan caches
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("forged", [
    # (src_rank, elements) per caller of one invocation on node 0, which
    # under block(2, 10) → block(2, 10) expects rank 0's five elements
    [(0, 4)],            # listed rank, wrong length
    [(0, 5), (1, 3)],    # rank 1 sends node 0 nothing in this schedule
])
def test_piece_off_the_schedule_fails_every_caller(rt, forged):
    from repro.corba import SystemException

    comp = _deploy(rt, 2)
    url = comp.proxy_url("input")
    cli = rt.create_process("a4", "cli")
    idl, plan = _client_plan()
    orb = Orb(cli, OMNIORB4, idl)
    caught = []

    def caller(proc, node, src_rank, count):
        try:
            node.norm2("forged#1", src_rank, 2, len(forged), 10,
                       np.ones(count))
        except SystemException as exc:
            caught.append((src_rank, exc.detail))

    def body(proc):
        pc = ParallelClient.attach(orb, plan, "input", url)
        node0 = pc._engine.nodes[0]
        workers = [cli.spawn(caller, node0, src_rank, count)
                   for src_rank, count in forged]
        for w in workers:
            proc.join(w)

    cli.spawn(body)
    rt.run()
    assert sorted(r for r, _d in caught) == [r for r, _c in forged]
    for _rank, detail in caught:
        assert "GridCcmError" in detail
        assert "does not match the redistribution schedule" in detail
    layer = comp.nodes[0].layers["input"]
    assert layer._pending == {}
    assert all(e.calls == 0 for e in comp.executors())


def _call_lengths(rt, monkeypatch, lengths):
    """One sequential client calls ``store`` once per length; returns
    (plans built, [the client's cache, each server layer's cache])."""
    from repro.core import runtime as gridccm

    comp = _deploy(rt, 2)
    url = comp.proxy_url("input")
    cli = rt.create_process("a4", "cli")
    idl, plan = _client_plan()
    orb = Orb(cli, OMNIORB4, idl)
    built, caches = [], []
    planner = gridccm.redistribute_schedule

    def counting(source, target, **restrict):
        built.append((source.length, tuple(restrict)))
        return planner(source, target, **restrict)

    def body(proc):
        pc = ParallelClient.attach(orb, plan, "input", url)
        for length in lengths:
            pc.store(np.arange(length, dtype="f8"))
        caches.append(pc._engine._plan_cache)

    monkeypatch.setattr(gridccm, "redistribute_schedule", counting)
    cli.spawn(body)
    rt.run()
    caches += [node.layers["input"]._plan_cache for node in comp.nodes]
    return built, caches


def test_plan_caches_are_bounded(rt, monkeypatch):
    from repro.core.runtime import _PLAN_CACHE_SIZE

    built, caches = _call_lengths(rt, monkeypatch, range(10, 110))
    assert len(caches) == 3
    for cache in caches:
        assert len(cache) == _PLAN_CACHE_SIZE < 100
        # the newest plans survive: the oldest was evicted each time
        assert {plan.source.length for plan in cache.values()} == \
            set(range(110 - _PLAN_CACHE_SIZE, 110))
    assert len(built) == 3 * 100


def test_alternating_lengths_build_each_plan_once(rt, monkeypatch):
    built, caches = _call_lengths(rt, monkeypatch, [40, 60] * 6)
    # one row on the client, one column per server node, per length
    assert sorted(built) == sorted(
        [(length, ("src",)) for length in (40, 60)]
        + [(length, ("dst",)) for length in (40, 60)] * 2)
    assert all(len(cache) == 2 for cache in caches)
