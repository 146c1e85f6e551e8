"""Topology-aware hierarchical collectives (MPICH-G2 style).

Differential tests: the flat rank-order binomial schedule
(:class:`tests.mpi._flat.FlatComm`, the production code forced onto a
one-block site map) is the oracle; production must produce identical
values for every collective, every root, and every rank layout, while
crossing the WAN less and staying within 3 % of flat's virtual time at
worst on the committed table.  Digests captured at the parent of the
one-schedule change, and at the parent of the leaders' exchange, pin
what neither may have moved.
"""

import hashlib

import numpy as np
import pytest

from repro.mpi import create_world, spmd
from repro.mpi.ops import MAXLOC, SUM, ReduceOp
from repro.net import (
    NoRouteError,
    TransferError,
    build_grid,
)
from repro.net.devices import MYRINET_2000
from repro.obs import TraceRecorder
from repro.padicotm import PadicoRuntime
from repro.sanitizer.monitors import TypestateMonitor
from repro.sim import SimDeadlockError
from tests.mpi._flat import flat_world


#: a non-commutative (but associative) op: string/tuple concatenation
CONCAT = ReduceOp("concat", lambda a, b: a + b)


def _grid(sites, hosts_per_site, **kw):
    topo, site_hosts = build_grid(sites=sites,
                                  hosts_per_site=hosts_per_site,
                                  san=MYRINET_2000, **kw)
    rt = PadicoRuntime(topo)
    return rt, site_hosts


def _world(rt, procs, aware):
    """Production (``aware``) or the flat oracle."""
    return (create_world if aware else flat_world)(rt, "w", procs)


def _run(rt, procs, fn, *args, aware=True):
    world = _world(rt, procs, aware)
    threads = spmd(world, fn, *args)
    rt.kernel.run()  # raises if a rank is left blocked
    for t in threads:
        assert t.exc is None, f"{t.name}: {t.exc!r}"
    return world, [t.result for t in threads]


def _procs(rt, site_hosts, order="contiguous"):
    hosts = [h for hs in site_hosts.values() for h in hs]
    if order == "interleaved":
        by_site = list(site_hosts.values())
        hosts = [h for tier in zip(*by_site) for h in tier]
    return [rt.create_process(h, f"p-{h.name}") for h in hosts]


def _all_collectives(proc, comm, root):
    """One pass over every rewritten collective, rooted at ``root``."""
    res = {}
    comm.barrier()
    res["bcast"] = comm.bcast(
        {"from": root, "blob": bytes(2048)} if comm.rank == root
        else None, root=root)["from"]
    buf = np.arange(64, dtype=np.int64) + (1000 if comm.rank == root
                                           else 0)
    comm.Bcast(buf, root=root)
    res["Bcast"] = int(buf.sum())
    res["gather"] = comm.gather((comm.rank, "x" * comm.rank), root=root)
    res["scatter"] = comm.scatter(
        [f"part{i}" for i in range(comm.size)]
        if comm.rank == root else None, root=root)
    res["allgather"] = comm.allgather(comm.rank * 7)
    res["reduce"] = comm.reduce((comm.rank + 1) * 3, SUM, root=root)
    res["reduce_nc"] = comm.reduce(f"r{comm.rank}.", CONCAT, root=root)
    res["maxloc"] = comm.reduce((comm.size - comm.rank, comm.rank),
                                MAXLOC, root=root)
    res["allreduce"] = comm.allreduce(comm.rank + 1, SUM)
    res["alltoall"] = comm.alltoall(
        [f"{comm.rank}->{d}" for d in range(comm.size)])
    sendbuf = np.full(32, float(comm.rank + 1))
    recvbuf = np.zeros(32)
    comm.Reduce(sendbuf, recvbuf if comm.rank == root else None, SUM,
                root=root)
    res["Reduce"] = float(recvbuf[0]) if comm.rank == root else None
    out = np.zeros(32)
    comm.Allreduce(sendbuf, out, SUM)
    res["Allreduce"] = float(out[0])
    comm.barrier()
    return res


@pytest.mark.parametrize("sites,hps", [(2, 2), (3, 3), (2, 1), (4, 2)])
def test_flat_vs_aware_identical_for_every_root(sites, hps):
    """Every collective, every root: aware values == flat values."""
    flat = None
    for aware in (False, True):
        rt, site_hosts = _grid(sites, hps)
        world = _world(rt, _procs(rt, site_hosts), aware)
        per_root = []
        for root in range(sites * hps):
            threads = spmd(world, _all_collectives, root)
            rt.kernel.run()
            for t in threads:
                assert t.exc is None, \
                    f"root={root} {t.name}: {t.exc!r}"
            per_root.append([t.result for t in threads])
        if flat is None:
            flat = per_root
        else:
            assert per_root == flat
        rt.shutdown()


def test_single_site_group_keeps_flat_path():
    """On a one-site group production *is* the flat schedule — same
    messages, same circuits, byte-identical observable traffic."""
    recs = []
    for aware in (False, True):
        rt, site_hosts = _grid(1, 4)
        rec = rt.observe(TraceRecorder())
        _, results = _run(rt, _procs(rt, site_hosts), _all_collectives,
                          1, aware=aware)
        recs.append((results,
                     rec.counters,
                     [(f.src, f.dst, f.nbytes, f.fabric)
                      for f in rec.flow_records()]))
        rt.shutdown()
    assert recs[0] == recs[1]
    assert "mpi.wan_crossings" not in recs[0][1]


def test_bcast_crosses_wan_exactly_sites_minus_one():
    for sites, hps in ((2, 3), (4, 2)):
        rt, site_hosts = _grid(sites, hps)
        procs = _procs(rt, site_hosts)

        def body(proc, comm):
            comm.bcast(bytes(4096) if comm.rank == 0 else None, root=0)

        world, _ = _run(rt, procs, body, aware=True)
        stats = world.comm(0).coll_stats
        assert stats.wan_crossings == sites - 1
        assert stats.wan_bytes["bcast"] == pytest.approx(
            (sites - 1) * len(__import__("pickle").dumps(bytes(4096))))
        rt.shutdown()


def test_flat_mode_crosses_more_and_both_modes_count():
    """The oracle keeps the counters too (against the real site map);
    production crosses strictly less on a multi-site group."""
    xings = {}
    for aware in (False, True):
        rt, site_hosts = _grid(3, 3)
        procs = _procs(rt, site_hosts)

        def body(proc, comm):
            comm.bcast(b"x" * 1024 if comm.rank == 0 else None, root=0)
            comm.allreduce(comm.rank, SUM)

        world, _ = _run(rt, procs, body, aware=aware)
        xings[aware] = world.comm(0).coll_stats.wan_crossings
        rt.shutdown()
    assert 0 < xings[True] < xings[False]


def test_obs_counters_emitted_only_with_monitor():
    rt, site_hosts = _grid(2, 2)
    rec = rt.observe(TraceRecorder())
    procs = _procs(rt, site_hosts)

    def body(proc, comm):
        comm.bcast(b"payload" if comm.rank == 0 else None, root=0)

    world, _ = _run(rt, procs, body, aware=True)
    assert rec.counters["mpi.wan_crossings"] == 1.0
    assert rec.counters["mpi.wan_bytes.bcast"] > 0
    rt.shutdown()


def test_intra_site_edges_ride_the_site_san():
    """Aware mode's intra-site tree edges go over a per-site subcircuit
    whose fabric the selector picks — the site SAN, not the WAN."""
    rt, site_hosts = _grid(2, 3)
    rec = rt.observe(TraceRecorder())
    procs = _procs(rt, site_hosts)
    payload = bytes(1 << 16)

    def body(proc, comm):
        comm.bcast(payload if comm.rank == 0 else None, root=0)

    _run(rt, procs, body, aware=True)
    fabrics = {f.fabric for f in rec.flow_records() if f.nbytes > 4096}
    assert "g0-san" in fabrics and "g1-san" in fabrics
    wan_flows = [f for f in rec.flow_records()
                 if f.fabric == "g-wan" and f.nbytes > 4096]
    assert len(wan_flows) == 1  # the single leader-to-leader crossing
    rt.shutdown()


def test_non_contiguous_sites_still_correct():
    """Interleaved rank placement (sites are not contiguous rank
    blocks): reduce falls back to the flat schedule internally, and
    every collective still matches the oracle."""
    out = {}
    for aware in (False, True):
        rt, site_hosts = _grid(3, 2)
        procs = _procs(rt, site_hosts, order="interleaved")
        _, results = _run(rt, procs, _all_collectives, 2, aware=aware)
        out[aware] = results
        rt.shutdown()
    assert out[True] == out[False]


def test_non_power_of_two_and_uneven_roots():
    out = {}
    for aware in (False, True):
        rt, site_hosts = _grid(3, 3)
        procs = _procs(rt, site_hosts)
        _, results = _run(rt, procs, _all_collectives, 5, aware=aware)
        out[aware] = results
        rt.shutdown()
    assert out[True] == out[False]


def test_split_inherits_tuning_and_subgroup_hierarchy():
    rt, site_hosts = _grid(2, 3)
    procs = _procs(rt, site_hosts)

    def body(proc, comm):
        # odd/even split: both halves still span the two sites
        sub = comm.split(color=comm.rank % 2, key=comm.rank)
        val = sub.allreduce(sub.rank, SUM)
        return val, sub.coll_aware, sub.coll_stats.wan_crossings > 0

    _, results = _run(rt, procs, body, aware=True)
    for val, aware, crossed in results:
        assert val == sum(range(3))
        assert aware and crossed
    rt.shutdown()


def test_wan_failure_mid_collective_fails_both_modes():
    """Kill the destination site's router-core cable while the 8 MiB
    broadcast is crossing it: in both modes the sending leader edge is
    rank 0 -> rank 2, and in both modes that sender observes the
    failure (TransferError mid-flight) while site 1 never completes:
    its ranks are left blocked, and run() reports them stranded."""
    errs = {}
    for aware in (False, True):
        rt, site_hosts = _grid(2, 2)
        procs = _procs(rt, site_hosts)
        payload = bytes(8 << 20)
        out = {}

        def body(proc, comm):
            try:
                comm.bcast(payload if comm.rank == 0 else None, root=0)
            except (TransferError, NoRouteError) as e:
                out[comm.rank] = type(e).__name__
                return "failed"
            return "ok"

        def saboteur(proc):
            proc.sleep(1.0)  # the 0->2 crossing is in flight by now
            rt.network.fail_link(
                rt.topology.fabrics["g-wan"].link("g-wan-core", "g-wan-r1"))

        world = _world(rt, procs, aware)
        threads = spmd(world, body)
        procs[0].spawn(saboteur, name="saboteur")
        with pytest.raises(SimDeadlockError) as info:
            rt.kernel.run()
        for t in threads[2:]:
            assert t.alive, "site 1 completed despite the dead WAN link"
            assert f"{t.name} waits on" in str(info.value)
        errs[aware] = out.get(0)
        rt.shutdown()
    assert errs[False] == errs[True] == "TransferError"


def test_wan_failure_mid_exchange_fails_both_leaders():
    """The same cable dies while the two leaders of a 2 x 2 grid are
    swapping 8 MiB partials: the exchange is symmetric, so *both*
    leaders are senders and both observe the failure; no rank returns
    a result, and the two ranks behind the leaders are left stranded."""
    rt, site_hosts = _grid(2, 2)
    procs = _procs(rt, site_hosts)
    out = {}

    def body(proc, comm):
        try:
            comm.allreduce(np.ones(1 << 20), SUM)
        except (TransferError, NoRouteError) as e:
            out[comm.rank] = type(e).__name__
            return "failed"
        return "ok"

    def saboteur(proc):
        proc.sleep(1.0)  # both crossings are in flight by now
        rt.network.fail_link(
            rt.topology.fabrics["g-wan"].link("g-wan-core", "g-wan-r1"))

    threads = spmd(create_world(rt, "w", procs), body)
    procs[0].spawn(saboteur, name="saboteur")
    with pytest.raises(SimDeadlockError) as info:
        rt.kernel.run()
    assert out == {0: "TransferError", 2: "TransferError"}
    assert [t.alive for t in threads] == [False, True, False, True]
    for t in (threads[1], threads[3]):
        assert f"{t.name} waits on" in str(info.value)
    assert "ok" not in [t.result for t in threads if not t.alive]
    rt.shutdown()


# ---------------------------------------------------------------------
# pins captured at the parent of the one-schedule change
# ---------------------------------------------------------------------
def _timed_collectives(proc, comm):
    """Every collective once, the rooted ones at roots 0, 1, n-1 and
    n/2, each fenced by a barrier and timed on this rank; alltoall runs
    last so nothing is measured after it."""
    n, me = comm.size, comm.rank
    spans = []

    def timed(name, fn):
        comm.barrier()
        t0 = comm.Wtime()
        fn()
        spans.append((name, comm.Wtime() - t0))

    for root in (0, 1, n - 1, n // 2):
        timed(f"bcast@{root}", lambda: comm.bcast(
            bytes(3000) if me == root else None, root=root))
        buf = np.arange(512, dtype=np.int64)
        timed(f"Bcast@{root}", lambda: comm.Bcast(buf, root=root))
        timed(f"gather@{root}", lambda: comm.gather(
            "g" * (100 + 10 * me), root=root))
        timed(f"scatter@{root}", lambda: comm.scatter(
            ["s" * (200 + i) for i in range(n)] if me == root else None,
            root=root))
        timed(f"reduce@{root}", lambda: comm.reduce(
            f"r{me}.", CONCAT, root=root))
        out = np.zeros(256)
        timed(f"Reduce@{root}", lambda: comm.Reduce(
            np.full(256, me + 1.0), out if me == root else None, SUM,
            root=root))
    timed("barrier", comm.barrier)
    timed("allgather", lambda: comm.allgather("a" * (50 + me)))
    timed("allreduce", lambda: comm.allreduce(me + 1, SUM))
    sub = comm.split(color=me % 2, key=me)
    timed("split.allreduce", lambda: sub.allreduce(me, SUM))
    timed("alltoall", lambda: comm.alltoall(
        ["x" * (64 + d) for d in range(n)]))
    return spans


def _pin(sites, hps, order, aware, only=None):
    """``(final virtual time, events, world crossings, digest of every
    rank's per-operation virtual durations)`` of the pin workload (of
    the operations named in ``only``, when given)."""
    rt, site_hosts = _grid(sites, hps)
    world, spans = _run(rt, _procs(rt, site_hosts, order),
                        _timed_collectives, aware=aware)
    h = hashlib.sha256()
    for rank, rank_spans in enumerate(spans):
        for name, dur in rank_spans:
            if only is None or name in only:
                h.update(f"{rank} {name} {dur!r}\n".encode())
    pin = (repr(rt.kernel.now), rt.kernel.events_processed,
           world.comm(0).coll_stats.wan_crossings, h.hexdigest()[:16])
    rt.shutdown()
    return pin


@pytest.mark.parametrize("aware", [True, False])
def test_single_site_schedule_is_the_parent_flat_path(aware):
    """The one-block case *is* the old flat code: clock, event count
    and every duration as the parent had them (in either of its modes),
    from production and from the oracle alike."""
    assert _pin(1, 8, "contiguous", aware) == \
        ("0.0035482638333333384", 3658, 0, "d9d2868af46eb873")


@pytest.mark.parametrize("layout,parent_flat", [
    ((3, 3, "contiguous"),
     ("1.9298511002857295", 4283, 516, "e5c1076e55368a22")),
    ((3, 2, "interleaved"),
     ("2.29605132995918", 2563, 464, "ce11f1e5550dfef2")),
])
def test_flat_oracle_is_the_parent_flat_mode(layout, parent_flat):
    """``FlatComm`` reproduces the parent's ``CollTuning(aware=False)``
    on multi-site grids, crossing counts included."""
    assert _pin(*layout, aware=False) == parent_flat


def _rooted_collectives(proc, comm):
    """The collectives the leaders' exchange leaves alone — the rooted
    ones at roots 0, 1, n-1 and n/2, then alltoall — back to back with
    no fence (a fencing barrier hands its own exit skew to whatever it
    fences): this rank's clock after each operation."""
    n, me = comm.size, comm.rank
    marks = []

    def mark(name, fn):
        fn()
        marks.append((name, comm.Wtime()))

    for root in (0, 1, n - 1, n // 2):
        mark("bcast", lambda: comm.bcast(
            bytes(3000) if me == root else None, root=root))
        buf = np.arange(512, dtype=np.int64)
        mark("bcast", lambda: comm.Bcast(buf, root=root))
        mark("gather", lambda: comm.gather(
            "g" * (100 + 10 * me), root=root))
        mark("scatter", lambda: comm.scatter(
            ["s" * (200 + i) for i in range(n)] if me == root else None,
            root=root))
        mark("reduce", lambda: comm.reduce(f"r{me}.", CONCAT, root=root))
        out = np.zeros(256)
        mark("reduce", lambda: comm.Reduce(
            np.full(256, me + 1.0), out if me == root else None, SUM,
            root=root))
    mark("alltoall", lambda: comm.alltoall(
        ["x" * (64 + d) for d in range(n)]))
    return marks


def test_only_the_exchanged_collectives_moved_on_a_multi_site_grid():
    """4 sites x 5 hosts against the parent (rooted compositions for
    barrier / allgather / allreduce).  Everything else is bit-identical
    — clock, events, crossings, and every rank's completion time of
    every bcast, gather, scatter, reduce and alltoall — and the three
    exchanged operations (``split`` rides allgather) have new digests
    at 366 crossings for the parent's 300."""
    rt, site_hosts = _grid(4, 5)
    world, marks = _run(rt, _procs(rt, site_hosts), _rooted_collectives)
    digests = {}
    for rank, rank_marks in enumerate(marks):
        for name, when in rank_marks:
            digests.setdefault(name, hashlib.sha256()).update(
                f"{rank} {when!r}\n".encode())
    assert (repr(rt.kernel.now), rt.kernel.events_processed,
            world.comm(0).coll_stats.wan_crossings) == \
        ("0.4083587171054408", 4145, 102)
    assert {name: h.hexdigest()[:16] for name, h in digests.items()} == {
        "bcast": "2f05904374cdba09", "gather": "e6df0f66a7271858",
        "scatter": "6d9a4b6cd56c0576", "reduce": "fe32d6f4ad7f8f99",
        "alltoall": "63a4634ded8b317b"}
    rt.shutdown()
    _now, _events, crossings, digest = _pin(
        4, 5, "contiguous", aware=True,
        only=("barrier", "allgather", "allreduce", "split.allreduce"))
    assert (crossings, digest) == (366, "c03e578e7ff3ce2f")


# ---------------------------------------------------------------------
# the flat-vs-hierarchy table (docs/PERFORMANCE.md, EXPERIMENTS.md A6)
# ---------------------------------------------------------------------
TABLE_OPS = ("bcast", "barrier", "gather", "allgather", "allreduce",
             "alltoall")
TABLE_PAYLOAD = 1024 * 1024
#: per-rank payload of the gather-shaped ops (root-side total stays
#: proportional to the rank count)
TABLE_CHUNK = 64 * 1024


def _table_run(sites, aware):
    """Each table operation on its own ``dup()`` (whose stats then hold
    exactly that operation's crossings) on ``sites`` x 5 hosts:
    ``(virtual duration, crossings)`` per op and the per-rank values."""
    rt, site_hosts = _grid(sites, 5)
    spans = {op: [] for op in TABLE_OPS}
    stats = {}

    def body(proc, comm):
        blob, chunk = bytes(TABLE_PAYLOAD), bytes(TABLE_CHUNK)
        vec = np.ones(TABLE_PAYLOAD // 8)

        def timed(op, fn):
            sub = comm.dup()
            if comm.rank == 0:
                stats[op] = sub.coll_stats
            comm.barrier()
            t0 = comm.Wtime()
            out = fn(sub)
            spans[op].append((t0, comm.Wtime()))
            return out

        timed("bcast", lambda c: c.bcast(
            blob if c.rank == 0 else None, root=0))
        timed("barrier", lambda c: c.barrier())
        return [
            timed("gather", lambda c: c.gather((c.rank, chunk), root=0)),
            timed("allgather", lambda c: c.allgather((c.rank, chunk))),
            float(timed("allreduce",
                        lambda c: c.allreduce(vec, SUM)).sum()),
            timed("alltoall", lambda c: c.alltoall(
                [bytes([d % 251]) * (TABLE_PAYLOAD // c.size)
                 for d in range(c.size)]))]

    _, values = _run(rt, _procs(rt, site_hosts), body, aware=aware)
    rt.shutdown()
    return {op: (max(t1 for _t0, t1 in ss) - min(t0 for t0, _t1 in ss),
                 stats[op].wan_crossings)
            for op, ss in spans.items()}, values


#: what barrier / allgather / allreduce read as rooted operation +
#: broadcast (reduce(0) + bcast(0) and the like: 2·(sites − 1)
#: crossings, 2·log2(sites) serial WAN steps) — the same flat run then
#: as now, so new ÷ old speedup is old ÷ new virtual time
ROOTED_COMPOSITION = {
    2: dict(barrier=2.50, allgather=3.79, allreduce=4.13),
    4: dict(barrier=1.75, allgather=4.66, allreduce=3.90),
    8: dict(barrier=1.50, allgather=4.91, allreduce=3.74),
}


@pytest.mark.parametrize("sites,speedups", [
    (2, dict(bcast=5.26, barrier=4.99, gather=1.09, allgather=10.22,
             allreduce=7.72, alltoall=1.07)),
    (4, dict(bcast=5.98, barrier=3.50, gather=0.99, allgather=15.50,
             allreduce=7.50, alltoall=0.99)),
    (8, dict(bcast=5.91, barrier=3.00, gather=0.99, allgather=20.01,
             allreduce=7.26, alltoall=1.03)),
])
def test_flat_vs_hierarchy_table(sites, speedups):
    """Flat / hierarchy virtual time at 1 MiB on ``sites`` x 5 hosts,
    and what each operation puts on the WAN: a rooted one crosses it
    once per remote site, alltoall once per ordered pair of sites, and
    the three symmetric ones once per leader per step of their one
    sweep — more crossings than the rooted compositions they replace,
    for at most 0.6x of their virtual time."""
    flat, flat_values = _table_run(sites, aware=False)
    hier, hier_values = _table_run(sites, aware=True)
    assert hier_values == flat_values
    assert hier["bcast"][1] == hier["gather"][1] == sites - 1
    assert hier["alltoall"][1] == sites * (sites - 1)
    assert flat["alltoall"][1] == 25 * sites * (sites - 1)
    for op in TABLE_OPS:
        ratio = flat[op][0] / hier[op][0]
        assert ratio >= 0.97, f"{op} at {sites} sites: {ratio:.2f}x"
        assert ratio == pytest.approx(speedups[op], abs=0.006), op
        if op in ROOTED_COMPOSITION[sites]:
            assert hier[op][1] == sites * (sites.bit_length() - 1)
            assert ROOTED_COMPOSITION[sites][op] / ratio <= 0.6, op


def test_closed_world_fails_on_every_rank():
    """Closing the world's circuit closes the per-site subcircuits with
    it: no rank is left blocked on one."""
    rt, site_hosts = _grid(2, 3)
    monitor = rt.observe(TypestateMonitor())
    procs = _procs(rt, site_hosts)
    world = create_world(rt, "w", procs)

    def body(proc, comm):
        try:
            return comm.bcast("x" if comm.rank == 1 else None, root=1)
        except RuntimeError as exc:
            return exc

    threads = spmd(world, body)  # establishes both subcircuits
    rt.kernel.run()
    assert [t.result for t in threads] == ["x"] * 6
    world.circuit.close()
    assert sorted(c.name for c, state in monitor.states().items()
                  if state == "closed") == \
        ["mpi:w", "mpi:w|site:g0", "mpi:w|site:g1"]
    threads = spmd(world, body)
    rt.kernel.run()  # raises if a rank is left blocked
    for t in threads:
        assert isinstance(t.result, RuntimeError), f"{t.name}: {t.result!r}"
    assert len(monitor.violations) == 6
    rt.shutdown()
