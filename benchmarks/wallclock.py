"""Wall-clock throughput benchmarks (``BENCH_wallclock.json``).

Everything in ``BENCH_padico.json`` is a *virtual*-clock quantity —
bit-for-bit reproducible, but silent about how fast the simulator
itself runs.  This module measures the reproduction's three hot paths
on the **process wall clock**:

* ``wallclock.kernel`` — bare event-loop throughput (events/s): chains
  of self-rescheduling timers exercising heap push/pop and dispatch
  (no process switches — the whole-run switch cost is the
  ``sim.switch_s`` line of the ``benchmarks/e2e`` ledger);
* ``wallclock.flows`` — concurrent-flow churn (flows completed per
  wall-clock second) at F ∈ {10, 100, 1000} concurrent flows over
  disjoint host pairs, the regime the solver's component walk exists
  for; the solver-iteration counts (the ``net.maxmin.iterations`` obs
  counter) land in the series meta;
* ``wallclock.topology.scaling`` — grid-scale event throughput
  (events/s) on :func:`repro.net.build_grid` topologies at 100 / 1 000 /
  10 000 hosts (500 hosts per site, 10 ring flows per host plus one WAN
  flow per site — 100k+ concurrent flows at the top size), the regime
  of the whole-shard solves and the vectorized fill; published by
  ``--topology-scaling``, smoke slice ``make bench-topology``.
  (Exactness at this scale is gated where it is measured: the
  ``flow_churn`` oracle of ``benchmarks/e2e`` and the fuzz in
  ``tests/net/test_solver_fuzz.py``);
* ``wallclock.cdr.marshal`` / ``wallclock.cdr.unmarshal`` — CDR
  encode/decode throughput (MB/s, MB = 1e6 bytes) for bulk octet and
  double sequences plus a scalar-struct torture case;
* ``wallclock.marshal_roundtrip`` — full encode→wire→decode roundtrips
  of a bulk double sequence at 64 KiB / 1 MiB / 16 MiB, once under the
  copying discipline (``zero_copy=False`` + ``getvalue()``) and once
  over the zero-copy segment path (``zero_copy=True`` + ``getbuffer()``
  + ``CdrInputStream`` over the :class:`WireBuffer`).  The meta records
  the per-size speedup; CI's acceptance bar is ≥ 3× at 16 MiB;
* ``wallclock.gridccm.scaling`` — the paper's Figure-8 aggregated
  bandwidth experiment (two n-node components, block-redistributed
  vector, server op is an MPI barrier) measured on the wall clock:
  total payload bytes over the wall seconds the simulation takes, as n
  grows.  The virtual-clock twin lives in ``BENCH_padico.json``; this
  series tracks how the zero-copy wire path and the rank-local planner
  scale the *simulator* (``--gate-gridccm-scaling``: the 8-node point
  may not fall below a third of the 2-node point).

Numbers vary with the host machine — the document is a trajectory, not
a reproducibility artifact, which is why it carries the separate
``padico-wallclock/1`` schema tag.  Regenerate with::

    PYTHONPATH=src python -m benchmarks.run --wallclock

Wall-clock reads live in ``benchmarks/`` on purpose: ``repro-lint``
bans them (det-wallclock) inside the simulated tree.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

import numpy as np

from repro.corba.cdr import CdrInputStream, CdrOutputStream, decode_value, \
    encode_value
from repro.corba.idl.types import PrimitiveType, SequenceType, StructType
from repro.net import MYRINET_2000, Topology, build_cluster, build_grid
from repro.net.flows import FlowNetwork
from repro.obs import BenchResult, TraceRecorder
from repro.sim import SimKernel

#: concurrent-flow levels for the churn series (the ISSUE's F axis)
FLOW_LEVELS = (10, 100, 1000)
QUICK_FLOW_LEVELS = (10, 100)

#: host pairs for the churn topology; disjoint pairs give the solver
#: independent components, the regime grids actually operate in
MAX_PAIRS = 32


# ---------------------------------------------------------------------------
# kernel event throughput
# ---------------------------------------------------------------------------

def kernel_event_rate(n_events: int, chains: int = 8) -> float:
    """Events per wall second for ``chains`` self-rescheduling timers."""
    kernel = SimKernel()
    per_chain = n_events // chains
    step = 1e-6

    def tick(remaining: int) -> None:
        if remaining > 0:
            kernel.schedule(step, tick, remaining - 1)

    for c in range(chains):
        kernel.schedule(c * step / chains, tick, per_chain - 1)
    t0 = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - t0
    return kernel.events_processed / elapsed


def bench_kernel(quick: bool) -> BenchResult:
    levels = (20_000,) if quick else (50_000, 200_000)
    points = []
    for n in levels:
        points.append((n, kernel_event_rate(n)))
    return BenchResult(
        name="wallclock.kernel", unit="events/s", points=tuple(points),
        meta={"workload": "8 self-rescheduling timer chains",
              "clock": "wall"})


# ---------------------------------------------------------------------------
# concurrent-flow churn
# ---------------------------------------------------------------------------

def _run_churn(n_flows: int,
               total_flows: int) -> tuple[float, FlowNetwork, SimKernel]:
    """Drive ``n_flows`` concurrent flows (refilled up to ``total_flows``
    completions) over disjoint host pairs; returns (wall s, net, kernel)."""
    pairs = min(n_flows, MAX_PAIRS)
    topo = Topology()
    build_cluster(topo, "h", 2 * pairs, san=MYRINET_2000, lan=None)
    kernel = SimKernel()
    net = FlowNetwork(kernel, topo)
    routes = [topo.route(f"h{2 * i}", f"h{2 * i + 1}", "h-san")
              for i in range(pairs)]
    launched = [0]

    def start_one(slot: int) -> None:
        launched[0] += 1
        # deterministic size spread so completions interleave instead of
        # finishing in lockstep
        size = 100_000 * (1 + (launched[0] % 7))
        net.start_flow(routes[slot % pairs], size,
                       lambda flow, s=slot: refill(s))

    def refill(slot: int) -> None:
        if launched[0] < total_flows:
            start_one(slot)

    def kick(slot: int) -> None:
        start_one(slot)

    for s in range(n_flows):
        # stagger the initial wave so adds hit a populated network
        kernel.schedule(s * 1e-5, kick, s)
    t0 = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - t0
    assert net.completed_flows == total_flows, \
        f"churn lost flows: {net.completed_flows}/{total_flows}"
    return elapsed, net, kernel


def bench_flows(quick: bool) -> BenchResult:
    levels = QUICK_FLOW_LEVELS if quick else FLOW_LEVELS
    rounds = 2 if quick else 4
    points = []
    meta: dict[str, object] = {"clock": "wall",
                               "workload": "disjoint-pair flow churn",
                               "rounds": rounds}
    recorder = TraceRecorder()
    meta["max_pairs"] = MAX_PAIRS
    for f in levels:
        total = f * rounds
        elapsed, net, kernel = _run_churn(f, total)
        points.append((f, total / elapsed))
        # above MAX_PAIRS the F "concurrent" flows share min(F, MAX_PAIRS)
        # routes, so record what the level actually exercised
        meta[f"effective_pairs_F{f}"] = min(f, MAX_PAIRS)
        # solver rounds per churn level, recorded post-run
        recorder.counter(f"net.maxmin.iterations.incremental.F{f}",
                         net.solver_iterations)
        meta[f"solver_iterations_incremental_F{f}"] = net.solver_iterations
        meta[f"events_skipped_F{f}"] = kernel.events_skipped
        meta[f"timer_reuses_F{f}"] = net.timer_reuses
    meta["counter_names"] = sorted(recorder.counters)
    return BenchResult(name="wallclock.flows", unit="flows/s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# grid-scale topology churn (the whole-shard tier's reason to exist)
# ---------------------------------------------------------------------------

#: host-count axis for the scaling series
GRID_HOSTS = (100, 1_000, 10_000)
QUICK_GRID_HOSTS = (100,)
#: hosts per site: large Myrinet islands behind leaf/spine switches, so
#: the host axis scales both the site count and the per-site coupling
GRID_HOSTS_PER_SITE = 500
#: concurrent intra-site flows per host, plus one WAN flow per site for
#: the coupling tier — 10k hosts = 100k+ concurrent flows
GRID_FLOWS_PER_HOST = 10
GRID_SWITCH_FANOUT = 32
#: completions measured inside the timed churn window, per host count —
#: solver cost per completion grows with shard size, so the window
#: shrinks as the grid grows (the solver-time *ratio* is the metric and
#: every completion contributes two solves to each side of it)
GRID_CHURN_TARGETS = {100: 2_000, 1_000: 600, 10_000: 200}
QUICK_GRID_CHURN_TARGETS = {100: 500}
#: virtual-clock chunk the churn window advances by between completion
#: checks; chunking run(until=...) never changes the event order
GRID_CHUNK_S = 2e-3
#: flows admitted per ramp batch (one ``start_flows`` call each)
GRID_RAMP_BATCH = 2_000


def _instrument_solver(net: FlowNetwork) -> Callable[[], float]:
    """Wrap the network's solve + component-walk entry points with
    wall-clock accumulation; returns a ``read()`` closure.

    The instrumented quantity is exactly the per-event allocator work
    — the component walk plus the progressive fill — excluding the
    kernel costs around it (event dispatch, eager byte accounting,
    completion-timer scans).  Wall-clock reads live here in the bench
    harness because the src tree bans them (det-wallclock).
    """
    acc = [0.0]
    solve, component = net._solve, net._component

    def timed_solve(*args, **kwargs):
        t0 = time.perf_counter()
        solve(*args, **kwargs)
        acc[0] += time.perf_counter() - t0

    def timed_component(*args, **kwargs):
        t0 = time.perf_counter()
        out = component(*args, **kwargs)
        acc[0] += time.perf_counter() - t0
        return out

    net._solve = timed_solve
    net._component = timed_component
    return lambda: acc[0]


def _run_grid_churn(n_hosts: int, churn_target: int) -> dict:
    """Self-refilling flow churn on a :func:`build_grid` topology.

    Each host sends ``GRID_FLOWS_PER_HOST - 1`` flows one switch-leaf
    over (host *i* → host *i + fanout*, so the traffic crosses the
    site's leaf-spine links) and one flow to the site's first host.
    The shared spine links and the hub's downlink weld every site into
    a single link-connected component — the regime where a per-event
    component walk would cover the whole site and the whole-shard
    tier earns its keep.  One cross-site WAN flow per site feeds the
    coupling tier.

    The ramp admits flows in :data:`GRID_RAMP_BATCH`-sized
    ``start_flows`` batches (bit-identical to sequential same-instant
    adds, one re-solve per batch) and is timed separately from the
    churn window, which advances the virtual clock in
    :data:`GRID_CHUNK_S` chunks until ``churn_target`` completions
    land.  Solver wall time (component walks + fills) is accumulated
    via :func:`_instrument_solver` and split at the window boundary.
    """
    n_sites = max(2, n_hosts // GRID_HOSTS_PER_SITE)
    per_site = max(2, n_hosts // n_sites)
    topo, sites = build_grid(sites=n_sites, hosts_per_site=per_site,
                             switch_fanout=GRID_SWITCH_FANOUT)
    kernel = SimKernel()
    net = FlowNetwork(kernel, topo)
    solver_wall = _instrument_solver(net)
    site_names = list(sites)
    intra: list = []
    for s in site_names:
        names = [h.name for h in sites[s]]
        for i in range(len(names)):
            cross = names[(i + GRID_SWITCH_FANOUT) % len(names)]
            hub = names[0] if i else names[1]
            intra.append(topo.route(names[i], cross, f"{s}-san"))
            intra.append(topo.route(names[i], hub, f"{s}-san"))
    wan_routes = []
    for si, s in enumerate(site_names):
        a = sites[s][0].name
        b = sites[site_names[(si + 1) % len(site_names)]][0].name
        wan_routes.append(topo.route(a, b, "g-wan"))
    routes = intra + wan_routes
    launched = [0]

    def flow_size() -> float:
        launched[0] += 1
        # deterministic size spread so completions interleave
        return 1_000_000.0 * (1 + launched[0] % 7)

    # churn refills are collected per completion instant and re-issued
    # as one ``start_flows`` batch at the same virtual time (symmetric
    # rates complete flows in large simultaneous batches; re-admitting
    # them one by one would re-solve the allocation once per flow,
    # drowning the workload in driver-induced solves)
    pending: list = []

    def flush() -> None:
        reqs = [(routes[i], flow_size(), lambda flow, r=i: refill(r))
                for i in pending]
        pending.clear()
        net.start_flows(reqs)

    def refill(route_i: int) -> None:
        if not pending:
            kernel.schedule(0.0, flush)
        pending.append(route_i)

    def start_batch(slots: list) -> None:
        net.start_flows([
            (routes[i], flow_size(), lambda flow, r=i: refill(r))
            for i in slots])

    # round-robin the adds so every route ramps evenly: 9 waves on the
    # cross-leaf routes (even slots), one on the hub routes (odd slots)
    cross_slots = range(0, len(intra), 2)
    adds = [i for _ in range(GRID_FLOWS_PER_HOST - 1) for i in cross_slots]
    adds.extend(range(1, len(intra), 2))
    adds.extend(range(len(intra), len(routes)))
    batches = [adds[k:k + GRID_RAMP_BATCH]
               for k in range(0, len(adds), GRID_RAMP_BATCH)]
    for k, slots in enumerate(batches):
        kernel.schedule(k * 1e-6, start_batch, slots)
    ramp_end = len(batches) * 1e-6
    t0 = time.perf_counter()
    kernel.run(until=ramp_end)
    t_ramp = time.perf_counter() - t0
    solver_ramp = solver_wall()

    ev0 = kernel.events_processed
    c0 = net.completed_flows
    horizon = ramp_end
    t1 = time.perf_counter()
    while net.completed_flows - c0 < churn_target:
        horizon += GRID_CHUNK_S
        kernel.run(until=horizon)
    t_churn = time.perf_counter() - t1
    return {
        "ramp_wall": t_ramp,
        "churn_wall": t_churn,
        "events": kernel.events_processed - ev0,
        "completions": net.completed_flows - c0,
        "solver_ramp": solver_ramp,
        "solver_churn": solver_wall() - solver_ramp,
        "net": net,
        "topo": topo,
    }


def bench_topology_scaling(quick: bool) -> BenchResult:
    levels = QUICK_GRID_HOSTS if quick else GRID_HOSTS
    targets = QUICK_GRID_CHURN_TARGETS if quick else GRID_CHURN_TARGETS
    points = []
    meta: dict[str, object] = {
        "clock": "wall",
        "workload": f"per-site flow rings ({GRID_FLOWS_PER_HOST}/host) + "
                    f"one WAN flow per site, {GRID_HOSTS_PER_SITE} "
                    f"hosts/site, switch fanout {GRID_SWITCH_FANOUT}",
        "churn_targets": {f"H{n}": t for n, t in sorted(targets.items())},
    }
    recorder = TraceRecorder()
    for n in levels:
        churn = targets[n]
        run = _run_grid_churn(n, churn)
        net, topo = run["net"], run["topo"]
        points.append((n, run["events"] / run["churn_wall"]))
        hits, misses = topo.route_cache_stats()
        recorder.counter(f"net.route_cache.hits.H{n}", hits)
        recorder.counter(f"net.route_cache.misses.H{n}", misses)
        recorder.counter(f"net.maxmin.iterations.sharded.H{n}",
                         net.solver_iterations)
        meta[f"concurrent_flows_H{n}"] = len(net.active_flows)
        meta[f"ramp_wall_s_H{n}"] = round(run["ramp_wall"], 3)
        meta[f"solver_wall_s_H{n}"] = round(
            run["solver_ramp"] + run["solver_churn"], 3)
        meta[f"completions_per_s_H{n}"] = round(
            run["completions"] / run["churn_wall"], 1)
        meta[f"route_cache_hit_rate_H{n}"] = round(
            hits / (hits + misses), 3) if hits + misses else 0.0
    meta["counter_names"] = sorted(recorder.counters)
    return BenchResult(name="wallclock.topology.scaling", unit="events/s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# CDR marshal / unmarshal throughput
# ---------------------------------------------------------------------------

_OCTET_SEQ = SequenceType(PrimitiveType("octet"))
_DOUBLE_SEQ = SequenceType(PrimitiveType("double"))
_HEADER_STRUCT = StructType(
    "Header", "Bench::Header",
    [("magic", PrimitiveType("unsigned long")),
     ("version", PrimitiveType("octet")),
     ("flags", PrimitiveType("octet")),
     ("size", PrimitiveType("unsigned long")),
     ("request_id", PrimitiveType("unsigned long long"))])


def _rate(nbytes_per_round: int, rounds: int, op: Callable[[], None]) -> float:
    op()  # warm caches outside the timed region
    t0 = time.perf_counter()
    for _ in range(rounds):
        op()
    elapsed = time.perf_counter() - t0
    return nbytes_per_round * rounds / elapsed / 1e6


def _marshal_points(payload_bytes: int,
                    rounds: int) -> list[tuple[str, float]]:
    blob = bytes(payload_bytes)
    doubles = np.zeros(payload_bytes // 8, dtype="<f8")
    points = []

    def enc_octets() -> None:
        out = CdrOutputStream()
        encode_value(out, _OCTET_SEQ, blob)
        out.getvalue()

    def enc_doubles() -> None:
        out = CdrOutputStream()
        encode_value(out, _DOUBLE_SEQ, doubles)
        out.getvalue()

    points.append(("octet-seq", _rate(payload_bytes, rounds, enc_octets)))
    points.append(("double-seq", _rate(payload_bytes, rounds, enc_doubles)))

    # scalar torture: GIOP-header-like structs, all fast-path primitives
    n_structs = max(1, payload_bytes // 10_000)
    header = _HEADER_STRUCT.make(magic=0x47494F50, version=1, flags=0,
                                 size=payload_bytes, request_id=7)

    def enc_structs() -> None:
        out = CdrOutputStream()
        for _ in range(n_structs):
            encode_value(out, _HEADER_STRUCT, header)
        out.getvalue()

    points.append(("scalar-structs",
                   _rate(n_structs * 18, rounds, enc_structs)))
    return points


def _unmarshal_points(payload_bytes: int,
                      rounds: int) -> list[tuple[str, float]]:
    out = CdrOutputStream()
    encode_value(out, _OCTET_SEQ, bytes(payload_bytes))
    octet_wire = out.getvalue()
    out = CdrOutputStream()
    encode_value(out, _DOUBLE_SEQ, np.zeros(payload_bytes // 8, dtype="<f8"))
    double_wire = out.getvalue()

    def dec_octets() -> None:
        decode_value(CdrInputStream(octet_wire), _OCTET_SEQ)

    def dec_doubles() -> None:
        decode_value(CdrInputStream(double_wire), _DOUBLE_SEQ)

    return [("octet-seq", _rate(payload_bytes, rounds, dec_octets)),
            ("double-seq", _rate(payload_bytes, rounds, dec_doubles))]


#: marshal-roundtrip payload axis: 64 KiB, 1 MiB, 16 MiB
ROUNDTRIP_SIZES = (64 * 1024, 1024 * 1024, 16 * 1024 * 1024)
QUICK_ROUNDTRIP_SIZES = (64 * 1024, 1024 * 1024)


def _roundtrip_rates(payload_bytes: int,
                     rounds: int) -> tuple[float, float]:
    """(copied MB/s, zero-copy MB/s) for one encode→wire→decode trip."""
    doubles = np.zeros(payload_bytes // 8, dtype="<f8")

    def rt_copied() -> None:
        out = CdrOutputStream(zero_copy=False)
        encode_value(out, _DOUBLE_SEQ, doubles)
        decode_value(CdrInputStream(out.getvalue()), _DOUBLE_SEQ)

    def rt_zero_copy() -> None:
        out = CdrOutputStream(zero_copy=True)
        encode_value(out, _DOUBLE_SEQ, doubles)
        decode_value(CdrInputStream(out.getbuffer()), _DOUBLE_SEQ)

    return (_rate(payload_bytes, rounds, rt_copied),
            _rate(payload_bytes, rounds, rt_zero_copy))


def bench_marshal_roundtrip(quick: bool) -> BenchResult:
    sizes = QUICK_ROUNDTRIP_SIZES if quick else ROUNDTRIP_SIZES
    rounds = 5 if quick else 20
    points = []
    meta: dict[str, object] = {"rounds": rounds, "clock": "wall",
                               "payload": "double sequence"}
    for size in sizes:
        copied, zero = _roundtrip_rates(size, rounds)
        points.append((f"copied-{size}", copied))
        points.append((f"zero-copy-{size}", zero))
        meta[f"speedup_{size}"] = round(zero / copied, 2)
    return BenchResult(name="wallclock.marshal_roundtrip", unit="MB/s",
                       points=tuple(points), meta=meta)


# ---------------------------------------------------------------------------
# GridCCM aggregated bandwidth (Figure 8) on the wall clock
# ---------------------------------------------------------------------------

GRIDCCM_NODES = (2, 4, 8)
QUICK_GRIDCCM_NODES = (2, 8)  # the two ends the scaling gate compares


def _gridccm_wall_mbps(n: int, ints_per_rank: int) -> float:
    """Wall-clock MB/s of one n→n block-redistributed absorb."""
    from benchmarks.harness import (
        BENCH_IDL,
        PARALLELISM_XML,
        _SinkImpl,
    )
    from repro.core import (
        GridCcmCompiler,
        ParallelClient,
        ParallelComponent,
        ParallelismDescriptor,
    )
    from repro.corba import OMNIORB4, Orb, compile_idl
    from repro.mpi import create_world, spmd
    from repro.padicotm import PadicoRuntime

    topo = Topology()
    build_cluster(topo, "h", 2 * n, san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    server_procs = [rt.create_process(f"h{i}", f"s{i}") for i in range(n)]
    comp = ParallelComponent.create(rt, "bench", server_procs, BENCH_IDL,
                                    PARALLELISM_XML, _SinkImpl,
                                    profile=OMNIORB4)
    url = comp.proxy_url("input")
    client_procs = [rt.create_process(f"h{n + i}", f"c{i}")
                    for i in range(n)]
    world = create_world(rt, "clients", client_procs)

    def main(proc, comm):
        idl = compile_idl(BENCH_IDL)
        plan = GridCcmCompiler(
            idl, ParallelismDescriptor.parse(PARALLELISM_XML)).compile()
        orb = Orb(client_procs[comm.rank], OMNIORB4, idl)
        pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)
        pc.absorb(np.zeros(1, dtype="i4"))  # warm-up: connections + plans
        comm.barrier()
        pc.absorb(np.zeros(ints_per_rank, dtype="i4"))

    spmd(world, main)
    t0 = time.perf_counter()
    rt.run()
    elapsed = time.perf_counter() - t0
    rt.shutdown()
    return n * ints_per_rank * 4 / elapsed / 1e6


def bench_gridccm_scaling(quick: bool) -> BenchResult:
    nodes = QUICK_GRIDCCM_NODES if quick else GRIDCCM_NODES
    ints_per_rank = 1_000_000  # quick too: the gate compares real sizes
    points = [(n, _gridccm_wall_mbps(n, ints_per_rank)) for n in nodes]
    return BenchResult(
        name="wallclock.gridccm.scaling", unit="MB/s",
        points=tuple(points),
        meta={"clock": "wall", "ints_per_rank": ints_per_rank,
              "profile": "omniORB-4.0.0",
              "workload": "Figure-8 n-to-n block-redistributed absorb",
              "note": "aggregated payload bytes over simulator wall "
                      "seconds; the virtual-clock bandwidth twin is "
                      "gridccm.n_to_n in BENCH_padico.json"})


def bench_cdr(quick: bool) -> list[BenchResult]:
    payload = 256 * 1024 if quick else 8 * 1024 * 1024
    rounds = 5 if quick else 20
    meta = {"payload_bytes": payload, "rounds": rounds, "clock": "wall"}
    return [
        BenchResult(name="wallclock.cdr.marshal", unit="MB/s",
                    points=tuple(_marshal_points(payload, rounds)),
                    meta=meta),
        BenchResult(name="wallclock.cdr.unmarshal", unit="MB/s",
                    points=tuple(_unmarshal_points(payload, rounds)),
                    meta=meta),
    ]


# ---------------------------------------------------------------------------
# roll-up
# ---------------------------------------------------------------------------

def collect_wallclock(quick: bool,
                      log=lambda msg: None) -> list[BenchResult]:
    results = [bench_kernel(quick)]
    log(results[-1].render())
    results.append(bench_flows(quick))
    log(results[-1].render())
    results.append(bench_topology_scaling(quick))
    log(results[-1].render())
    for result in bench_cdr(quick):
        results.append(result)
        log(results[-1].render())
    results.append(bench_marshal_roundtrip(quick))
    log(results[-1].render())
    results.append(bench_gridccm_scaling(quick))
    log(results[-1].render())
    return results


def document_meta(quick: bool) -> dict[str, object]:
    return {
        "suite": "padico-wallclock",
        "mode": "quick" if quick else "full",
        "clock": "wall",
        "python": "%d.%d.%d" % sys.version_info[:3],
        "platform": sys.platform,
    }
