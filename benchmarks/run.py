"""Run the reproduction benches and write ``BENCH_padico.json``.

Usage::

    PYTHONPATH=src python -m benchmarks.run --quick --out BENCH_padico.json
    PYTHONPATH=src python -m benchmarks.run --wallclock --out BENCH_wallclock.json

``--quick`` trims the message-size sweep and the GridCCM node counts so
the whole run fits in a CI smoke step; the full sweep regenerates every
series behind Figure 7, Figure 8 and the §4.4 text.  All numbers are
virtual-clock quantities, so the output is bit-for-bit reproducible —
the document carries no wall-clock timestamps on purpose.

``--wallclock`` switches to the :mod:`benchmarks.wallclock` suite
instead: simulator *wall-clock* throughput (kernel events/s, concurrent
flow churn, CDR MB/s) under the machine-varying ``padico-wallclock/1``
schema.  The default output path follows the mode.

``--topology-scaling`` runs just the grid-scale
``wallclock.topology.scaling`` series (whole-shard + vectorized solves
on :func:`repro.net.build_grid` topologies up to 10k hosts / 100k
flows) and writes it under the wall-clock schema — the CI smoke slice
is ``make bench-topology``.

``--gate-gridccm-scaling`` (with ``--wallclock``) fails the run when
the 8-node point of ``wallclock.gridccm.scaling`` is below a third of
the 2-node point.
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.harness import (
    FIG7_SIZES,
    concurrent_sharing_mbps,
    corba_bandwidth_curve,
    corba_one_way_latency_us,
    gridccm_n_to_n,
    mpi_bandwidth_curve,
    mpi_one_way_latency_us,
    proxy_vs_direct,
)
from benchmarks.wallclock import (
    bench_topology_scaling,
    collect_wallclock,
    document_meta,
)
from repro.corba import MICO, OMNIORB3, OMNIORB4, ORBACUS
from repro.obs import WALLCLOCK_SCHEMA, BenchResult, write_bench_json

QUICK_SIZES = (1024, 1024 * 1024)
QUICK_NODES = (1, 2)
FULL_NODES = (1, 2, 4, 8)


def collect(quick: bool, log=lambda msg: None) -> list[BenchResult]:
    sizes = QUICK_SIZES if quick else FIG7_SIZES
    profiles = (OMNIORB4, MICO) if quick \
        else (OMNIORB3, OMNIORB4, MICO, ORBACUS)
    results: list[BenchResult] = []

    for profile in profiles:
        results.append(corba_bandwidth_curve(profile, sizes))
        log(results[-1].render())
    results.append(corba_bandwidth_curve(OMNIORB4, sizes, lan_only=True))
    log(results[-1].render())
    results.append(mpi_bandwidth_curve(sizes))
    log(results[-1].render())

    results.append(BenchResult(
        name="corba.latency.omniorb4", unit="us",
        points=(("one_way", corba_one_way_latency_us(OMNIORB4)),),
        meta={"profile": OMNIORB4.key}))
    log(results[-1].render())
    results.append(BenchResult(
        name="mpi.latency.mpich-madeleine", unit="us",
        points=(("one_way", mpi_one_way_latency_us()),),
        meta={"profile": "mpich-madeleine"}))
    log(results[-1].render())

    results.append(concurrent_sharing_mbps())
    log(results[-1].render())

    for n in (QUICK_NODES if quick else FULL_NODES):
        results.append(gridccm_n_to_n(n))
        log(results[-1].render())

    if not quick:
        results.append(proxy_vs_direct())
        log(results[-1].render())
    return results


def _check_gridccm_scaling(results: list[BenchResult]) -> list[str]:
    """The simulator's own cost must not swamp the Figure-8 experiment
    as nodes are added: on ``wallclock.gridccm.scaling`` the 8-node
    point may not fall below one third of the 2-node point (a planner
    that is O(global length x ranks) per rank reads 0.10x)."""
    series = next((r for r in results
                   if r.name == "wallclock.gridccm.scaling"), None)
    if series is None:
        return ["no wallclock.gridccm.scaling series in this run"]
    mbps = dict(series.points)
    if 2 not in mbps or 8 not in mbps:
        return [f"series lacks the 2- or 8-node point: {sorted(mbps)}"]
    if mbps[8] * 3 < mbps[2]:
        return [f"8 nodes: {mbps[8]:.1f} MB/s is below a third of "
                f"2 nodes: {mbps[2]:.1f} MB/s "
                f"({mbps[8] / mbps[2]:.2f}x)"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.run",
        description="regenerate the paper-reproduction bench document")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_padico.json, or "
                             "BENCH_wallclock.json with --wallclock)")
    parser.add_argument("--quick", action="store_true",
                        help="trimmed sweep for CI smoke runs")
    parser.add_argument("--wallclock", action="store_true",
                        help="run the wall-clock suite (padico-wallclock/1) "
                             "instead of the virtual-clock sweep")
    parser.add_argument("--topology-scaling", action="store_true",
                        help="run only the wallclock.topology.scaling "
                             "series (grid-scale hierarchical-solver "
                             "bench); implies the wall-clock schema")
    parser.add_argument("--gate-gridccm-scaling", action="store_true",
                        help="with --wallclock: fail when the 8-node "
                             "point of wallclock.gridccm.scaling is below "
                             "one third of the 2-node point")
    args = parser.parse_args(argv)

    if args.topology_scaling and args.wallclock:
        parser.error("--topology-scaling already implies the wall-clock "
                     "schema; drop --wallclock")
    if args.gate_gridccm_scaling and not args.wallclock:
        parser.error("--gate-gridccm-scaling requires --wallclock")

    if args.topology_scaling:
        out = args.out or "BENCH_topology.json"
        results = [bench_topology_scaling(args.quick)]
        print(results[-1].render())
        write_bench_json(out, results, meta=document_meta(args.quick),
                         schema=WALLCLOCK_SCHEMA)
    elif args.wallclock:
        out = args.out or "BENCH_wallclock.json"
        results = collect_wallclock(args.quick, log=print)
        write_bench_json(out, results, meta=document_meta(args.quick),
                         schema=WALLCLOCK_SCHEMA)
    else:
        out = args.out or "BENCH_padico.json"
        results = collect(args.quick, log=print)
        write_bench_json(out, results, meta={
            "suite": "padico-repro",
            "mode": "quick" if args.quick else "full",
            "clock": "virtual",
        })
    if args.gate_gridccm_scaling:
        violations = _check_gridccm_scaling(results)
        if violations:
            for v in violations:
                print(f"gridccm-scaling gate FAILED: {v}")
            return 1
        print("gridccm-scaling gate: the 8-node point holds at least a "
              "third of the 2-node point")
    print(f"wrote {len(results)} series to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
