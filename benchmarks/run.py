"""Run the reproduction benches and write ``BENCH_padico.json``.

Usage::

    PYTHONPATH=src python -m benchmarks.run --quick --out BENCH_smoke.json

``--quick`` trims the message-size sweep and the GridCCM node counts so
the whole run fits in a CI smoke step; the full sweep regenerates every
series behind Figure 7, Figure 8 and the §4.4 text.  All numbers are
virtual-clock quantities, so the output is bit-for-bit reproducible —
the document carries no wall-clock timestamps on purpose.  How fast the
simulator itself runs is the business of the repo benchmark
(``BENCHMARK.json``, ``benchmarks/e2e``), not of this document.
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
from repro.corba import MICO, OMNIORB3, OMNIORB4, ORBACUS
from repro.obs import BenchResult, write_bench_json

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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.run",
        description="regenerate the paper-reproduction bench document")
    parser.add_argument("--out", default="BENCH_padico.json",
                        help="output path (default: BENCH_padico.json)")
    parser.add_argument("--quick", action="store_true",
                        help="trimmed sweep for CI smoke runs")
    args = parser.parse_args(argv)

    results = collect(args.quick, log=print)
    write_bench_json(args.out, results, meta={
        "suite": "padico-repro",
        "mode": "quick" if args.quick else "full",
        "clock": "virtual",
    })
    print(f"wrote {len(results)} series to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
