"""Regenerate ``BENCH_padico.json`` and EXPERIMENTS.md's tables.

Usage::

    PYTHONPATH=src python -m benchmarks.run

It takes no options.  It runs every experiment of ``benchmarks.harness``
(about a second of wall time), writes the series to
``BENCH_padico.json`` at the repository root, and rewrites every
``<!-- generated: NAME -->`` … ``<!-- end generated -->`` block of
EXPERIMENTS.md from them.  All numbers are virtual-clock quantities, so
both files come out byte for byte the same on every run, and
``tests/test_paper_claims.py`` fails when either differs from what this
writes.  The document carries no wall-clock timestamps on purpose: how
fast the simulator itself runs is the business of the repo benchmark
(``BENCHMARK.json``, ``benchmarks/e2e``).
"""

from __future__ import annotations

import sys
from pathlib import Path

from benchmarks import harness as h
from benchmarks.blocks import render_blocks
from repro.corba import MICO, OMNIORB3, OMNIORB4, ORBACUS
from repro.obs import BenchResult, bench_json_text

ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = ROOT / "BENCH_padico.json"
EXPERIMENTS_PATH = ROOT / "EXPERIMENTS.md"
META = {"suite": "padico-repro", "clock": "virtual"}


def collect() -> list[BenchResult]:
    """Every series EXPERIMENTS.md quotes.  A new series goes at the
    end, so the entries already in the document keep their place."""
    results = [h.corba_bandwidth_curve(p)
               for p in (OMNIORB3, OMNIORB4, MICO, ORBACUS)]
    results += [h.corba_bandwidth_curve(OMNIORB4, lan_only=True),
                h.mpi_bandwidth_curve(),
                h.corba_latency("omniorb4", OMNIORB4),
                h.mpi_latency(),
                h.concurrent_sharing_mbps()]
    results += [h.gridccm_n_to_n(n) for n in h.FIG8_NODES]
    results.append(h.proxy_vs_direct())
    results += [h.corba_latency(name, p) for name, p in
                (("omniorb3", OMNIORB3), ("orbacus", ORBACUS), ("mico", MICO))]
    results += [h.fast_ethernet_scaling(name, p)
                for name, p in h.FAST_ETHERNET.items()]
    results += [h.marshalling_strategy(), h.security_policy(),
                h.wire_protocol()]
    return results


# ---------------------------------------------------------------------------
# EXPERIMENTS.md blocks: series → markdown
# ---------------------------------------------------------------------------

def _table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    lines = [header, ("---",) * len(header)] + rows
    return "".join("| " + " | ".join(line) + " |\n" for line in lines)


def _vs(measured: float, paper: float) -> tuple[str, str, str]:
    """Paper, measured and deviation cells."""
    return (f"{paper:g}", f"**{measured:.1f}**",
            f"{(measured / paper - 1) * 100:+.1f} %")


def _size(s: int) -> str:
    return (f"{s}B" if s < 1024 else f"{s // 1024}KB" if s < 1024 ** 2
            else f"{s // 1024 ** 2}MB")


def _fig7(s: dict[str, BenchResult]) -> str:
    labels = ("omniORB-3.0.2", "omniORB-4.0.0", "Mico-2.3.7",
              "ORBacus-4.0.5", "MPICH (Madeleine)", "TCP/Ethernet-100 (ref)")
    rows = [(label,) + tuple(f"{s[name][x]:.1f}" for x in h.FIG7_SIZES)
            + (f"{paper:g}", f"**{max(s[name].values()):.1f}**")
            for label, (name, paper) in zip(labels, h.PAPER_PEAK_MBPS.items())]
    omni, mpi = (max(s[name].values()) / h.HARDWARE_MBPS * 100 for name in
                 ("corba.bandwidth.omniORB-4.0.0",
                  "mpi.bandwidth.mpich-madeleine"))
    return _table(("series",) + tuple(map(_size, h.FIG7_SIZES))
                  + ("paper peak", "measured peak"), rows) + (
        f"\nPeak over the {h.HARDWARE_MBPS:g} MB/s hardware: omniORB 4 "
        f"{omni:.1f} %, MPI {mpi:.1f} %.\n")


def _latency(s: dict[str, BenchResult]) -> str:
    labels = ("MPI", "omniORB 3.0.2", "omniORB 4.0.0", "ORBacus 4.0.5",
              "Mico 2.3.7")
    rows = [(label,) + _vs(s[name]["one_way"], paper)
            for label, (name, paper) in zip(labels, h.PAPER_LATENCY_US.items())]
    return _table(("middleware", "paper (µs)", "measured (µs)", "Δ"), rows)


def _sharing(s: dict[str, BenchResult]) -> str:
    shares = s["concurrent.sharing"]
    rows = [(label,) + _vs(shares[x], h.PAPER_SHARING_MBPS)[:2]
            for x, label in (("corba", "CORBA (omniORB)"), ("mpi", "MPI"))]
    return _table(("stream", "paper (MB/s)", "measured (MB/s)"), rows)


def _fig8(s: dict[str, BenchResult]) -> str:
    rows = [(f"{n} → {n}",)
            + _vs(s[f"gridccm.n_to_n.{n}"]["latency_us"], paper_lat)
            + _vs(s[f"gridccm.n_to_n.{n}"]["aggregate_mbps"], paper_bw)
            for n, (paper_lat, paper_bw) in h.PAPER_FIG8.items()]
    first, last = h.FIG8_NODES[0], h.FIG8_NODES[-1]
    scale = (s[f"gridccm.n_to_n.{last}"]["aggregate_mbps"]
             / s[f"gridccm.n_to_n.{first}"]["aggregate_mbps"])
    paper_scale = h.PAPER_FIG8[last][1] / h.PAPER_FIG8[first][1]
    return _table(("nodes", "paper latency (µs)", "measured", "Δ",
                   "paper aggregate (MB/s)", "measured", "Δ"), rows) + (
        f"\nAggregate bandwidth scales ×{scale:.1f} from {first} → {first} "
        f"to {last} → {last} (paper ×{paper_scale:.1f}).\n")


def _fast_ethernet(s: dict[str, BenchResult]) -> str:
    labels = ("MicoCCM", "OpenCCM (Java)")
    rows, scales = [], []
    for label, (name, paper) in zip(labels, h.PAPER_FAST_ETHERNET.items()):
        rows += [(label, f"{n} → {n}") + _vs(s[name][n], paper[n])
                 for n in paper]
        scales.append(f"{label} ×{s[name][8] / s[name][1]:.1f} "
                      f"(paper ×{paper[8] / paper[1]:.1f})")
    return _table(("container", "nodes", "paper (MB/s)", "measured", "Δ"),
                  rows) + f"\nScaling 1 → 8: {', '.join(scales)}.\n"


def _ablations(s: dict[str, BenchResult]) -> str:
    a1 = s["ablation.marshalling"]
    a2 = s["ablation.proxy_vs_direct.4"]
    san, lan = (s[name][h.FIG7_SIZES[-1]] for name in
                ("corba.bandwidth.omniORB-4.0.0",
                 "corba.bandwidth.omniORB-4.0.0.lan"))
    a4 = s["ablation.security_policy"]
    a5 = s["ablation.wire_protocol"]
    wire = s["mpi.latency.mpich-madeleine"]["one_way"]
    return _table(("ablation", "result"), [
        ("A1 marshalling strategy",
         f"zero-copy CDR {a1['zero_copy']:.1f} MB/s vs copying CDR "
         f"{a1['copying']:.1f} MB/s at 8 MB and identical ORB overheads — "
         f"the entire Figure-7 gap is the copy discipline"),
        ("A2 proxy bottleneck",
         f"4-node component, same payload: direct node-to-node "
         f"{a2['direct_mbps']:.1f} MB/s vs through-the-master "
         f"{a2['proxy_mbps']:.1f} MB/s (the §4.1 argument for "
         f"all-nodes-participate)"),
        ("A3 cross-paradigm mapping",
         f"one omniORB 4 stream at 8 MB: VLink on Myrinet {san:.1f} MB/s vs "
         f"VLink confined to its \"native\" socket stack {lan:.1f} MB/s "
         f"(×{san / lan:.1f}) — the §4.3.2 \"no bottleneck of features\" "
         f"claim"),
        ("A4 security placement",
         f"`wan-only` policy: SAN {a4['wan-only.san']:.1f} MB/s (no cipher: "
         f"{a4['never.san']:.1f}) and WAN encrypted at "
         f"{a4['wan-only.wan']:.2f} MB/s (`always`: "
         f"{a4['always.wan']:.2f}); `always` collapses the SAN to "
         f"{a4['always.san']:.1f} MB/s (cipher-bound) — quantifies the §6 "
         f"open issue"),
        ("A5 wire protocol",
         f"omniORB 4 one-way latency: GIOP {a5['giop']:.1f} µs vs ESIOP "
         f"{a5['esiop']:.1f} µs — quantifies the §4.4 \"use ESIOP\" "
         f"suggestion (the {wire:.1f} µs MPI latency over the same "
         f"Madeleine wire is the floor)"),
    ])


BLOCKS = {"fig7": _fig7, "latency": _latency, "sharing": _sharing,
          "fig8": _fig8, "fast-ethernet": _fast_ethernet,
          "ablations": _ablations}


def render_experiments(text: str, results: list[BenchResult]) -> str:
    """``text`` with every generated block re-rendered from ``results``."""
    series = {r.name: r for r in results}
    return render_blocks(
        text, {name: render(series) for name, render in BLOCKS.items()},
        EXPERIMENTS_PATH.name)


def main() -> int:
    results = collect()
    for result in results:
        print(result.render())
    BENCH_PATH.write_text(bench_json_text(results, META), encoding="utf-8")
    EXPERIMENTS_PATH.write_text(
        render_experiments(EXPERIMENTS_PATH.read_text(encoding="utf-8"),
                           results), encoding="utf-8")
    print(f"wrote {len(results)} series to {BENCH_PATH.name} and "
          f"re-rendered {len(BLOCKS)} blocks of {EXPERIMENTS_PATH.name}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python -m benchmarks.run  (it takes no options)")
    sys.exit(main())
