"""The paper's §4.4 claims as a gate.

``benchmarks.run`` is the one writer of ``BENCH_padico.json`` and of
EXPERIMENTS.md's generated tables.  Here both are regenerated in memory
and byte-compared with the committed files, and every tolerance and
shape the paper argues from is asserted against the regenerated series:
Figure 7, the latency and concurrency text, Figure 8, the Fast-Ethernet
scaling and the ablations A1–A5.  The paper's numbers are the
``PAPER_*`` constants of ``benchmarks.harness``."""

import json

import pytest

from benchmarks.harness import (
    FIG7_SIZES,
    FIG8_NODES,
    HARDWARE_MBPS,
    PAPER_FAST_ETHERNET,
    PAPER_FIG8,
    PAPER_LATENCY_US,
    PAPER_PEAK_MBPS,
    PAPER_SHARING_MBPS,
)
from benchmarks.run import (
    BENCH_PATH,
    EXPERIMENTS_PATH,
    META,
    collect,
    render_experiments,
)
from repro.obs import BenchResult, bench_json_text

#: measured vs paper, relative, wherever a claim names no tighter bound
TOLERANCE = 0.25


@pytest.fixture(scope="module")
def results():
    return collect()


@pytest.fixture(scope="module")
def s(results):
    return {r.name: r for r in results}


def test_bench_document_is_regenerated_byte_for_byte(results):
    assert bench_json_text(results, META) \
        == BENCH_PATH.read_text(encoding="utf-8"), \
        "BENCH_padico.json is stale: run `python -m benchmarks.run`"


def test_experiments_tables_are_rendered_from_the_document():
    committed = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    series = [BenchResult.from_json(e) for e in committed["results"]]
    text = EXPERIMENTS_PATH.read_text(encoding="utf-8")
    assert render_experiments(text, series) == text, \
        "EXPERIMENTS.md is stale: run `python -m benchmarks.run`"


def test_fig7_bandwidth(s):
    peak = {name: max(s[name].values()) for name in PAPER_PEAK_MBPS}
    for name, paper in PAPER_PEAK_MBPS.items():
        assert peak[name] == pytest.approx(paper, rel=TOLERANCE), name
    assert peak["mpi.bandwidth.mpich-madeleine"] \
        > peak["corba.bandwidth.ORBacus-4.0.5"] \
        > peak["corba.bandwidth.Mico-2.3.7"] \
        > peak["corba.bandwidth.omniORB-4.0.0.lan"]
    assert peak["corba.bandwidth.omniORB-4.0.0"] == pytest.approx(
        peak["mpi.bandwidth.mpich-madeleine"], rel=0.02)
    # "96 % of the hardware" for the zero-copy stacks
    assert peak["corba.bandwidth.omniORB-4.0.0"] / HARDWARE_MBPS > 0.95
    for name in PAPER_PEAK_MBPS:  # saturating shape
        values = [s[name][size] for size in FIG7_SIZES]
        assert values == sorted(values), f"{name} not saturating"


def test_latency(s):
    lat = {name: s[name]["one_way"] for name in PAPER_LATENCY_US}
    for name, paper in PAPER_LATENCY_US.items():
        assert lat[name] == pytest.approx(paper, rel=0.10), name
    assert lat["mpi.latency.mpich-madeleine"] \
        < lat["corba.latency.omniorb4"] <= lat["corba.latency.omniorb3"] \
        < lat["corba.latency.orbacus"] < lat["corba.latency.mico"]


def test_concurrent_sharing(s):
    shares = s["concurrent.sharing"]
    assert shares["corba"] == pytest.approx(PAPER_SHARING_MBPS, rel=0.05)
    assert shares["mpi"] == pytest.approx(PAPER_SHARING_MBPS, rel=0.05)
    assert abs(shares["corba"] - shares["mpi"]) / PAPER_SHARING_MBPS < 0.02


def test_fig8_gridccm(s):
    rows = {n: s[f"gridccm.n_to_n.{n}"] for n in FIG8_NODES}
    for n, (paper_lat, paper_bw) in PAPER_FIG8.items():
        assert rows[n]["latency_us"] == pytest.approx(paper_lat,
                                                      rel=TOLERANCE), n
        assert rows[n]["aggregate_mbps"] == pytest.approx(paper_bw,
                                                          rel=TOLERANCE), n
    lats = [rows[n]["latency_us"] for n in FIG8_NODES]
    bws = [rows[n]["aggregate_mbps"] for n in FIG8_NODES]
    assert lats == sorted(lats)  # the barrier term grows with n
    # ×6.5 in the paper (280/43): efficient but sub-linear aggregation
    assert 5.5 < bws[-1] / bws[0] < 8.0
    # 1 → 1 sits in the Mico-plus-GridCCM régime, under plain Mico
    assert bws[0] < PAPER_PEAK_MBPS["corba.bandwidth.Mico-2.3.7"]


def test_fast_ethernet_scaling(s):
    for name, paper in PAPER_FAST_ETHERNET.items():
        for n, mbps in paper.items():
            assert s[name][n] == pytest.approx(mbps, rel=TOLERANCE), (name, n)
        assert s[name][8] / s[name][1] > 6.5  # every pair owns its NIC
    mico = s["gridccm.fast_ethernet.mico"]
    openccm = s["gridccm.fast_ethernet.openccm"]
    assert mico[1] > openccm[1] and mico[8] > openccm[8]


def test_ablations(s):
    a1 = s["ablation.marshalling"]
    assert a1["zero_copy"] == pytest.approx(240, rel=0.02)
    assert a1["copying"] == pytest.approx(55, rel=0.05)
    assert a1["zero_copy"] / a1["copying"] > 4

    a2 = s["ablation.proxy_vs_direct.4"]
    assert a2["direct_mbps"] > 2.5 * a2["proxy_mbps"]  # one NIC vs n

    big = FIG7_SIZES[-1]
    assert s["corba.bandwidth.omniORB-4.0.0"][big] \
        / s["corba.bandwidth.omniORB-4.0.0.lan"][big] > 15

    a4 = s["ablation.security_policy"]
    assert a4["wan-only.san"] == pytest.approx(a4["never.san"], rel=0.02)
    assert a4["always.san"] < a4["never.san"] / 8
    assert a4["wan-only.wan"] == pytest.approx(a4["always.wan"], rel=0.02)

    a5 = s["ablation.wire_protocol"]
    assert a5["esiop"] < a5["giop"] - 2.0
    assert a5["esiop"] > PAPER_LATENCY_US["mpi.latency.mpich-madeleine"]


# The Figure-7 points to one decimal, as a one-point probe prints them.

def test_mico_probe_to_one_decimal(s):
    assert f"{s['corba.latency.mico']['one_way']:.1f}" == "62.6"
    assert f"{s['corba.bandwidth.Mico-2.3.7'][8 << 20]:.1f}" == "55.0"


def test_mpi_latency_probe_to_one_decimal(s):
    assert f"{s['mpi.latency.mpich-madeleine']['one_way']:.1f}" == "11.0"


def test_lan_probe_to_one_decimal(s):
    assert f"{s['corba.bandwidth.omniORB-4.0.0.lan'][1 << 20]:.1f}" \
        == "11.2"


def test_esiop_probe_to_one_decimal(s):
    assert f"{s['ablation.wire_protocol']['esiop']:.1f}" == "15.5"
