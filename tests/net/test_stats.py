"""Network traffic reporting."""

import pytest

from repro.net import FlowNetwork, Topology, build_cluster
from repro.net.stats import collect_report
from repro.sim import SimKernel


@pytest.fixture()
def grid():
    kernel = SimKernel()
    topo = Topology()
    build_cluster(topo, "a", 4)
    net = FlowNetwork(kernel, topo)
    yield kernel, topo, net
    kernel.shutdown()


def test_report_counts_link_level_traffic(grid):
    kernel, topo, net = grid

    def proc(p):
        net.transfer(p, "a0", "a1", 1_000_000, "a-san")
        net.transfer(p, "a0", "a2", 500_000, "a-lan")

    kernel.spawn(proc)
    kernel.run()
    report = collect_report(net)
    # 2 hops per transfer → link-level volume is twice the payload
    assert report.fabrics["a-san"].total_bytes == pytest.approx(2_000_000)
    assert report.fabrics["a-lan"].total_bytes == pytest.approx(1_000_000)
    assert report.total_bytes == pytest.approx(3_000_000)
    assert report.fabrics["wan"].total_bytes == 0.0 \
        if "wan" in report.fabrics else True


def test_host_bytes_and_busiest_link(grid):
    kernel, topo, net = grid

    def proc(p):
        net.transfer(p, "a0", "a1", 1_000_000, "a-san")
        net.transfer(p, "a0", "a2", 1_000_000, "a-san")

    kernel.spawn(proc)
    kernel.run()
    report = collect_report(net)
    # a0 sent 2 MB; a1/a2 received 1 MB each
    assert report.host_bytes("a0") == pytest.approx(2_000_000)
    assert report.host_bytes("a1") == pytest.approx(1_000_000)
    busiest = report.fabrics["a-san"].busiest
    assert busiest.link.src == "a0"
    assert busiest.bytes == pytest.approx(2_000_000)


def test_tx_rx_decomposition(grid):
    kernel, topo, net = grid

    def proc(p):
        net.transfer(p, "a0", "a1", 1_000_000, "a-san")
        net.transfer(p, "a1", "a0", 400_000, "a-san")

    kernel.spawn(proc)
    kernel.run()
    report = collect_report(net)
    assert report.tx_bytes("a0") == pytest.approx(1_000_000)
    assert report.rx_bytes("a0") == pytest.approx(400_000)
    assert report.host_bytes("a0") == pytest.approx(1_400_000)
    # the switch relays everything in both directions
    assert report.host_bytes("a-san-sw") == pytest.approx(2_800_000)


def test_host_bytes_counts_self_loop_once():
    """A self-loop link (src == dst) must count once in host_bytes, not
    twice — the tx + rx decomposition would otherwise double it.

    ``Fabric._add_edge`` refuses self-loops, so the report is built by
    hand with a directly-constructed ``Link``, the way an external
    topology importer could produce one."""
    from repro.net.stats import FabricStats, LinkStats, NetworkReport
    from repro.net.topology import Link

    loop = Link("lo0", "a0", "a0", None, 1e9, 0.0)
    wire = Link("a0-a1", "a0", "a1", None, 1e8, 1e-6)
    fstats = FabricStats("lan", "Ethernet-100",
                         links=[LinkStats(loop, 500.0),
                                LinkStats(wire, 300.0)])
    fstats.total_bytes = 800.0
    report = NetworkReport(1.0, {"lan": fstats})
    assert report.tx_bytes("a0") == pytest.approx(800.0)
    assert report.rx_bytes("a0") == pytest.approx(500.0)
    # 500 (loop, once) + 300 (tx on the wire) — not 500*2 + 300
    assert report.host_bytes("a0") == pytest.approx(800.0)
    assert report.host_bytes("a1") == pytest.approx(300.0)


def test_report_to_json_round_trip(grid):
    kernel, topo, net = grid

    def proc(p):
        net.transfer(p, "a0", "a1", 1_000_000, "a-san")

    kernel.spawn(proc)
    kernel.run()
    report = collect_report(net)
    doc = report.to_json()
    import json
    json.dumps(doc)  # plain JSON types only
    assert doc["elapsed"] == report.elapsed
    assert doc["total_bytes"] == pytest.approx(2_000_000)
    san = doc["fabrics"]["a-san"]
    assert san["technology"] == "Myrinet-2000"
    names = [entry["link"] for entry in san["links"]]
    assert names == sorted(names)
    for entry in san["links"]:
        assert set(entry) == {"link", "src", "dst", "bytes", "utilisation"}
        assert 0.0 <= entry["utilisation"] <= 1.0


def test_utilisation_bounds(grid):
    kernel, topo, net = grid

    def proc(p):
        net.transfer(p, "a0", "a1", 2_400_000, "a-san")  # 10 ms at 240

    kernel.spawn(proc)
    kernel.run()
    report = collect_report(net)
    busiest = report.fabrics["a-san"].busiest
    # ~100% utilisation during the transfer window
    assert busiest.utilisation(report.elapsed) == pytest.approx(1.0,
                                                                rel=0.01)
    assert busiest.utilisation(report.elapsed * 2) == pytest.approx(
        0.5, rel=0.01)
    assert busiest.utilisation(0.0) == 0.0


def test_format_readable(grid):
    kernel, topo, net = grid

    def proc(p):
        net.transfer(p, "a0", "a1", 1_000_000, "a-san")

    kernel.spawn(proc)
    kernel.run()
    text = collect_report(net).format()
    assert "a-san" in text
    assert "Myrinet-2000" in text
    assert "2.00 MB" in text
    assert "busiest" in text


def test_empty_report(grid):
    kernel, topo, net = grid
    report = collect_report(net, elapsed=1.0)
    assert report.total_bytes == 0
    assert "(no traffic)" in report.format()


def test_flow_log_and_timeline(grid):
    kernel, topo, net = grid

    def a(p):
        net.transfer(p, "a0", "a1", 2_400_000, "a-san")

    def b(p):
        p.sleep(0.002)
        net.transfer(p, "a2", "a3", 1_200_000, "a-san")

    kernel.spawn(a)
    kernel.spawn(b)
    kernel.run()
    assert len(net.flow_log) == 2
    (s1, e1, n1, l1, ok1), (s2, e2, n2, l2, ok2) = sorted(net.flow_log)
    assert (ok1, ok2) == (True, True)
    assert n1 == 2_400_000 and n2 == 1_200_000
    assert s2 == pytest.approx(0.002 + 9e-6)


def test_flow_log_records_failures(grid):
    kernel, topo, net = grid
    from repro.net import TransferError

    def sender(p):
        try:
            net.transfer(p, "a0", "a1", 240_000_000, "a-san")
        except TransferError:
            pass

    def chaos(p):
        p.sleep(0.01)
        net.fail_link(topo.fabrics["a-san"].link("a0", "a-san-sw"))

    kernel.spawn(sender)
    kernel.spawn(chaos)
    kernel.run()
    assert len(net.flow_log) == 1
    assert net.flow_log[0][-1] is False  # aborted
