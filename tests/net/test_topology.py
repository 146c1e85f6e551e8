"""Unit tests for hosts, fabrics, links and routing."""

import pytest

from repro.net import (
    ETHERNET_100,
    MYRINET_2000,
    WAN,
    NetworkTechnology,
    NoRouteError,
    Topology,
    build_cluster,
    build_two_site_grid,
)
from repro.net.flows import FlowNetwork
from repro.sim import SimKernel


def test_technology_validation():
    with pytest.raises(ValueError):
        NetworkTechnology("bad", bandwidth=0, latency=1e-6)
    with pytest.raises(ValueError):
        NetworkTechnology("bad", bandwidth=1e6, latency=-1)
    with pytest.raises(ValueError):
        NetworkTechnology("bad", bandwidth=1e6, latency=1e-6, paradigm="weird")


def test_myrinet_model_matches_paper_numbers():
    # paper: 240 MB/s peak = 96 % of Myrinet-2000 hardware bandwidth
    assert MYRINET_2000.bandwidth == pytest.approx(240e6)
    assert MYRINET_2000.efficiency == pytest.approx(0.96)
    assert MYRINET_2000.paradigm == "parallel"
    assert MYRINET_2000.secure
    # one-way wire path through the switch (2 hops) is 9 µs
    assert 2 * MYRINET_2000.latency == pytest.approx(9e-6)


def test_ethernet_model():
    assert ETHERNET_100.bandwidth == pytest.approx(11.2e6)
    assert ETHERNET_100.paradigm == "distributed"
    assert not ETHERNET_100.secure


def test_cluster_routing_two_hops():
    topo = Topology()
    build_cluster(topo, "a", 4)
    route = topo.route("a0", "a1", "a-san")
    assert [l.name for l in route] == ["a-san:a0->a-san-sw",
                                       "a-san:a-san-sw->a1"]
    assert sum(l.latency for l in route) == pytest.approx(9e-6)
    assert all(l.bandwidth == pytest.approx(240e6) for l in route)


def test_route_same_host_is_empty():
    topo = Topology()
    build_cluster(topo, "a", 2)
    assert topo.route("a0", "a0", "a-san") == []


def test_route_unknown_endpoint_raises():
    topo = Topology()
    build_cluster(topo, "a", 2)
    with pytest.raises(NoRouteError):
        topo.route("a0", "zz", "a-san")


def test_hosts_know_their_fabrics():
    topo = Topology()
    build_cluster(topo, "a", 2)
    assert topo.hosts["a0"].fabrics == {"a-san", "a-lan"}


def test_duplicate_names_rejected():
    topo = Topology()
    topo.add_host("h")
    with pytest.raises(ValueError):
        topo.add_host("h")
    topo.add_fabric("f", ETHERNET_100)
    with pytest.raises(ValueError):
        topo.add_fabric("f", ETHERNET_100)


def test_fabrics_connecting_prefers_fastest():
    topo, a_hosts, b_hosts = build_two_site_grid(n_per_site=2)
    # intra-site: SAN (fast) first, then LAN, then WAN path via router
    fabs = topo.fabrics_connecting("a0", "a1")
    assert [f.name for f in fabs] == ["a-san", "a-lan", "wan"]
    # cross-site: only the WAN reaches
    fabs = topo.fabrics_connecting("a0", "b0")
    assert [f.name for f in fabs] == ["wan"]


def test_two_site_grid_wan_latency_dominates():
    topo, _, _ = build_two_site_grid(n_per_site=2)
    lat = topo.fabrics["wan"].path_latency("a0", "b0")
    # eth hop + WAN hop + eth hop
    assert lat == pytest.approx(WAN.latency + 2 * ETHERNET_100.latency)


def test_link_failure_reroutes_or_raises():
    topo = Topology()
    fab = topo.add_fabric("ring", ETHERNET_100)
    for n in ("x", "y", "z"):
        topo.add_host(n)
    topo.attach("x", fab, "y")
    topo.attach("y", fab, "z")
    topo.attach("x", fab, "z")
    net = FlowNetwork(SimKernel(), topo)
    direct = topo.route("x", "y", "ring")
    assert len(direct) == 1
    net.fail_link(fab.link("x", "y"))
    detour = topo.route("x", "y", "ring")
    assert [l.src for l in detour] == ["x", "z"]
    net.fail_link(fab.link("x", "z"))
    with pytest.raises(NoRouteError):
        topo.route("x", "y", "ring")
    # bring back up
    net.restore_link(fab.link("x", "y"))
    assert len(topo.route("x", "y", "ring")) == 1


def test_self_loop_rejected():
    topo = Topology()
    fab = topo.add_fabric("f", ETHERNET_100)
    topo.add_host("h")
    with pytest.raises(ValueError):
        topo.attach("h", fab, "h")


def test_attach_unknown_host_rejected():
    topo = Topology()
    fab = topo.add_fabric("f", ETHERNET_100)
    with pytest.raises(ValueError):
        topo.attach("ghost", fab, "sw")
