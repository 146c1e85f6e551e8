"""Grid topologies and the machinery behind grid-scale runs: the
:func:`build_grid` generator, the per-fabric route cache, batch flow
admission, and the whole-shard + vectorized solver tiers' exactness
against the from-scratch oracle — including WAN link failure
mid-transfer."""

from __future__ import annotations

import hashlib
import heapq

import pytest

from repro.net import topology
from repro.net import MYRINET_2000, Topology, build_grid, \
    build_two_site_grid
from repro.net.flows import FlowNetwork, TransferError
from repro.sim.kernel import SimKernel
from tests.net.test_incremental_maxmin import CheckedFlowNetwork, \
    ScratchFlowNetwork


# ---------------------------------------------------------------------------
# build_grid
# ---------------------------------------------------------------------------

def test_grid_shape_and_site_tags():
    topo, site_hosts = build_grid(sites=3, hosts_per_site=4)
    assert sorted(site_hosts) == ["g0", "g1", "g2"]
    assert [h.name for h in site_hosts["g0"]] == \
        ["g0n0", "g0n1", "g0n2", "g0n3"]
    # site fabrics carry the shard tag, the WAN is site-less
    assert topo.fabrics["g0-san"].site == "g0"
    assert topo.fabrics["g2-san"].site == "g2"
    assert topo.fabrics["g-wan"].site is None
    # intra-site traffic has the SAN, cross-site only the WAN
    assert [f.name for f in topo.fabrics_connecting("g0n0", "g0n1")] == \
        ["g0-san", "g-wan"]
    assert [f.name for f in topo.fabrics_connecting("g0n0", "g1n0")] == \
        ["g-wan"]
    # cross-site path: uplink, router->core, core->router, downlink
    assert len(topo.route("g0n0", "g1n0", "g-wan")) == 4


def test_grid_switch_fanout_spreads_leaves():
    topo, site_hosts = build_grid(sites=2, hosts_per_site=8,
                                  switch_fanout=4)
    # same leaf: host -> sw0 -> host
    assert len(topo.route("g0n0", "g0n1", "g0-san")) == 2
    # cross leaf: host -> sw0 -> spine -> sw1 -> host
    assert len(topo.route("g0n0", "g0n5", "g0-san")) == 4


def test_grid_host_names_cannot_collide_across_sites():
    # 12 sites: "g1" + "10" and "g11" + "0" would both be "g110"
    # without the non-digit host prefix
    topo, site_hosts = build_grid(sites=12, hosts_per_site=11)
    assert "g1n10" in topo.hosts and "g11n0" in topo.hosts
    assert len(topo.hosts) == 12 * 11


def test_grid_needs_a_site():
    with pytest.raises(ValueError):
        build_grid(sites=0)


def _links_digest(topo: Topology) -> tuple[int, str]:
    links = [(link.name, link.bandwidth, link.latency)
             for fab in topo.fabrics.values() for link in fab.links()]
    return len(links), hashlib.sha256(repr(links).encode()).hexdigest()[:16]


@pytest.mark.parametrize("build, expected", [
    # grid_collectives' shape
    (lambda: build_grid(sites=4, hosts_per_site=5, san=MYRINET_2000)[0],
     (88, "864b437f5f9ce01e")),
    # flow_churn's smoke shape: two sites over leaf switches
    (lambda: build_grid(sites=2, hosts_per_site=64, switch_fanout=32)[0],
     (524, "f09ee09c1d116ec3")),
    (lambda: build_two_site_grid(n_per_site=2)[0], (26, "b77c2fddb230ad09")),
], ids=["grid_collectives", "flow_churn_smoke", "two_site"])
def test_builders_cable_the_same_links(build, expected):
    """Every link's name, bandwidth and latency, in cabling order, is
    what the builders produced before their unused knobs went: a
    builder default that moves changes every run on it."""
    assert _links_digest(build()) == expected


# ---------------------------------------------------------------------------
# route cache
# ---------------------------------------------------------------------------

def test_route_cache_hits_and_misses():
    topo, _ = build_grid(sites=2, hosts_per_site=4)
    fab = topo.fabrics["g0-san"]
    first = topo.route("g0n0", "g0n1", "g0-san")
    assert (fab.route_cache_hits, fab.route_cache_misses) == (0, 1)
    again = topo.route("g0n0", "g0n1", "g0-san")
    assert (fab.route_cache_hits, fab.route_cache_misses) == (1, 1)
    assert again == first
    # the reverse direction is its own key
    topo.route("g0n1", "g0n0", "g0-san")
    assert (fab.route_cache_hits, fab.route_cache_misses) == (1, 2)
    hits, misses = topo.route_cache_stats()
    assert (hits, misses) == (1, 2)


def test_route_cache_invalidated_by_link_state():
    topo, _ = build_grid(sites=2, hosts_per_site=4)
    net = FlowNetwork(SimKernel(), topo)
    fab = topo.fabrics["g0-san"]
    cached = topo.route("g0n0", "g0n1", "g0-san")
    net.fail_link(fab.link("g0n0", "g0-san-sw"))
    # the cached path crosses the downed link; it must not be served
    with pytest.raises(Exception):
        topo.route("g0n0", "g0n1", "g0-san")
    net.restore_link(fab.link("g0n0", "g0-san-sw"))
    assert topo.route("g0n0", "g0n1", "g0-san") == cached
    assert fab.route_cache_hits == 0  # every lookup re-resolved


def test_build_routes_heap_pushes(monkeypatch):
    """``flow_churn``'s smoke build: per host, the route one leaf over
    and the route to its site hub, on 2 sites x 64 hosts, 32 per leaf
    switch.  A leaf's hosts are dead ends, pushed as runs: 2 008 heap
    pushes for the 256 routes (14 906 when every host was pushed
    alone)."""
    pushes = [0]

    def counting(heap, item):
        pushes[0] += 1
        heapq.heappush(heap, item)

    monkeypatch.setattr(topology, "heappush", counting)
    topo, sites = build_grid(sites=2, hosts_per_site=64, switch_fanout=32)
    routes = 0
    for site, hosts in sites.items():
        names = [h.name for h in hosts]
        for i, name in enumerate(names):
            topo.route(name, names[(i + 32) % len(names)], f"{site}-san")
            topo.route(name, names[0] if i else names[1], f"{site}-san")
            routes += 2
    assert (routes, pushes[0]) == (256, 2008)


# ---------------------------------------------------------------------------
# batch admission
# ---------------------------------------------------------------------------

def _grid_net() -> tuple[Topology, SimKernel, FlowNetwork]:
    topo, _ = build_grid(sites=2, hosts_per_site=4)
    kernel = SimKernel()
    return topo, kernel, FlowNetwork(kernel, topo)


def test_start_flows_matches_sequential_same_instant():
    reqs = [("g0n0", "g0n1", "g0-san", 1e6),
            ("g0n2", "g0n3", "g0-san", 2e6),
            ("g0n0", "g1n0", "g-wan", 3e6),
            ("g1n1", "g1n2", "g1-san", 4e6)]

    def routes(topo):
        return [(topo.route(a, b, fab), size, lambda flow: None)
                for a, b, fab, size in reqs]

    topo_b, kernel_b, net_b = _grid_net()
    kernel_b.schedule(0.5, lambda: net_b.start_flows(routes(topo_b)))
    kernel_b.run()

    topo_s, kernel_s, net_s = _grid_net()

    def sequential():
        for route, size, cb in routes(topo_s):
            net_s.start_flow(route, size, cb)

    kernel_s.schedule(0.5, sequential)
    kernel_s.run()

    assert net_b.flow_log == net_s.flow_log
    assert kernel_b.now == kernel_s.now


def test_start_flows_validation_is_atomic():
    topo, kernel, net = _grid_net()
    good = topo.route("g0n0", "g0n1", "g0-san")
    bad = topo.route("g0n2", "g0n3", "g0-san")
    net.fail_link(topo.fabrics["g0-san"].link("g0n2", "g0-san-sw"))
    with pytest.raises(TransferError):
        net.start_flows([(good, 1e6, lambda f: None),
                         (bad, 1e6, lambda f: None)])
    assert net.active_flows == []
    with pytest.raises(ValueError):
        net.start_flows([(good, 1e6, lambda f: None),
                         (good, 0.0, lambda f: None)])
    assert net.active_flows == []


# ---------------------------------------------------------------------------
# whole-shard / vectorized tiers vs the from-scratch oracle
# ---------------------------------------------------------------------------
#
# A multi-site schedule with intra-site rings, WAN coupling flows and a
# WAN link failure mid-transfer.  Every ring holds RING_FLOWS flows per
# host pair — 80 per site, above the solver's 64-flow whole-shard gate,
# and 240 in all, above the 160 live flows at which the network enters
# column form — so the production run really goes through whole-shard
# solves and the vectorized fill before completions thin the sites out.

RING_FLOWS = 20


def _run_grid_schedule(cls):
    topo, site_hosts = build_grid(sites=3, hosts_per_site=4,
                                  switch_fanout=2)
    kernel = SimKernel()
    net = cls(kernel, topo)

    def start(a, b, fab, size):
        try:
            net.start_flow(topo.route(a, b, fab), size, lambda flow: None)
        except TransferError:
            pass

    def start_batch(batch):
        net.start_flows([(topo.route(a, b, fab), size, lambda flow: None)
                         for a, b, fab, size in batch])

    def fail_wan_core():
        # router0 -> core: aborts every flow through site g0's uplink
        net.fail_link(topo.fabrics["g-wan"].link("g-wan-r0", "g-wan-core"))

    for s in range(3):
        ring = [(f"g{s}n{i}", f"g{s}n{(i + 1) % 4}", f"g{s}-san",
                 1e5 * (i + 1 + s) + 1e3 * j)
                for j in range(RING_FLOWS) for i in range(4)]
        kernel.schedule(0.0, start_batch, ring)
    kernel.schedule(1e-4, start, "g0n0", "g1n0", "g-wan", 5e6)
    kernel.schedule(1e-4, start, "g1n2", "g2n3", "g-wan", 7e6)
    kernel.schedule(2e-4, start, "g0n1", "g2n0", "g-wan", 3e6)
    kernel.schedule(5e-4, fail_wan_core)
    kernel.schedule(6e-4, start, "g0n2", "g0n3", "g0-san", 2e6)
    kernel.schedule(6e-4, start, "g1n0", "g2n1", "g-wan", 4e6)
    kernel.run()
    return net, kernel


def test_wan_failure_identical_across_all_solver_modes():
    ref, k_ref = _run_grid_schedule(ScratchFlowNetwork)
    prod, k_prod = _run_grid_schedule(FlowNetwork)
    assert ref.flow_log == prod.flow_log
    assert k_ref.now == k_prod.now
    # the WAN failure aborted the two flows crossing site g0's uplink
    assert sum(not ok for *_rest, ok in ref.flow_log) == 2
    assert [(l.name, v) for l, v in prod.link_bytes.items()] == \
        [(l.name, v) for l, v in ref.link_bytes.items()]


def test_sharded_vectorized_run_checked_against_oracle():
    # CheckedFlowNetwork re-derives the global max-min allocation from
    # scratch after every reallocation: the whole-shard tier and the
    # vectorized fill must match it bit-for-bit, every event
    net, _ = _run_grid_schedule(CheckedFlowNetwork)
    assert net.completed_flows > 0
    # (that the whole-shard and vectorized tiers really run at this
    # size is pinned by tests/net/test_solver_fuzz.py)


def test_flow_shard_tags():
    topo, _ = build_grid(sites=2, hosts_per_site=4)
    kernel = SimKernel()
    net = FlowNetwork(kernel, topo)
    intra = net.start_flow(topo.route("g0n0", "g0n1", "g0-san"), 1e6,
                           lambda f: None)
    wan = net.start_flow(topo.route("g0n0", "g1n0", "g-wan"), 1e6,
                         lambda f: None)
    assert intra.shard == "g0"
    assert wan.shard is None  # coupling tier
