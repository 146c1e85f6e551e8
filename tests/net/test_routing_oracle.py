"""``Fabric.route`` against networkx's Dijkstra as the oracle.

The fabric's own Dijkstra must return the very path networkx 3's
``shortest_path`` does, equal-latency ties and down links included,
since routes decide which links a flow shares and so every digest.
Random graphs cover the search in general; star and leaf-spine
fabrics cover the runs of dead-end hosts it pushes as one entry."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import ETHERNET_100, NoRouteError, Topology

nx = pytest.importorskip("networkx")

#: few distinct values, so equal-latency paths are common
LATENCIES = (0.0, 0.5, 1.0, 1.0, 2.0, 3.0)


@st.composite
def fabrics(draw):
    n = draw(st.integers(2, 8))
    nodes = [f"s{i}" for i in range(n)]
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)) \
        .filter(lambda p: p[0] != p[1])
    cables = draw(st.lists(st.tuples(pair, st.sampled_from(LATENCIES)),
                           max_size=3 * n))
    down = draw(st.lists(st.tuples(st.integers(0, 3 * n), st.booleans()),
                         max_size=4))
    return nodes, cables, down


@st.composite
def leaf_spines(draw):
    """One or two spines, up to four leaves each cabled to some of
    them (none: a star), up to two more cables per switch anywhere, and
    0-6 dead-end hosts on every switch, most at their switch's usual
    latency, so runs are long and ties common.  The cabling order is
    shuffled, so switch links cut runs too."""
    spines = [f"p{i}" for i in range(draw(st.integers(1, 2)))]
    leaves = [f"l{i}" for i in range(draw(st.integers(0, 4)))]
    switches = spines + leaves
    latency = st.sampled_from(LATENCIES)
    cables = [((leaf, spine), draw(latency))
              for leaf in leaves for spine in spines if draw(st.booleans())]
    if len(switches) > 1:
        pair = st.tuples(st.sampled_from(switches),
                         st.sampled_from(switches)).filter(
                             lambda p: p[0] != p[1])
        cables += draw(st.lists(st.tuples(pair, latency),
                                max_size=2 * len(switches)))
    hosts = []
    for switch in switches:
        usual = draw(latency)
        for k in range(draw(st.integers(0, 6))):
            host = f"{switch}h{k}"
            hosts.append(host)
            ends = (host, switch) if draw(st.booleans()) else (switch, host)
            cables.append((ends, draw(st.one_of(st.just(usual), latency))))
    cables = draw(st.permutations(cables))
    down = draw(st.lists(st.tuples(st.integers(0, len(cables)),
                                   st.booleans()), max_size=3))
    return switches + hosts, cables, down


def _build(nodes, cables):
    topo = Topology()
    fab = topo.add_fabric("f", ETHERNET_100)
    graph = nx.Graph()
    for name in nodes:
        topo.add_switch(fab, name)
        graph.add_node(name)
    for (a, b), latency in cables:
        topo.link_switches(fab, a, b, latency=latency)
        graph.add_edge(a, b)
    return fab, graph


def _take_down(fab, cables, down):
    # one direction at a time, through the private writer: the flow
    # network's fail_link always takes both, and the oracle must also
    # cover a cable that is half down
    for index, reverse in down:
        if cables:
            (a, b), _ = cables[index % len(cables)]
            fab.link(*((b, a) if reverse else (a, b)))._set_up(False)


def _assert_every_pair_matches(fab, graph, nodes):
    def weight(a, b, _attrs):
        link = fab.link(a, b)
        return link.latency if link.up else None

    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            try:
                expected = nx.shortest_path(graph, src, dst, weight=weight)
            except nx.NetworkXNoPath:
                with pytest.raises(NoRouteError):
                    fab.route(src, dst)
                continue
            route = fab.route(src, dst)
            assert [link.src for link in route] + [dst] == expected
            assert all(link.up for link in route)


@settings(max_examples=200, deadline=None)
@given(fabrics())
def test_route_matches_networkx_shortest_path(spec):
    nodes, cables, down = spec
    fab, graph = _build(nodes, cables)
    _take_down(fab, cables, down)
    _assert_every_pair_matches(fab, graph, nodes)


@settings(max_examples=100, deadline=None)
@given(leaf_spines())
# each pop of a run takes its direction's turn; without the turns a tie
# breaks the other way
@example((["p0", "p1", "l0", "l1", "l2", "l3", "p0h0"],
          [(("l1", "p0"), 0.0), (("l1", "p1"), 2.0), (("l2", "p1"), 0.0),
           (("l3", "p0"), 1.0), (("l3", "p1"), 1.0), (("p0", "p0h0"), 0.0)],
          []))
# a run holds one latency: l2h0 and l2h1 pop at different distances
@example((["p0", "p1", "l0", "l1", "l2", "l3", "l2h0", "l2h1"],
          [(("l1", "p0"), 0.0), (("l2", "p1"), 0.5), (("l3", "p0"), 1.0),
           (("l3", "p1"), 1.0), (("l1", "p1"), 2.0), (("l2", "l2h0"), 0.5),
           (("l2", "l2h1"), 0.0)],
          []))
# a link going down drops the compiled steps that crossed it
@example((["p0", "l0", "p0h0", "l0h0", "l0h1"],
          [(("l0", "p0"), 0.0), (("p0", "l0"), 0.0), (("p0", "p0h0"), 0.0),
           (("l0", "l0h0"), 0.0), (("l0", "l0h1"), 0.0)],
          [(0, False)]))
def test_leaf_spine_route_matches_networkx_shortest_path(spec):
    # every pair twice: all cables up, then with some down, so the
    # second pass also checks what a link change drops
    nodes, cables, down = spec
    fab, graph = _build(nodes, cables)
    _assert_every_pair_matches(fab, graph, nodes)
    _take_down(fab, cables, down)
    _assert_every_pair_matches(fab, graph, nodes)
