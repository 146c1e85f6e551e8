"""``Fabric.route`` against networkx's Dijkstra as the oracle.

The fabric's own Dijkstra must return the very path networkx 3's
``shortest_path`` does, equal-latency ties and down links included,
since routes decide which links a flow shares and so every digest."""

import pytest
from hypothesis import given, settings
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


def _build(nodes, cables, down):
    topo = Topology()
    fab = topo.add_fabric("f", ETHERNET_100)
    graph = nx.Graph()
    for name in nodes:
        topo.add_switch(fab, name)
        graph.add_node(name)
    for (a, b), latency in cables:
        topo.link_switches(fab, a, b, latency=latency)
        graph.add_edge(a, b)
    # one direction at a time, through the private writer: the flow
    # network's fail_link always takes both, and the oracle must also
    # cover a cable that is half down
    for index, reverse in down:
        if cables:
            (a, b), _ = cables[index % len(cables)]
            fab.link(*((b, a) if reverse else (a, b)))._set_up(False)
    return fab, graph


@settings(max_examples=200, deadline=None)
@given(fabrics())
def test_route_matches_networkx_shortest_path(spec):
    fab, graph = _build(*spec)

    def weight(a, b, _attrs):
        link = fab.link(a, b)
        return link.latency if link.up else None

    for src in spec[0]:
        for dst in spec[0]:
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
