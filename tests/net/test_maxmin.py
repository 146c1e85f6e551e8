"""Property-based tests for the max-min fair allocator."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.flows import Flow, _progressive_fill, _progressive_fill_vec, \
    maxmin_rates
from repro.net.topology import Fabric, Link
from repro.net.devices import ETHERNET_100


def _mklink(i: int, bandwidth: float) -> Link:
    fab = Fabric.__new__(Fabric)  # bare fabric shell; routing not needed
    fab.name = "t"
    fab.technology = ETHERNET_100
    return Link(f"l{i}", f"s{i}", f"d{i}", fab, bandwidth, 0.0)


def _mkflow(route):
    return Flow(route, 1.0, None, None, 0.0)


@st.composite
def scenarios(draw):
    n_links = draw(st.integers(1, 6))
    links = [_mklink(i, draw(st.floats(1.0, 1000.0))) for i in range(n_links)]
    n_flows = draw(st.integers(1, 8))
    flows = []
    for _ in range(n_flows):
        idx = draw(st.lists(st.integers(0, n_links - 1), min_size=1,
                            max_size=n_links, unique=True))
        flows.append(_mkflow([links[i] for i in idx]))
    return links, flows


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_maxmin_feasible_and_fair(scenario):
    links, flows = scenario
    rates = maxmin_rates(flows)

    # every flow got a positive, finite rate
    for f in flows:
        assert rates[f] > 0
        assert math.isfinite(rates[f])

    # feasibility: no link oversubscribed
    for link in links:
        load = sum(rates[f] for f in flows if link in f.route)
        assert load <= link.bandwidth * (1 + 1e-9)

    # max-min property: every flow has a bottleneck link that is
    # saturated and on which it has the maximal rate
    for f in flows:
        has_bottleneck = False
        for link in f.route:
            users = [g for g in flows if link in g.route]
            load = sum(rates[g] for g in users)
            saturated = load >= link.bandwidth * (1 - 1e-9)
            is_max = rates[f] >= max(rates[g] for g in users) - 1e-9
            if saturated and is_max:
                has_bottleneck = True
                break
        assert has_bottleneck, f"flow {f} has no bottleneck"


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.floats(1.0, 1e9))
def test_equal_share_on_single_link(n_flows, bandwidth):
    link = _mklink(0, bandwidth)
    flows = [_mkflow([link]) for _ in range(n_flows)]
    rates = maxmin_rates(flows)
    for f in flows:
        assert abs(rates[f] - bandwidth / n_flows) <= bandwidth * 1e-9


def test_empty_route_gets_infinite_rate():
    f = _mkflow([])
    assert maxmin_rates([f])[f] == float("inf")


def test_textbook_example():
    """Classic 3-flow example: f1 on l1, f2 on l1+l2, f3 on l2.

    l1 cap 10, l2 cap 20 → f1=f2=5 (l1 bottleneck), f3 = 15.
    """
    l1 = _mklink(1, 10.0)
    l2 = _mklink(2, 20.0)
    f1, f2, f3 = _mkflow([l1]), _mkflow([l1, l2]), _mkflow([l2])
    rates = maxmin_rates([f1, f2, f3])
    assert rates[f1] == 5.0
    assert rates[f2] == 5.0
    assert rates[f3] == 15.0


# ---------------------------------------------------------------------------
# the vectorised fill over route classes
# ---------------------------------------------------------------------------
#: few values, so shares tie; 0 and inf are the edges of max(cap, 0.0)
BANDWIDTHS = [0.0, 1.0, 2.0, 3.0, 240e6, math.inf]


@st.composite
def classed_flows(draw):
    """Links, routes (a link may repeat inside one) and the flows' routes
    in flow order, duplicates being the point."""
    bws = draw(st.lists(st.sampled_from(BANDWIDTHS), min_size=1,
                        max_size=6))
    link = st.integers(0, len(bws) - 1)
    routes = draw(st.lists(st.lists(link, min_size=1, max_size=4),
                           min_size=1, max_size=5))
    flows = draw(st.lists(st.integers(0, len(routes) - 1), min_size=1,
                          max_size=30))
    return bws, routes, flows


def _fill_arrays(routes, order):
    return (np.array([len(routes[r]) for r in order], dtype=np.int64),
            np.array([i for r in order for i in routes[r]], dtype=np.int64))


@settings(max_examples=400, deadline=None, derandomize=True)
@example(([1.0, 2.0], [[0, 1], [1]], [1, 0, 1, 0, 0]))
@example(([3.0, 240e6], [[0, 0, 1], [1, 0]], [0, 1, 0, 0]))  # twice on 0
@example(([math.inf, 2.0, 0.0], [[0], [0, 1], [2, 0]], [0, 1, 2, 1, 0]))
@example(([math.inf, math.inf], [[0], [0, 1], [1]], [0, 1, 1, 2, 2]))
# inf - inf leaves link 2 NaN before link 1 is drained: the scalar scan
# never picks a NaN share after a number
@example(([math.inf] * 3 + [5.0], [[0], [1], [0, 2], [2, 1], [1, 3]],
          [0, 1, 2, 3, 4]))
@example(([2.0, 2.0, 2.0], [[0, 1], [1, 2], [2, 0]], [2, 1, 0, 2, 1, 0]))
@given(classed_flows())
def test_weighted_fill_is_the_expanded_fill(case):
    """One row per route with its flow count as weight gives every flow
    exactly — ``repr`` for ``repr``, rounds for rounds — the rate the
    per-flow fill gives it, and the scalar reference does."""
    bws, routes, flows = case
    bandwidth = np.array(bws, dtype=np.float64)
    classes = list(dict.fromkeys(flows))  # in order of their first flow
    mult = np.array([flows.count(r) for r in classes], dtype=np.int64)
    by_class, rounds = _progressive_fill_vec(
        *_fill_arrays(routes, classes), mult, bandwidth)
    by_class = by_class.tolist()
    weighted = [by_class[classes.index(r)] for r in flows]

    expanded, expanded_rounds = _progressive_fill_vec(
        *_fill_arrays(routes, flows), np.ones(len(flows), dtype=np.int64),
        bandwidth)

    links = [_mklink(i, bw) for i, bw in enumerate(bws)]
    objects = [_mkflow([links[i] for i in routes[r]]) for r in flows]
    reference, reference_rounds = _progressive_fill(objects)
    reference = [reference[f] for f in objects]

    assert repr(weighted) == repr(expanded.tolist()) == repr(reference) \
        == repr(list(maxmin_rates(objects).values()))
    assert rounds == expanded_rounds == reference_rounds


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=6),
       st.floats(width=64),
       st.lists(st.integers(1, 40), min_size=6, max_size=6))
def test_reduceat_subtracts_like_repeated_subtract_at(caps, value, hits):
    """What the weighted fill's exactness rests on: ``reduceat`` folds
    ``subtract`` left to right, so a run ``[cap, v, ..., v]`` is ``cap``
    minus ``v`` ``h`` times, one rounding at a time — as an unbuffered
    ``subtract.at`` with ``h`` copies of the link's index applies them."""
    hits = np.array(hits[:len(caps)], dtype=np.int64)
    want = np.array(caps, dtype=np.float64)
    np.subtract.at(want, np.repeat(np.arange(len(caps)), hits), value)

    starts = np.zeros(len(caps), dtype=np.int64)
    np.cumsum(hits[:-1] + 1, out=starts[1:])
    run = np.full(int(starts[-1] + hits[-1] + 1), value)
    run[starts] = caps
    got = np.subtract.reduceat(run, starts)
    assert repr(got.tolist()) == repr(want.tolist())
