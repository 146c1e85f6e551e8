"""Fuzz the production solve pipeline at its production threshold.

The small-cluster schedules of ``test_incremental_maxmin`` never hold
more than a dozen live flows, so they only ever reach the scalar fill.
The schedules here are built on :func:`build_grid` and sized so the
pipeline's other tiers run *at the real* ``_VEC_MIN_FLOWS``: a
``start_flows`` ramp puts more than 64 flows into at least one site
shard, later events add batches (per site, across all sites, over the
WAN), closed loops (batches whose completions refill their own routes),
single flows, *mixed* SAN+WAN routes (which taint a site until
they complete) and link failures, and the drain at the end takes the
network back out of column form and the shards below the whole-shard
gate.  Everything runs under
:class:`CheckedFlowNetwork` — a from-scratch ``maxmin_rates`` after
every reallocation, values and order — and the test finally asserts
that the examples really executed both fills the pipeline selects
between — the vectorised one for whole shards, the scalar one for every
component walk — and a whole-shard solve that reused its shards' last
fill.

A second, *sparse* profile fuzzes the other end: mostly idle links,
where a dirty flow that shares no link takes the lone-flow closed form
instead of any fill — and must leave it the moment a link is shared.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import NoRouteError, build_grid
from repro.net import flows as flows_mod
from repro.net.flows import FlowNetwork, _TABLE_MIN_FLOWS, _VEC_MIN_FLOWS
from repro.sim.kernel import SimKernel
from tests.net.test_incremental_maxmin import CheckedFlowNetwork

HOSTS = 4  # per site: few hosts, many flows per link, big components


def _batch(count, base, salt):
    """``count`` ``(src, dst, size)`` requests spread over every host
    pair of one site."""
    out = []
    for j in range(count):
        src = (j + salt) % HOSTS
        dst = (src + 1 + (j // HOSTS + salt) % (HOSTS - 1)) % HOSTS
        out.append((src, dst, base * (1 + (7 * j + salt) % 11 / 10)))
    return out


@st.composite
def grid_schedules(draw):
    n_sites = draw(st.integers(2, 3))
    site = st.integers(0, n_sites - 1)
    host = st.integers(0, HOSTS - 1)
    hop = st.integers(1, HOSTS - 1)
    other = st.integers(1, n_sites - 1)
    san_size = st.floats(1e4, 2e5, allow_nan=False)
    wan_size = st.floats(1e3, 5e4, allow_nan=False)
    salt = st.integers(0, 50)
    # the ramp: one batch per site at t = 0, one of them above the gate
    big = draw(site)
    over_gate = st.integers(_VEC_MIN_FLOWS + 8, 2 * _VEC_MIN_FLOWS)
    any_size = st.integers(0, 2 * _VEC_MIN_FLOWS)
    events = [
        (0.0, "batch", s, draw(over_gate if s == big else any_size),
         draw(san_size), draw(salt))
        for s in range(n_sites)]
    t = 0.0
    for _ in range(draw(st.integers(3, 10))):
        t += draw(st.floats(0.0, 3e-3, allow_nan=False))
        events.append((t,) + draw(st.one_of(
            st.tuples(st.just("batch"), site, st.integers(1, 40),
                      san_size, salt),
            st.tuples(st.just("loop"), site, st.integers(1, 40),
                      san_size, salt, st.integers(1, 3)),
            st.tuples(st.just("flow"), site, host, hop, san_size),
            st.tuples(st.just("spread"), host, hop, san_size),
            st.tuples(st.just("wan"), site, st.integers(1, 80), other,
                      wan_size),
            st.tuples(st.just("mixed"), site, host, hop, other, host,
                      wan_size),
            st.tuples(st.just("fail_san"), site, host),
            st.tuples(st.just("fail_wan"), site))))
    return n_sites, events


def grid_events(topo, net, n_sites):
    """The schedules' event vocabulary on one network: returns
    ``fire(kind, *args)`` (shared with ``test_flow_table_fuzz``)."""

    def route(src, dst, fabric):
        try:
            return topo.route(src, dst, fabric)
        except NoRouteError:
            return None  # an earlier failure cut the path

    def san(s, a, b):
        return route(f"g{s}n{a}", f"g{s}n{b}", f"g{s}-san")

    def wan(s, a, s2, b):
        return route(f"g{s}n{a}", f"g{s2}n{b}", "g-wan")

    def admit(routes_and_sizes, callback=lambda r, size: lambda flow: None):
        net.start_flows([(r, size, callback(r, size))
                         for r, size in routes_and_sizes if r is not None])

    def refilled(gens):
        """Completion callbacks that start a flow of the same size on the
        same route at the completion's instant, ``gens`` times over."""
        def callback(r, size, left=gens):
            def done(flow):
                if flow.error is None and left:
                    net.start_flow(r, size, callback(r, size, left - 1))
            return done
        return callback

    def fire(kind, *args):
        if kind == "batch":
            s, count, base, salt = args
            admit([(san(s, a, b), size)
                   for a, b, size in _batch(count, base, salt)])
        elif kind == "loop":
            # a closed loop: a batch whose completions are refilled
            s, count, base, salt, gens = args
            admit([(san(s, a, b), size)
                   for a, b, size in _batch(count, base, salt)],
                  refilled(gens))
        elif kind == "flow":
            s, a, hop, size = args
            admit([(san(s, a, (a + hop) % HOSTS), size)])
        elif kind == "one":
            # a single start_flow between two named hosts
            s, a, b, size = args
            path = san(s, a, b)
            if path is not None:
                net.start_flow(path, size, lambda flow: None)
        elif kind == "spread":
            # one batch dirtying every site's shard at once
            a, hop, size = args
            admit([(san(s, a, (a + hop) % HOSTS), size)
                   for s in range(n_sites)])
        elif kind == "wan":
            # pure wide-area flows: coupling tier, no taint
            s, count, other, size = args
            admit([(wan(s, j % HOSTS, (s + other) % n_sites,
                        (j // HOSTS) % HOSTS), size * (1 + j % 5))
                   for j in range(count)])
        elif kind == "mixed":
            # a relayed transfer: site SAN to a gateway host, then the
            # WAN — its route mixes tagged and untagged fabrics, so it
            # joins the coupling tier and taints site ``s``
            s, a, hop, other, c, size = args
            gw = (a + hop) % HOSTS
            legs = san(s, a, gw), wan(s, gw, (s + other) % n_sites, c)
            admit([(None if None in legs else legs[0] + legs[1], size)])
        elif kind == "fail_san":
            s, a = args
            uplink = san(s, a, (a + 1) % HOSTS)
            if uplink is not None:
                net.fail_link(uplink[0])
        else:
            (s,) = args
            net.fail_link(
                topo.fabrics["g-wan"].link(f"g-wan-r{s}", "g-wan-core"))

    return fire


def run_grid_schedule(spec, cls, hosts=HOSTS):
    n_sites, events = spec
    topo, _ = build_grid(sites=n_sites, hosts_per_site=hosts,
                         switch_fanout=2)
    kernel = SimKernel()
    net = cls(kernel, topo)
    fire = grid_events(topo, net, n_sites)
    for t, kind, *args in events:
        kernel.schedule(t, fire, kind, *args)
    kernel.run()
    assert not net.active_flows
    return net


#: ramp site 0 past the column threshold (the ramp itself is walked,
#: vectorised: no table before the first advance; whole-shard solves
#: from the table after it), taint it with a short relayed flow and let
#: that complete (walk while tainted, shard solves after), then drain
#: (out of column form, walks again; the tail is scalar)
ALL_PATHS = (2, [(0.0, "batch", 0, _TABLE_MIN_FLOWS + 10, 1e5, 0),
                 (0.0, "batch", 1, 10, 1e5, 3),
                 (1e-4, "flow", 0, 0, 1, 5e4),
                 (2e-4, "flow", 0, 1, 2, 5e4),
                 (5e-4, "mixed", 0, 0, 1, 1, 2, 2e3),
                 (4e-3, "batch", 0, 5, 1e5, 1),
                 (5e-3, "fail_san", 0, 3),
                 (6e-3, "wan", 1, 3, 1, 1e4)])


#: found by this fuzz when the coupling tier had a whole-tier solve: 64
#: pure WAN flows put the tier over its gate, then the one relayed flow
#: tainting site 2 completes — the taint count drops to zero, and a
#: whole-tier solve left the site-2 flows that shared its SAN links on
#: their stale rates; coupling seeds always take the walk, which reaches
#: them
TAINT_DEPARTS = (3, [(0.0, "batch", 0, 62, 46746.83260039316, 20),
                     (0.0, "batch", 1, 27, 96314.41670142303, 40),
                     (0.0, "batch", 2, 94, 150131.11872346402, 27),
                     (0.004058020802700825, "wan", 2, 64, 2,
                      18545.36259487846),
                     (0.004078020802700825, "mixed", 2, 2, 2, 2, 2, 1000.0)])


#: a closed loop past the column threshold: once a fill has run on the
#: table, a completion refilled on its own route at its instant leaves
#: the shard's classes, their order and multiplicities as they were
LOOP = (2, [(0.0, "loop", 0, _TABLE_MIN_FLOWS + 10, 1e5, 0, 2),
            (1e-4, "flow", 0, 0, 1, 5e4)])


def test_production_path_fuzz_reaches_every_fill(monkeypatch):
    fill_vec = flows_mod._progressive_fill_vec
    vec_calls = [0]

    def counting_fill_vec(*args):
        vec_calls[0] += 1
        return fill_vec(*args)

    monkeypatch.setattr(flows_mod, "_progressive_fill_vec",
                        counting_fill_vec)
    paths = Counter()

    class Recording(CheckedFlowNetwork):
        def _solve_shards(self, shards):
            assert self._table is not None  # whole shards: column form only
            before = vec_calls[0]
            super()._solve_shards(shards)
            # one fill at most: none where the shards' classes, their
            # order and multiplicities are those of their last fill
            assert vec_calls[0] in (before, before + 1)
            paths["shard" if vec_calls[0] > before else "reuse"] += 1

        def _solve(self, subset):
            before = vec_calls[0]
            super()._solve(subset)
            # a walk takes the scalar fill whatever its size
            assert vec_calls[0] == before
            paths["walk"] += 1

    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(ALL_PATHS)
    @example(TAINT_DEPARTS)
    @example(LOOP)
    @given(grid_schedules())
    def fuzz(spec):
        run_grid_schedule(spec, Recording)

    fuzz()
    assert set(paths) == {
        "shard",   # whole shards, in column form, vectorised fill
        "reuse",   # whole shards, the last fill of the same shards
        "walk",    # component walk, scalar fill
    }, paths


# ---------------------------------------------------------------------------
# sparse traffic: where the lone-flow closed form switches on and off
# ---------------------------------------------------------------------------
SPARSE_HOSTS = 6  # leaf switches (0,1) (2,3) (4,5): batches never reach 4, 5


@st.composite
def sparse_schedules(draw):
    site = st.integers(0, 1)
    host = st.integers(0, SPARSE_HOSTS - 1)
    size = st.floats(1e3, 1e5, allow_nan=False)
    events = []
    if draw(st.booleans()):
        # one shard past the whole-shard gate, in column form
        events.append((0.0, "batch", draw(site),
                       draw(st.integers(_TABLE_MIN_FLOWS,
                                        _TABLE_MIN_FLOWS + 40)), 1e5,
                       draw(st.integers(0, 50))))
    t = 0.0
    for _ in range(draw(st.integers(4, 16))):
        # half the events land back to back on the previous one's instant
        t += draw(st.one_of(st.just(0.0), st.floats(0.0, 5e-4,
                                                    allow_nan=False)))
        a = draw(host)
        events.append((t,) + draw(st.one_of(
            st.tuples(st.just("one"), site, st.just(a),
                      host.filter(lambda b: b != a), size),
            st.tuples(st.just("wan"), site, st.just(1), st.just(1), size),
            st.tuples(st.just("mixed"), site, st.integers(0, HOSTS - 1),
                      st.integers(1, HOSTS - 1), st.just(1),
                      st.integers(0, HOSTS - 1), size),
            st.tuples(st.just("fail_san"), site, host))))
    return 2, events


#: every way in and out of the closed form, in order: two lone admissions
#: on disjoint pairs at one instant (settled together: one walk over
#: both), a second flow joining the first
#: one's links (walk), the shorter sharer leaving (walk) and the longer
#: one finishing alone (closed form), a lone flow aborted by fail_link, a
#: lone relayed SAN+WAN flow tainting site 1, then site 0 ramped past the
#: whole-shard gate and the column threshold and a flow on the untouched
#: pair (4, 5): link-lone, but its shard is solved wholesale — the gates
#: come first
SPARSE = (2, [(0.0, "one", 0, 0, 1, 5e4),
              (0.0, "one", 0, 2, 3, 5e4),
              (1e-5, "one", 0, 0, 1, 2e4),
              (1e-3, "one", 1, 4, 5, 1e6),
              (1.1e-3, "fail_san", 1, 4),
              (1.2e-3, "mixed", 1, 2, 1, 1, 2, 2e3),
              (5e-3, "batch", 0, _TABLE_MIN_FLOWS, 1e5, 0),
              (5.1e-3, "one", 0, 4, 5, 3e4)])
#: (solver_solves, solver_iterations, solver_flows_resolved) of SPARSE
SPARSE_WORK = (74, 270, 6420)


def test_sparse_fuzz_enters_and_leaves_the_closed_form():
    """Why the literals read what they do.  On this SPARSE, the solver
    with a component-size estimate read SPARSE_WORK (75, 276, 6666) — as
    did 56b5edf, before the closed form — "shard" 50, "walk" 17 and
    ("shared", True) 1:

    - SPARSE_WORK: the drained shard's solves below the column form walk
      components smaller than the shard (6 rounds, 246 re-solves fewer).
    - "shard" 50 → 33, "walk" 17 → 34: those 17 solves.
    - ("shared", True) 1 → 7: six of them are lone departures, which ask
      the closed form first.
    - Then rates came to be solved once per instant, and the two lone
      admissions at 0.0 settle together: one walk over both pairs where
      each took the closed form, so SPARSE_WORK (75, 270, 6420) → (74,
      270, 6420), ("lone", False) 4 → 2 and "walk" 34 → 35.
    """
    taken = Counter()

    class Recording(CheckedFlowNetwork):
        def _solve_lone(self, flow):
            lone = super()._solve_lone(flow)
            taken["lone" if lone else "shared", flow.done] += 1
            return lone

        def _solve_shards(self, shards):
            taken["shard"] += 1
            super()._solve_shards(shards)

        def _solve(self, subset):
            taken["walk"] += 1
            super()._solve(subset)

    class Walked(FlowNetwork):
        def _solve_lone(self, flow):
            return False  # every lone flow filled by the walk instead

    net = run_grid_schedule(SPARSE, Recording, SPARSE_HOSTS)
    walked = run_grid_schedule(SPARSE, Walked, SPARSE_HOSTS)
    assert (net.solver_solves, net.solver_iterations,
            net.solver_flows_resolved) == SPARSE_WORK == (
        walked.solver_solves, walked.solver_iterations,
        walked.solver_flows_resolved)
    # two lone admissions (the two at 0.0 settle together, and walk) and
    # four lone departures; the joiner, the first of the two sharers to
    # leave and six departures from the drained shard once it is back in
    # object form are turned away; the flow on (4, 5) never asks, and
    # every solve went one way: closed form, walk, whole shard
    assert taken == {("lone", False): 2, ("lone", True): 4,
                     ("shared", False): 1, ("shared", True): 7,
                     "walk": 35, "shard": 33}
    assert net.solver_solves == 2 + 4 + 35 + 33

    @settings(max_examples=60, deadline=None, derandomize=True)
    @example(SPARSE)
    @given(sparse_schedules())
    def fuzz(spec):
        run_grid_schedule(spec, Recording, SPARSE_HOSTS)

    taken.clear()
    fuzz()
    assert taken["lone", False] and taken["lone", True], taken
    assert taken["shared", False] and taken["shared", True], taken
    assert taken["shard"], taken
