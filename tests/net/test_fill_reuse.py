"""Fuzz the whole-shard fill's reuse of its last result.

A whole-shard solve fills the shard's *route classes* (see
``repro.net.flows``).  The fill is a pure function of the classes'
routes, their order, their multiplicities and the link bandwidths, so
``_solve_shards`` keeps the last fill of each set of shards it solved
together and, when a solve of the same shards on the same table sees
the same classes in the same order with the same multiplicities, reuses
its rates instead of filling again.  Closed-loop traffic — a completion
refilled on its own route at its instant — is the case it is for.

The schedules here are closed loops on a small grid, a site past the
column threshold, and they reach every way a solve can meet the last
fill of its shards:

* ``hit`` — the same classes, order and multiplicities: refills on the
  completions' own routes;
* ``mult`` — the same classes in the same order, a multiplicity moved:
  a completion not refilled, or an admission on a live route;
* ``order`` — the same classes, another order of first rows: a class's
  oldest flow completing and refilled behind another class's first row;
* ``classes`` — a class came or went;
* ``first`` / ``reentry`` — the first solve on a table, and on a table
  built after the network left column form and came back: class ids are
  the table's, so nothing of an earlier table's fills may count.

Every settle is checked against a from-scratch ``maxmin_rates``, values
and order, and every solve is checked to have filled exactly when it
was not a ``hit``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import build_grid
from repro.net import flows as flows_mod
from repro.net.flows import _TABLE_MIN_FLOWS
from repro.sim.kernel import SimKernel
from tests.net.test_incremental_maxmin import CheckedFlowNetwork

HOSTS = 4  # per site; leaf switches (0, 1) and (2, 3)
#: refills stop here, so every loop drains
STOP = 0.05
BIG = 1e9  # bytes: a flow that outlives every refill


def run_loops(events, cls):
    """Replay ``(t, site, src, dst, count, size, policy)`` admissions.

    A flow admitted with policy ``same`` is refilled by its completion
    callback — the same route and size, at once; ``batch`` collects the
    instant's completions and refills them in one ``start_flows`` later
    in the instant (``flow_churn``'s shape); ``none`` is not refilled.
    Refills stop at :data:`STOP`.
    """
    topo, _ = build_grid(sites=2, hosts_per_site=HOSTS, switch_fanout=2)
    kernel = SimKernel()
    net = cls(kernel, topo)
    pending = []

    def flush():
        requests = [request(r, size, policy) for r, size, policy in pending]
        pending.clear()
        net.start_flows(requests)

    def request(r, size, policy):
        def done(flow):
            if policy == "none" or kernel.now >= STOP:
                return
            if policy == "same":
                net.start_flow(r, size, request(r, size, policy)[2])
                return
            if not pending:
                kernel.schedule(0.0, flush)
            pending.append((r, size, policy))
        return r, size, done

    def admit(s, a, b, count, size, policy):
        r = topo.route(f"g{s}n{a}", f"g{s}n{b}", f"g{s}-san")
        net.start_flows([request(r, size, policy)] * count)

    for t, *args in events:
        kernel.schedule(t, admit, *args)
    kernel.run()
    assert not net.active_flows
    return net


class Recording(CheckedFlowNetwork):
    """Classifies every whole-shard solve against the previous solve of
    the same shards on the same table, and checks that it filled exactly
    when the two differ."""

    def __init__(self, kernel, topology, kinds, fills):
        super().__init__(kernel, topology)
        self.kinds, self.fills = kinds, fills
        self.tables = []
        self.last = {}

    def _solve_shards(self, shards):
        table = self._table
        fresh = not self.tables or self.tables[-1] is not table
        if fresh:
            self.tables.append(table)
            self.last.clear()
        _, _, _, classes, mult = table.route_classes(shards)
        now = classes.tolist(), mult.tolist()
        key = tuple(sorted(shards))
        last = self.last.get(key)
        if last is None:
            kind = "reentry" if len(self.tables) > 1 else "first"
        elif now == last:
            kind = "hit"
        elif now[0] == last[0]:
            kind = "mult"
        elif sorted(now[0]) == sorted(last[0]):
            kind = "order"
        else:
            kind = "classes"
        self.last[key] = now
        before = self.fills[0]
        super()._solve_shards(shards)
        assert self.fills[0] - before == (kind != "hit"), kind
        self.kinds[kind] += 1


@pytest.fixture
def recording(monkeypatch):
    """``(run, kinds)``: ``run(events)`` replays on a :class:`Recording`
    network, and ``kinds`` counts the solve kinds every run met."""
    fill = flows_mod._progressive_fill_vec
    fills = [0]
    kinds = Counter()

    def counted(*args):
        fills[0] += 1
        return fill(*args)

    monkeypatch.setattr(flows_mod, "_progressive_fill_vec", counted)

    def run(events):
        run_loops(events, lambda k, t: Recording(k, t, kinds, fills))
    return run, kinds


#: three classes of 60 flows, X = 0 -> 1 and Z = 0 -> 2 sharing host 0's
#: uplink, Y = 2 -> 3 alone; the table is built at 1e-6, where the last
#: Z flow joins.  X, the smallest, completes first and is refilled in
#: one piece: its first row moves behind Y's and Z's, and the classes
#: read Y, Z, X with multiplicities 60, 60, 60 as before — but X's rate
#: is no longer the first position's
REORDER = [(0.0, 0, 0, 1, 60, 2e4, "same"),
           (0.0, 0, 2, 3, 60, BIG, "none"),
           (0.0, 0, 0, 2, 59, BIG, "none"),
           (1e-6, 0, 0, 2, 1, BIG, "none")]

#: as REORDER, then one more X flow: the classes and their order stay,
#: X's multiplicity moves, and so do X's and Z's rates
MULT = [(0.0, 0, 0, 1, 60, BIG, "none"),
        (0.0, 0, 2, 3, 60, BIG, "none"),
        (0.0, 0, 0, 2, 59, BIG, "none"),
        (1e-6, 0, 0, 2, 1, BIG, "none"),
        (2e-6, 0, 0, 1, 1, BIG, "none")]

#: A = 0 -> 1 (100 flows) and B = 0 -> 2 (70) share host 0's uplink
#: when the first table fills: classes 0, 1, multiplicities 100, 70.
#: A completes, the network leaves column form; later B grows to 100 and
#: C = 1 -> 0, disjoint from B, joins with 70: the second table's fill
#: reads classes 0 (B), 1 (C), multiplicities 100, 70 — the first
#: table's numbers, for other routes at other rates
REENTRY = [(0.0, 0, 0, 1, 100, 1e5, "none"),
           (0.0, 0, 0, 2, 69, BIG, "none"),
           (1e-6, 0, 0, 2, 1, BIG, "none"),
           (0.5, 0, 0, 2, 29, BIG, "none"),
           (0.5, 0, 1, 0, 70, BIG, "none"),
           (0.5 + 1e-6, 0, 0, 2, 1, BIG, "none")]


@pytest.mark.parametrize("events, kind", [(REORDER, "order"),
                                          (MULT, "mult"),
                                          (REENTRY, "reentry")])
def test_a_changed_fill_input_fills_again(recording, events, kind):
    run, kinds = recording
    run(events)
    assert kinds[kind], kinds


@st.composite
def loop_schedules(draw):
    site = st.integers(0, 1)
    host = st.integers(0, HOSTS - 1)
    hop = st.integers(1, HOSTS - 1)
    size = st.sampled_from([2e4, 5e4, 1e5, 2e5])
    policy = st.sampled_from(["same", "batch", "none"])
    # the ramp: site 0 past the column threshold, on a few routes
    n = draw(st.integers(2, 5))
    total = _TABLE_MIN_FLOWS + draw(st.integers(0, 40))
    events = [(0.0, 0, a, (a + draw(hop)) % HOSTS, total // n + (i == 0)
               * (total % n), draw(size), draw(policy))
              for i, a in enumerate(draw(st.lists(host, min_size=n,
                                                  max_size=n)))]
    t = 0.0
    for _ in range(draw(st.integers(1, 8))):
        t += draw(st.floats(0.0, 2e-2, allow_nan=False))
        a = draw(host)
        events.append((t, draw(site), a, (a + draw(hop)) % HOSTS,
                       draw(st.one_of(st.integers(1, 8),
                                      st.integers(60, 180))),
                       draw(size), draw(policy)))
    return events


def test_fuzz_reaches_every_kind_of_solve(recording):
    run, kinds = recording

    @settings(max_examples=30, deadline=None, derandomize=True)
    @example(REORDER)
    @example(MULT)
    @example(REENTRY)
    @given(loop_schedules())
    def fuzz(events):
        run(events)

    fuzz()
    assert set(kinds) == {"first", "reentry", "hit", "mult", "order",
                          "classes"}, kinds
