"""Differential fuzz of the per-event bookkeeping across the table threshold.

``FlowNetwork`` credits, scans and re-times every live flow at every
event — as per-object loops below ``_TABLE_MIN_FLOWS`` live flows, as
array passes over a ``_FlowTable`` from there on — and the claim is
that nobody can tell which: not by one bit of one ``remaining``, not by
the order of ``link_bytes``.  The solver oracles cannot check that
(``ScratchFlowNetwork`` inherits all three passes), so the reference
lives here: :class:`ObjectForm` advances with the loop every commit up
to 9984772 ran, flow by flow and link by link, and never builds a
table.  Schedules replay on both forms and every observable is compared
after every reallocation.

The schedules use the grid vocabulary of ``test_solver_fuzz`` plus the
two things that re-enter the network from inside its own loops — a
blocking ``transfer`` interrupted mid-flight and completion callbacks
that start flows — sized so the live count climbs through the threshold
and drains back out several times a run.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import NoRouteError, build_grid
from repro.net.flows import FlowNetwork, TransferError, _TABLE_MIN_FLOWS
from repro.sim.kernel import SimInterrupt, SimKernel
from tests.net.test_incremental_maxmin import assert_rate_stores_agree
from tests.net.test_solver_fuzz import HOSTS, grid_events

ENTER = _TABLE_MIN_FLOWS
#: the live count a departure leaves column form at (see ``_remove``)
LEAVE = (3 * ENTER - 1) // 4


class _Observed(FlowNetwork):
    """Snapshots everything observable after every reallocation — the
    end of every admission, completion, abort and link failure,
    including the ones a callback nests inside a completion — and after
    every settle."""

    def __init__(self, kernel, topology):
        super().__init__(kernel, topology)
        self.snapshots: list[str] = []

    def _reallocate(self, dirty):
        super()._reallocate(dirty)
        self._snapshot()

    def _settle(self):
        super()._settle()
        self._snapshot()

    def _snapshot(self):
        timer = self._timer
        # repr: exact for floats, and tells -0.0 from 0.0
        self.snapshots.append(repr((
            self.kernel.now,
            [(f.seq, f.remaining, f.rate) for f in self._flows],
            [(link.name, moved) for link, moved in self.link_bytes.items()],
            len(self.flow_log), self.flow_log[-1:],
            None if timer is None or timer.cancelled else timer.time)))

    def _abort_flow(self, flow, error, wake, advance=True):
        super()._abort_flow(flow, error, wake, advance)
        # what an aborted flow keeps for whoever still holds it
        self.snapshots.append(repr((flow.seq, flow.remaining,
                                    flow.progress, flow.done)))


class ObjectForm(_Observed):
    """The reference: the per-object advance, never a table."""

    def _advance(self):
        now = self.kernel.now
        dt = now - self._last_update
        if dt > 0:
            link_bytes = self._link_bytes
            for f in self._flows:
                moved = f.rate * dt
                f._remaining -= moved
                for link in f.route:
                    link_bytes[link] = link_bytes.get(link, 0.0) + moved
        self._last_update = now
        assert self._table is None


def assert_route_classes_in_step(net: FlowNetwork) -> None:
    """Every table row's route class is the tuple of its flow's link
    ids — what the whole-shard fill reads in place of the row's route."""
    table, ids = net._table, net._link_ids
    route_of = {cls: route for route, cls in table.classes.items()}
    # one id per route, and the ids dense
    assert sorted(route_of) == list(range(len(table.classes)))
    assert [route_of[cls] for cls in table.cls] == \
        [tuple(ids[link] for link in f.route) for f in net._flows]


class ColumnForm(_Observed):
    """Production, plus a census of where it changed form."""

    def __init__(self, kernel, topology):
        super().__init__(kernel, topology)
        self.entered: list[int] = []  # live count at each table build
        self.left: list[int] = []     # ... and at each return to objects
        self.advances = {"object": 0, "column": 0}
        self.cut = 0      # transfers interrupted while in a table
        self.nested = 0   # flows a completion callback started there
        self.rebuilt = 0  # whole-shard solves from a table built again
        self.reclassed = 0  # route-class checks of a table built again
        self._completing = False

    def _reallocate(self, dirty):
        super()._reallocate(dirty)
        assert_rate_stores_agree(self)
        if self._table is not None:
            assert_route_classes_in_step(self)
            self.reclassed += bool(self.left)

    def _solve_shards(self, shards):
        self.rebuilt += bool(self.left)
        super()._solve_shards(shards)

    def _abort_flow(self, flow, error, wake, advance=True):
        self.cut += not wake and self._table is not None
        super()._abort_flow(flow, error, wake, advance)

    def _on_completion(self):
        self._completing = True
        super()._on_completion()
        self._completing = False

    def _admit(self, route, nbytes, callback):
        self.nested += self._completing and self._table is not None
        return super()._admit(route, nbytes, callback)

    def _advance(self):
        tabled = self._table is not None
        if self.kernel.now > self._last_update:
            self.advances["column" if tabled else "object"] += 1
        super()._advance()
        if not tabled and self._table is not None:
            self.entered.append(len(self._flows))

    def _remove(self, flow):
        tabled = self._table is not None
        super()._remove(flow)
        if tabled and self._table is None:
            self.left.append(len(self._flows))


def replay(spec, cls):
    n_sites, events = spec
    topo, _ = build_grid(sites=n_sites, hosts_per_site=HOSTS,
                         switch_fanout=2)
    kernel = SimKernel()
    net = cls(kernel, topo)
    grid = grid_events(topo, net, n_sites)

    def san(s, a, hop):
        try:
            return topo.route(f"g{s}n{a}", f"g{s}n{(a + hop) % HOSTS}",
                              f"g{s}-san")
        except NoRouteError:
            return None  # an earlier failure cut the path

    def fire(kind, *args):
        if kind == "transfer":
            # a blocking transfer, interrupted ``cut`` seconds in: the
            # sender's ``except`` aborts the flow without waking anyone
            s, a, hop, size, cut = args

            def sender(proc):
                try:
                    net.transfer(proc, f"g{s}n{a}",
                                 f"g{s}n{(a + hop) % HOSTS}", size,
                                 f"g{s}-san")
                except (SimInterrupt, TransferError, NoRouteError):
                    pass

            proc = kernel.spawn(sender, daemon=True)
            kernel.schedule(cut, proc.interrupt, "cut")
        elif kind == "chains":
            # ``count`` equal flows on one route finish at one instant,
            # and each one's callback starts its successor from inside
            # the completion loop, while its siblings wait to be removed
            s, a, hop, count, size, depth = args
            path = san(s, a, hop)

            def again(left):
                def callback(flow):
                    if left and flow.error is None \
                            and all(link.up for link in path):
                        net.start_flow(path, size / 2, again(left - 1))
                return callback

            if path is not None:
                net.start_flows([(path, size, again(depth))
                                 for _ in range(count)])
        else:
            grid(kind, *args)

    for t, kind, *args in events:
        kernel.schedule(t, fire, kind, *args)
    try:
        kernel.run()
    finally:
        kernel.shutdown()
    assert not net.active_flows
    return net, kernel


@st.composite
def table_schedules(draw):
    n_sites = draw(st.integers(2, 3))
    site = st.integers(0, n_sites - 1)
    host = st.integers(0, HOSTS - 1)
    hop = st.integers(1, HOSTS - 1)
    other = st.integers(1, n_sites - 1)
    san_size = st.floats(1e4, 2e5, allow_nan=False)
    wan_size = st.floats(1e3, 5e4, allow_nan=False)
    salt = st.integers(0, 50)
    # waves: a burst of events that lifts the live count through the
    # threshold, then a pause long enough to drain back below it
    events = []
    t = 0.0
    for _ in range(draw(st.integers(1, 3))):
        events.append((t, "batch", draw(site),
                       draw(st.integers(ENTER - 2, ENTER + 40)),
                       draw(san_size), draw(salt)))
        for _ in range(draw(st.integers(2, 6))):
            t += draw(st.floats(0.0, 2e-3, allow_nan=False))
            events.append((t,) + draw(st.one_of(
                st.tuples(st.just("batch"), site, st.integers(1, 60),
                          san_size, salt),
                st.tuples(st.just("flow"), site, host, hop, san_size),
                st.tuples(st.just("one"), site, st.just(0),
                          st.integers(1, HOSTS - 1), san_size),
                st.tuples(st.just("spread"), host, hop, san_size),
                st.tuples(st.just("wan"), site, st.integers(1, 60), other,
                          wan_size),
                st.tuples(st.just("mixed"), site, host, hop, other, host,
                          wan_size),
                st.tuples(st.just("transfer"), site, host, hop,
                          st.floats(1e5, 1e6, allow_nan=False),
                          st.floats(0.0, 5e-3, allow_nan=False)),
                st.tuples(st.just("chains"), site, host, hop,
                          st.integers(1, 6), san_size, st.integers(1, 3)),
                st.tuples(st.just("fail_san"), site, host),
                st.tuples(st.just("fail_wan"), site))))
        t += draw(st.floats(0.0, 0.5, allow_nan=False))
    return n_sites, events


#: the count sits on each edge: a ramp of exactly ENTER - 1 flows meets
#: its first advance one short (objects), the flow that advance admits
#: makes it ENTER (built by the next one); the same again from a ramp of
#: exactly ENTER after a drain; chains re-enter from the completion loop
#: in column form, a transfer is cut there, and the third wave fails the
#: link under a table
EDGES = (2, [(0.0, "batch", 0, ENTER - 1, 1e5, 0),
             (1e-4, "flow", 0, 0, 1, 2e5),
             (2e-4, "chains", 0, 1, 2, 4, 5e4, 3),
             (3e-4, "transfer", 0, 2, 1, 1e6, 1e-3),
             (5.0, "batch", 1, ENTER, 1e5, 3),
             (5.0001, "flow", 1, 0, 1, 2e5),
             (9.0, "batch", 0, ENTER + 30, 1e5, 7),
             (9.0001, "wan", 0, 30, 1, 1e4),
             (9.0002, "fail_san", 0, 1)])


def test_column_form_is_indistinguishable_from_the_object_loops():
    census = {"entered": [], "left": [], "object": 0, "column": 0,
              "round_trips": 0, "cut": 0, "nested": 0, "rebuilt": 0,
              "reclassed": 0}

    @settings(max_examples=30, deadline=None, derandomize=True)
    @example(EDGES)
    @given(table_schedules())
    def fuzz(spec):
        ref, ref_kernel = replay(spec, ObjectForm)
        net, kernel = replay(spec, ColumnForm)
        assert len(net.snapshots) == len(ref.snapshots)
        for i, (got, want) in enumerate(zip(net.snapshots, ref.snapshots)):
            assert got == want, f"snapshot {i} of {len(ref.snapshots)}"
        assert repr(net.flow_log) == repr(ref.flow_log)
        assert repr(kernel.now) == repr(ref_kernel.now)
        assert (kernel.events_processed, kernel.events_skipped,
                net.timer_reuses, net.completed_flows) == \
            (ref_kernel.events_processed, ref_kernel.events_skipped,
             ref.timer_reuses, ref.completed_flows)
        census["entered"] += net.entered
        census["left"] += net.left
        census["object"] += net.advances["object"]
        census["column"] += net.advances["column"]
        census["round_trips"] += len(net.left) >= 2
        census["cut"] += net.cut
        census["nested"] += net.nested
        census["rebuilt"] += net.rebuilt
        census["reclassed"] += net.reclassed

    fuzz()
    # the examples really ran in both forms, crossed both ways — often
    # more than once a run — and met each edge exactly
    assert census["object"] > 100 and census["column"] > 100, census
    assert census["round_trips"] >= 5, census
    assert len(census["entered"]) == len(census["left"]) >= 30, census
    assert min(census["entered"]) == ENTER, census
    assert set(census["left"]) == {LEAVE}, census
    # ... and both re-entrant paths ran against a live table
    assert census["cut"] >= 5 and census["nested"] >= 50, census
    # a table dissolved and built again still knows its rows' shards,
    # and its rows' route classes
    assert census["rebuilt"] >= 1 and census["reclassed"] >= 1, census


def test_edges_example_crosses_where_it_says():
    net, _ = replay(EDGES, ColumnForm)
    assert net.entered[:2] == [ENTER, ENTER]
    assert len(net.entered) == len(net.left) == 3
