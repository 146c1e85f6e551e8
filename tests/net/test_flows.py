"""Unit tests for the flow-level transfer engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ETHERNET_100,
    FlowNetwork,
    Topology,
    TransferError,
    build_cluster,
)
from repro.net.flows import _TABLE_MIN_FLOWS
from repro.sim import SimKernel


@pytest.fixture()
def grid():
    kernel = SimKernel()
    topo = Topology()
    build_cluster(topo, "a", 4)
    net = FlowNetwork(kernel, topo)
    yield kernel, topo, net
    kernel.shutdown()


def test_single_transfer_latency_plus_fluid_time(grid):
    kernel, topo, net = grid

    def proc(p):
        return net.transfer(p, "a0", "a1", 1_000_000, "a-san")

    pr = kernel.spawn(proc)
    kernel.run()
    expected = 9e-6 + 1_000_000 / 240e6
    assert pr.result == pytest.approx(expected, rel=1e-9)


def test_zero_byte_transfer_costs_only_latency(grid):
    kernel, topo, net = grid

    def proc(p):
        return net.transfer(p, "a0", "a1", 0, "a-san")

    pr = kernel.spawn(proc)
    kernel.run()
    assert pr.result == pytest.approx(9e-6)


def test_current_rate_settles_the_instant_first(grid):
    # an admission waits for the instant's settle; a rate read does not
    kernel, topo, net = grid
    route = topo.route("a0", "a1", "a-san")
    rates = []

    def admit():
        first = net.start_flow(route, 1e6, lambda flow: None)
        second = net.start_flow(route, 1e6, lambda flow: None)
        rates.append((first.rate, second.rate))  # recorded, not solved
        rates.append((net.current_rate(first), net.current_rate(second)))

    kernel.schedule(0.0, admit)
    kernel.run()
    assert rates == [(0.0, 0.0), (120e6, 120e6)]
    # the read's settle, then both departures' settle
    assert net.solver_solves == 2


def test_two_flows_same_route_share_half_each(grid):
    """The paper's concurrency result: two streams on one Myrinet path
    each get 120 MB/s."""
    kernel, topo, net = grid
    done = []

    def proc(p, name):
        elapsed = net.transfer(p, "a0", "a1", 1_200_000, "a-san")
        done.append((name, elapsed))

    kernel.spawn(proc, "corba")
    kernel.spawn(proc, "mpi")
    kernel.run()
    # both run concurrently at 120 MB/s
    expected = 9e-6 + 1_200_000 / 120e6
    for _name, elapsed in done:
        assert elapsed == pytest.approx(expected, rel=1e-6)


def test_disjoint_pairs_do_not_contend(grid):
    kernel, topo, net = grid
    done = []

    def proc(p, src, dst):
        done.append(net.transfer(p, src, dst, 2_400_000, "a-san"))

    kernel.spawn(proc, "a0", "a1")
    kernel.spawn(proc, "a2", "a3")
    kernel.run()
    expected = 9e-6 + 2_400_000 / 240e6
    assert all(e == pytest.approx(expected, rel=1e-6) for e in done)


def test_late_flow_slows_down_early_flow(grid):
    kernel, topo, net = grid
    results = {}

    def early(p):
        results["early"] = net.transfer(p, "a0", "a1", 2_400_000, "a-san")

    def late(p):
        p.sleep(0.005)  # early flow is half done (10ms total alone)
        results["late"] = net.transfer(p, "a0", "a1", 1_200_000, "a-san")

    kernel.spawn(early)
    kernel.spawn(late)
    kernel.run()
    # early: ~5ms alone at 240 + remaining 1.2MB shared at 120 = ~10ms + lat
    assert results["early"] == pytest.approx(9e-6 + 0.005 + 0.01, rel=1e-3)


def test_link_bytes_accounting(grid):
    kernel, topo, net = grid

    def proc(p):
        net.transfer(p, "a0", "a1", 500_000, "a-san")

    kernel.spawn(proc)
    kernel.run()
    uplink = topo.fabrics["a-san"].link("a0", "a-san-sw")
    downlink = topo.fabrics["a-san"].link("a-san-sw", "a1")
    assert net.link_bytes[uplink] == pytest.approx(500_000)
    assert net.link_bytes[downlink] == pytest.approx(500_000)
    assert net.completed_flows == 1


def test_link_failure_aborts_inflight_transfer(grid):
    kernel, topo, net = grid
    caught = []

    def sender(p):
        try:
            net.transfer(p, "a0", "a1", 240_000_000, "a-san")  # 1s alone
        except TransferError as e:
            caught.append((kernel.now, str(e)))

    def chaos(p):
        p.sleep(0.1)
        link = topo.fabrics["a-san"].link("a0", "a-san-sw")
        net.fail_link(link)

    kernel.spawn(sender)
    kernel.spawn(chaos)
    kernel.run()
    assert len(caught) == 1
    assert caught[0][0] == pytest.approx(0.1)
    assert "down" in caught[0][1]


def test_transfer_on_downed_link_raises_immediately(grid):
    kernel, topo, net = grid
    net.fail_link(topo.fabrics["a-san"].link("a0", "a-san-sw"))
    errors = []

    def sender(p):
        try:
            net.transfer(p, "a0", "a1", 1000, "a-san")
        except Exception as e:  # noqa: BLE001
            errors.append(type(e).__name__)

    kernel.spawn(sender)
    kernel.run()
    # routing already fails: NoRouteError
    assert errors == ["NoRouteError"]


def test_fail_link_takes_down_the_whole_cable(grid):
    """Failing one direction of a cable fails the other too: a flow on
    the reverse link is a victim, and a flow on each direction gets one
    error from one failure."""
    kernel, topo, net = grid
    fab = topo.fabrics["a-san"]
    uplink, downlink = fab.link("a0", "a-san-sw"), fab.link("a-san-sw", "a0")
    outcomes = []

    def record(flow):
        outcomes.append((flow.route[0].name, kernel.now, str(flow.error)))

    net.start_flow(topo.route("a1", "a0", "a-san"), 240e6, record)
    net.start_flow(topo.route("a0", "a2", "a-san"), 240e6, record)
    kernel.schedule(0.1, net.fail_link, uplink)
    kernel.run()
    down = f"link {uplink.name} went down"
    # the forward link's victims first, then the reverse link's
    assert outcomes == [("a-san:a0->a-san-sw", pytest.approx(0.1), down),
                        ("a-san:a1->a-san-sw", pytest.approx(0.1), down)]
    assert not uplink.up and not downlink.up
    assert [ok for *_, ok in net.flow_log] == [False, False]
    assert net.completed_flows == 0 and not net.active_flows


def test_restore_link_reroutes_without_a_resolve():
    """After a restore the next transfer takes the cable again (the
    route cache was cleared); the flow on the detour keeps its rate,
    and no solver counter moves."""
    topo = Topology()
    fab = topo.add_fabric("ring", ETHERNET_100)
    for n in ("x", "y", "z"):
        topo.add_host(n)
    topo.attach("x", fab, "y")
    topo.attach("y", fab, "z")
    topo.attach("x", fab, "z")
    with SimKernel() as kernel:
        net = FlowNetwork(kernel, topo)
        cable = fab.link("x", "y")
        net.fail_link(cable)
        detour = net.start_flow(topo.route("x", "y", "ring"), 1e6,
                                lambda f: None)
        assert [l.name for l in detour.route] == ["ring:x->z", "ring:z->y"]

        def solver():
            return (net.solver_solves, net.solver_iterations,
                    net.solver_flows_resolved, detour.rate)

        before = solver()
        net.restore_link(cable)
        assert solver() == before
        assert cable.up and fab.link("y", "x").up
        direct = net.start_flow(topo.route("x", "y", "ring"), 1e6,
                                lambda f: None)
        assert [l.name for l in direct.route] == ["ring:x->y"]
        kernel.run()
        assert detour.error is None and direct.error is None
        assert net.completed_flows == 2


def test_link_state_has_no_public_writer(grid):
    kernel, topo, net = grid
    link = topo.fabrics["a-san"].link("a0", "a-san-sw")
    with pytest.raises(AttributeError):
        link.up = False
    assert link.up


def test_surviving_flow_speeds_up_after_other_completes(grid):
    kernel, topo, net = grid
    results = {}

    def small(p):
        results["small"] = net.transfer(p, "a0", "a1", 1_200_000, "a-san")

    def big(p):
        results["big"] = net.transfer(p, "a0", "a1", 3_600_000, "a-san")

    kernel.spawn(small)
    kernel.spawn(big)
    kernel.run()
    # both at 120 until small's 1.2MB completes (t=10ms); big then has
    # 2.4MB left at 240 → 10ms more.
    assert results["small"] == pytest.approx(9e-6 + 0.01, rel=1e-6)
    assert results["big"] == pytest.approx(9e-6 + 0.02, rel=1e-6)


def test_interrupted_sender_cancels_flow(grid):
    kernel, topo, net = grid
    outcome = []

    def sender(p):
        try:
            net.transfer(p, "a0", "a1", 240_000_000, "a-san")
        except Exception as e:  # noqa: BLE001
            outcome.append(type(e).__name__)
        p.suspend()

    def other(p):
        # starts later; should get full bandwidth once sender is killed
        p.sleep(0.2)
        t0 = kernel.now
        net.transfer(p, "a0", "a1", 2_400_000, "a-san")
        outcome.append(kernel.now - t0)

    s = kernel.spawn(sender, daemon=True)

    def killer(p):
        p.sleep(0.1)
        s.interrupt("chaos")

    kernel.spawn(other)
    kernel.spawn(killer)
    kernel.run()
    assert outcome[0] == "SimInterrupt"
    assert outcome[1] == pytest.approx(9e-6 + 0.01, rel=1e-6)


def test_start_flow_callback_api(grid):
    kernel, topo, net = grid
    fired = []
    route = topo.route("a0", "a1", "a-san")
    net.start_flow(route, 240_000, lambda f: fired.append((kernel.now, f.error)))
    kernel.run()
    assert len(fired) == 1
    t, err = fired[0]
    assert err is None
    assert t == pytest.approx(240_000 / 240e6)


def test_start_flow_rejects_empty_size(grid):
    kernel, topo, net = grid
    route = topo.route("a0", "a1", "a-san")
    with pytest.raises(ValueError):
        net.start_flow(route, 0, lambda f: None)


@pytest.mark.parametrize("ballast", [0, _TABLE_MIN_FLOWS])
def test_aborting_a_flow_that_is_not_live_here_is_a_no_op(grid, ballast):
    kernel, topo, net = grid
    other = FlowNetwork(kernel, topo)
    for _ in range(ballast):  # long flows elsewhere: a network in column form
        net.start_flow(topo.route("a2", "a3", "a-san"), 1e12, lambda f: None)
    route = topo.route("a0", "a1", "a-san")
    quick = net.start_flow(route, 240_000, lambda f: None)
    kernel.run(until=0.01)
    assert quick.done and quick.error is None
    live = net.start_flow(route, 240e6, lambda f: None)
    foreign = other.start_flow(route, 240e6, lambda f: None)
    kernel.run(until=0.02)
    assert (net._table is not None) == bool(ballast)

    def state():
        return (list(net.flow_log), dict(net.link_bytes), live.remaining,
                net.active_flows, other.active_flows, net.solver_solves)

    before = state()
    for flow in (quick, foreign):  # finished; another network's
        net._abort_flow(flow, TransferError("nope"), wake=True)
    assert state() == before
    assert quick.error is None and foreign.error is None
    assert live in net.active_flows and other.active_flows == [foreign]


@pytest.mark.parametrize("ballast", [0, _TABLE_MIN_FLOWS])
def test_callback_failing_the_link_under_a_sibling_finishing_now(
        grid, ballast):
    """Two flows finish at one instant; the first one's callback fails
    their link, which aborts the second before the completion loop
    reaches it (``list.remove`` used to raise there)."""
    kernel, topo, net = grid
    for _ in range(ballast):
        net.start_flow(topo.route("a2", "a3", "a-san"), 1e12, lambda f: None)
    route = topo.route("a0", "a1", "a-san")
    outcomes = []

    def first_done(flow):
        outcomes.append(("first", flow.error))
        net.fail_link(route[0])

    net.start_flow(route, 240_000, first_done)
    second = net.start_flow(
        route, 240_000, lambda f: outcomes.append(("second", str(f.error))))
    kernel.run(until=0.01)
    assert outcomes == [("first", None),
                        ("second", f"link {route[0].name} went down")]
    assert second.done and len(net.active_flows) == ballast
    assert (net._table is not None) == bool(ballast)
    assert [ok for *_, ok in net.flow_log] == [True, False]
    assert net.completed_flows == 1


# ---------------------------------------------------------------------------
# completion far into virtual time: the timer must not livelock
# ---------------------------------------------------------------------------
#
# Past ~64 virtual seconds one ulp of the clock carries more bytes at
# 240 MB/s than the completion threshold, so a flow can be left with a
# residual whose transfer time rounds to ``now + 0``.  The network used
# here fails the test instead of spinning if that ever re-arms the
# completion timer forever.

class _BoundedFlowNetwork(FlowNetwork):
    FIRINGS_PER_FLOW = 8  # one completion + a few one-ulp catch-ups

    def __init__(self, kernel, topology):
        super().__init__(kernel, topology)
        self.firings = 0
        self.budget = 0

    def start_flow(self, route, nbytes, callback):
        self.budget += self.FIRINGS_PER_FLOW
        return super().start_flow(route, nbytes, callback)

    def _on_completion(self):
        self.firings += 1
        assert self.firings <= self.budget, \
            f"completion timer is spinning at t={self.kernel.now!r}"
        super()._on_completion()


def _late_flows(starts_and_sizes):
    topo = Topology()
    build_cluster(topo, "c", 2)
    kernel = SimKernel()
    net = _BoundedFlowNetwork(kernel, topo)
    route = topo.route("c0", "c1", "c-san")
    flows = []
    for start, size in starts_and_sizes:
        kernel.schedule(start, lambda size=size: flows.append(
            net.start_flow(route, size, lambda f: None)))
    kernel.run()
    return kernel, net, flows


def test_completion_does_not_livelock_late_in_virtual_time():
    # at t = 100 s this size leaves 1.25e-6 B after the first firing:
    # above the 1e-6 B threshold, yet only 5e-15 s from done
    kernel, net, (flow,) = _late_flows([(100.0, 1_000_001.0)])
    assert flow.done and flow.error is None and flow.remaining == 0.0
    assert kernel.events_processed <= 4
    assert kernel.now == pytest.approx(100.0 + 1_000_001.0 / 240e6,
                                       abs=1e-12)


def test_completion_does_not_livelock_late_in_column_form():
    # the same flow at the same instant, on a network that holds enough
    # long transfers on another host pair to be in column form: the
    # residual-time clause has to find it among the columns
    topo = Topology()
    build_cluster(topo, "c", 4)
    kernel = SimKernel()
    net = _BoundedFlowNetwork(kernel, topo)
    ballast = topo.route("c2", "c3", "c-san")
    for _ in range(_TABLE_MIN_FLOWS + 8):
        net.start_flow(ballast, 1e9, lambda f: None)
    seen = []

    def late_done(flow):
        seen.append((kernel.now, net._table is not None,
                     len(net.active_flows)))

    late = []
    kernel.schedule(100.0, lambda: late.append(net.start_flow(
        topo.route("c0", "c1", "c-san"), 1_000_001.0, late_done)))
    kernel.run()
    (flow,) = late
    assert flow.done and flow.error is None and flow.remaining == 0.0
    (when, tabled, live), = seen
    assert tabled and live == _TABLE_MIN_FLOWS + 8
    assert when == pytest.approx(100.0 + 1_000_001.0 / 240e6, abs=1e-12)
    # the ballast drains too, all at one instant, long after
    assert not net.active_flows and net.completed_flows == live + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1e6, allow_nan=False),
                          st.floats(1.0, 1e10, allow_nan=False)),
                min_size=1, max_size=3))
def test_flows_drain_at_any_virtual_time(starts_and_sizes):
    kernel, net, flows = _late_flows(starts_and_sizes)
    assert not net.active_flows
    assert len(flows) == len(starts_and_sizes)
    for flow in flows:
        assert flow.done and flow.error is None
        assert flow.remaining == 0.0
    # finishing a flow whose residual cannot move the clock must not
    # skip real work: nothing beats the link's line rate by more than
    # clock rounding
    for start, end, size, _link, ok in net.flow_log:
        assert ok
        assert end - start >= size / 240e6 * (1 - 1e-9) - 4 * math.ulp(end)
