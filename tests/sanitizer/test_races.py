"""Happens-before race detector: true positives and true negatives.

The acceptance demo — two processes mutating a shared dict across a
yield with no lock — must be flagged with BOTH access sites; every
properly synchronised variant of the same shape must stay silent.
"""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.sanitizer import RaceError, Sanitizer
from repro.sim.kernel import SimKernel
from repro.sim.sync import Mailbox, SimEvent, SimLock


def test_unsynchronised_rmw_across_yield_is_a_race():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    shared = san.tracked({"x": 0}, label="shared")

    def bump(p):
        tmp = shared["x"]       # read
        p.yield_()              # the other process runs here
        shared["x"] = tmp + 1   # write based on a stale read

    kernel.spawn(bump, name="a")
    kernel.spawn(bump, name="b")
    kernel.run()

    assert san.races, "the racy read-modify-write must be detected"
    report = san.races[0].render()
    # both access sites, with file:line coordinates, in one report
    assert report.count(__file__) == 2
    assert "read by" in report or "write by" in report
    assert "no happens-before edge" in report
    with pytest.raises(RaceError):
        san.check()


def test_race_report_names_both_processes():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    shared = san.tracked({}, label="table")

    def writer(p, who):
        p.yield_()
        shared["slot"] = who

    kernel.spawn(writer, "first", name="alpha")
    kernel.spawn(writer, "second", name="beta")
    kernel.run()

    names = {r.prior.ctx_name for r in san.races} | \
        {r.current.ctx_name for r in san.races}
    assert {"alpha", "beta"} <= names


def test_lock_protected_rmw_is_clean():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    lock = SimLock(kernel)
    shared = san.tracked({"x": 0}, label="shared")

    def bump(p):
        lock.acquire(p)
        tmp = shared["x"]
        p.yield_()
        shared["x"] = tmp + 1
        lock.release(p)

    kernel.spawn(bump, name="a")
    kernel.spawn(bump, name="b")
    kernel.run()

    assert san.races == []
    assert shared["x"] == 2


def test_mailbox_handoff_orders_accesses():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    box = Mailbox(kernel)
    shared = san.tracked({}, label="handoff")

    def producer(p):
        shared["payload"] = 42
        box.put("ready")

    def consumer(p):
        box.get(p)
        assert shared["payload"] == 42

    kernel.spawn(producer, name="prod")
    kernel.spawn(consumer, name="cons")
    kernel.run()
    assert san.races == []


def test_event_signal_orders_accesses():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    done = SimEvent(kernel)
    shared = san.tracked({}, label="result")

    def writer(p):
        p.sleep(0.5)
        shared["out"] = "value"
        done.set()

    def reader(p):
        done.wait(p)
        assert shared["out"] == "value"

    kernel.spawn(writer, name="w")
    kernel.spawn(reader, name="r")
    kernel.run()
    assert san.races == []


def test_spawn_and_join_edges_are_ordered():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    shared = san.tracked({}, label="lifecycle")
    shared["before-spawn"] = 1   # kernel context, pre-spawn

    def child(p):
        assert shared["before-spawn"] == 1   # ordered via spawn
        shared["child-out"] = 2

    def parent(p):
        proc = kernel.spawn(child, name="child")
        p.join(proc)
        assert shared["child-out"] == 2      # ordered via join

    kernel.spawn(parent, name="parent")
    kernel.run()
    assert san.races == []


def test_on_race_raise_fires_inside_the_guilty_process():
    kernel = SimKernel()
    san = Sanitizer(kernel, on_race="raise")
    shared = san.tracked({}, label="shared")

    def writer(p, val):
        p.yield_()
        shared["k"] = val

    kernel.spawn(writer, 1, name="a")
    victim = kernel.spawn(writer, 2, name="b")
    with pytest.raises(Exception) as info:
        kernel.run()
    # the failure is attributed to the process that performed the
    # second, racing access
    assert victim.name in str(info.value) or isinstance(
        info.value.__cause__, RaceError) or san.races


def test_uninstall_restores_zero_overhead_configuration():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    assert kernel.tracer is san.detector
    san.uninstall()
    assert kernel.tracer is None


# ----------------------------------------------------------------------
# race shapes across schedules: each must be reported on its key under
# the canonical order and every explored seed
# ----------------------------------------------------------------------
SEEDS = (None, 1, 2, 3, 4)


def _rmw_window(kernel, san, owners=2):
    # unlocked read-modify-write across a sleep, spawned from one site
    # in a loop: with more than one owner it races its own siblings
    counter = san.tracked(SimpleNamespace(value=0), label="counter")

    def bump(p):
        v = counter.value
        p.sleep(1.0)
        counter.value = v + 1

    for _ in range(owners):
        kernel.spawn(bump)


def _partial_lock(kernel, san):
    # the lock covers bump's window, but reset writes without taking it
    lock = SimLock(kernel)
    tally = san.tracked(SimpleNamespace(count=0), label="tally")

    def bump(p):
        lock.acquire(p)
        v = tally.count
        p.sleep(1.0)
        tally.count = v + 1
        lock.release(p)

    def reset(p):
        p.sleep(0.5)
        tally.count = 0

    kernel.spawn(bump)
    kernel.spawn(reset)


def _helper_yield(kernel, san):
    # the yield hides two calls deep in helpers
    meter = san.tracked(SimpleNamespace(level=0), label="meter")

    def pause(p):
        p.sleep(0.5)

    def settle(p):
        pause(p)

    def bump(p):
        v = meter.level
        settle(p)
        meter.level = v + 1

    kernel.spawn(bump)
    kernel.spawn(bump)


def _callback_vs_process(kernel, san):
    # a timer callback overwrites the slot a process straddles
    box = san.tracked(SimpleNamespace(slot=None), label="box")

    def waiter(p):
        box.slot = "armed"
        p.suspend()
        box.slot = None

    def on_timer():
        box.slot = "late"

    kernel.spawn(waiter, daemon=True)   # nobody wakes it
    kernel.schedule(5.0, on_timer)


def _raced_cells(scenario, seed):
    with SimKernel(seed=seed) as kernel:
        san = Sanitizer(kernel)
        scenario(kernel, san)
        kernel.run()
        return {(r.label, r.key) for r in san.races}


@pytest.mark.parametrize("scenario, cell", [
    pytest.param(_rmw_window, ("counter", "value"), id="rmw_window"),
    pytest.param(_partial_lock, ("tally", "count"), id="partial_lock"),
    pytest.param(_helper_yield, ("meter", "level"), id="helper_yield"),
    pytest.param(_callback_vs_process, ("box", "slot"),
                 id="callback_vs_process"),
    pytest.param(partial(_rmw_window, owners=4), ("counter", "value"),
                 id="multi_instance"),
])
def test_race_shape_is_reported_under_every_schedule(scenario, cell):
    for seed in SEEDS:
        assert _raced_cells(scenario, seed) == {cell}, f"seed={seed}"


def test_single_owner_window_is_clean_under_every_schedule():
    for seed in SEEDS:
        assert _raced_cells(partial(_rmw_window, owners=1), seed) == set(), \
            f"seed={seed}"


def test_context_manager_raises_on_exit_when_racy():
    with pytest.raises(RaceError):
        with SimKernel() as kernel, Sanitizer(kernel) as san:
            shared = san.tracked({}, label="cm")

            def writer(p, v):
                p.yield_()
                shared["k"] = v

            kernel.spawn(writer, 1, name="a")
            kernel.spawn(writer, 2, name="b")
            kernel.run()
    assert kernel.tracer is None  # uninstalled on the way out


def test_an_instant_end_callback_happens_after_each_registration():
    # two processes write at one instant and each asks for the callback
    # that reads both writes: every registration is an edge to it, so
    # the kernel-context reads race with neither write
    kernel = SimKernel()
    san = Sanitizer(kernel)
    cells = {who: san.tracked({"t": None}, label=who) for who in "ab"}
    seen = []

    def settle():
        seen.append([cells[who]["t"] for who in "ab"])

    def change(p, who):
        p.sleep(1.0)
        cells[who]["t"] = kernel.now
        kernel.at_instant_end(settle)

    kernel.spawn(change, "a", name="a")
    kernel.spawn(change, "b", name="b")
    kernel.run()
    assert seen == [[1.0, 1.0]]
    san.check()
