"""Seeded schedule exploration: determinism proofs and seed-stamped
divergence, plus exact replayability of every seeded schedule."""

import pytest

from repro.sanitizer import (
    ScheduleDivergenceError,
    assert_schedule_deterministic,
    explore_schedules,
    run_scenario,
)
from repro.sanitizer.explore import main as explore_main, smoke_scenario
from repro.sim.kernel import SimKernel
from repro.sim.sync import Mailbox, SimLock


def _racy_scenario(kernel):
    shared = {"x": 0}

    def bump(p):
        tmp = shared["x"]
        p.yield_()
        shared["x"] = tmp + 1

    kernel.spawn(bump, name="a")
    kernel.spawn(bump, name="b")
    kernel.run()
    return shared["x"]


def _locked_scenario(kernel):
    lock = SimLock(kernel)
    shared = {"x": 0}

    def bump(p):
        lock.acquire(p)
        tmp = shared["x"]
        p.yield_()
        shared["x"] = tmp + 1
        lock.release(p)

    kernel.spawn(bump, name="a")
    kernel.spawn(bump, name="b")
    kernel.run()
    return shared["x"]


def test_smoke_scenario_is_schedule_invariant():
    report = assert_schedule_deterministic(smoke_scenario, seeds=5)
    assert len(report.runs) == 5
    assert report.deterministic


def test_locked_scenario_is_schedule_invariant():
    report = assert_schedule_deterministic(_locked_scenario, seeds=5)
    assert all(r.fingerprint[0] == "2" for r in report.runs)


def test_racy_scenario_diverges_with_seed_stamped_failure():
    with pytest.raises(ScheduleDivergenceError) as info:
        assert_schedule_deterministic(_racy_scenario, seeds=5)
    message = str(info.value)
    assert "replay with SimKernel(seed=" in message
    assert info.value.report.divergent


def test_divergent_seed_replays_bit_for_bit():
    report = explore_schedules(_racy_scenario, seeds=5)
    assert report.divergent, "the racy scenario must diverge somewhere"
    bad = report.divergent[0]
    replay = run_scenario(_racy_scenario, seed=bad.seed)
    assert replay.fingerprint == bad.fingerprint
    assert replay.events == bad.events


def test_unseeded_kernel_keeps_canonical_order():
    first = run_scenario(_racy_scenario, seed=None)
    second = run_scenario(_racy_scenario, seed=None)
    assert first.fingerprint == second.fingerprint
    assert first.events == second.events


def test_explicit_seed_sequence_is_respected():
    report = explore_schedules(_locked_scenario, seeds=[7, 99])
    assert [r.seed for r in report.runs] == [7, 99]
    assert report.baseline.seed is None


def test_crash_is_a_first_class_fingerprint():
    def crashing(kernel):
        def boom(p):
            raise ValueError("deliberate")

        kernel.spawn(boom, name="boom")
        kernel.run()

    run = run_scenario(crashing)
    assert run.error is not None
    assert "deliberate" in run.fingerprint[0]


def test_seeded_kernels_reorder_same_instant_events_only():
    def stamps(kernel):
        order = []

        def leg(p, tag):
            p.sleep(0.5 if tag == "late" else 0.0)
            order.append(tag)

        kernel.spawn(leg, "early-1", name="e1")
        kernel.spawn(leg, "early-2", name="e2")
        kernel.spawn(leg, "late", name="l")
        kernel.run()
        return order

    for seed in (None, 1, 2, 3):
        order = run_scenario(stamps, seed=seed).fingerprint[0]
        # virtual-time ordering is inviolable: "late" is always last
        assert order.endswith("'late']")


def test_cli_smoke_exits_zero(capsys):
    assert explore_main(["--seeds", "3"]) == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out


def test_mailbox_fifo_under_every_seed():
    def fifo(kernel):
        box = Mailbox(kernel)
        got = []

        def producer(p):
            for i in range(5):
                box.put(i)
                p.sleep(0.001)

        def consumer(p):
            for _ in range(5):
                got.append(box.get(p))

        kernel.spawn(producer, name="prod")
        kernel.spawn(consumer, name="cons")
        kernel.run()
        return got

    report = assert_schedule_deterministic(fifo, seeds=5)
    assert report.baseline.fingerprint[0] == "[0, 1, 2, 3, 4]"
