"""Unit tests for the deterministic simulation kernel."""

import threading
import time

import pytest

from repro.sim import (
    Mailbox,
    SimDeadlockError,
    SimInterrupt,
    SimKernel,
    SimProcessError,
)
from repro.sim.kernel import run_processes


def test_clock_starts_at_zero():
    with SimKernel() as k:
        assert k.now == 0.0


def test_sleep_advances_virtual_time():
    with SimKernel() as k:
        times = []

        def proc(p):
            p.sleep(1.5)
            times.append(k.now)
            p.sleep(0.5)
            times.append(k.now)

        k.spawn(proc)
        k.run()
        assert times == [1.5, 2.0]
        assert k.now == 2.0


def test_zero_sleep_is_allowed():
    with SimKernel() as k:
        def proc(p):
            p.sleep(0.0)
            return "done"

        pr = k.spawn(proc)
        assert k.run_until_complete(pr) == "done"
        assert k.now == 0.0


def test_negative_sleep_rejected():
    with SimKernel() as k:
        def proc(p):
            with pytest.raises(ValueError):
                p.sleep(-1.0)

        k.run_until_complete(k.spawn(proc))


def test_two_processes_interleave_deterministically():
    def trace_run():
        trace = []
        with SimKernel() as k:
            def a(p):
                for i in range(3):
                    trace.append(("a", i, k.now))
                    p.sleep(1.0)

            def b(p):
                for i in range(3):
                    trace.append(("b", i, k.now))
                    p.sleep(1.0)

            k.spawn(a, name="a")
            k.spawn(b, name="b")
            k.run()
        return trace

    t1 = trace_run()
    t2 = trace_run()
    assert t1 == t2  # determinism
    # spawn order breaks ties at equal times
    assert t1[0][0] == "a" and t1[1][0] == "b"


def test_schedule_callback_fires_in_order():
    with SimKernel() as k:
        fired = []
        k.schedule(2.0, fired.append, "late")
        k.schedule(1.0, fired.append, "early")
        k.schedule(1.0, fired.append, "early2")
        k.run()
        assert fired == ["early", "early2", "late"]
        assert k.now == 2.0


def test_timer_cancel():
    with SimKernel() as k:
        fired = []
        t = k.schedule(1.0, fired.append, "x")
        t.cancel()
        k.run()
        assert fired == []


def test_run_until_stops_clock():
    with SimKernel() as k:
        def proc(p):
            p.sleep(10.0)

        k.spawn(proc)
        k.run(until=3.0)
        assert k.now == 3.0


def test_process_result_and_join():
    with SimKernel() as k:
        def worker(p):
            p.sleep(1.0)
            return 42

        def waiter(p, target):
            return p.join(target)

        w = k.spawn(worker)
        j = k.spawn(waiter, w)
        k.run()
        assert j.result == 42
        assert w.result == 42


def test_join_already_finished_process():
    with SimKernel() as k:
        def worker(p):
            return "early"

        def waiter(p, target):
            p.sleep(5.0)
            return p.join(target)

        w = k.spawn(worker)
        j = k.spawn(waiter, w)
        k.run()
        assert j.result == "early"


def test_nondaemon_failure_propagates():
    with SimKernel() as k:
        def bad(p):
            raise ValueError("boom")

        k.spawn(bad)
        with pytest.raises(SimProcessError) as ei:
            k.run()
        assert isinstance(ei.value.exc, ValueError)


def test_daemon_failure_is_recorded_not_raised():
    with SimKernel() as k:
        def bad(p):
            raise ValueError("boom")

        pr = k.spawn(bad, daemon=True)
        k.run()
        assert isinstance(pr.exc, ValueError)


def test_interrupt_breaks_sleep():
    with SimKernel() as k:
        log = []

        def sleeper(p):
            try:
                p.sleep(100.0)
            except SimInterrupt as e:
                log.append(("interrupted", k.now, e.cause))

        def killer(p, target):
            p.sleep(1.0)
            target.interrupt("link down")

        s = k.spawn(sleeper)
        k.spawn(killer, s)
        k.run()
        assert log == [("interrupted", 1.0, "link down")]


def test_stale_wakeup_after_interrupt_is_ignored():
    with SimKernel() as k:
        log = []

        def sleeper(p):
            try:
                p.sleep(2.0)
            except SimInterrupt:
                log.append("interrupted")
            p.sleep(10.0)  # the stale t=2.0 wake must not end this early
            log.append(k.now)

        def killer(p, target):
            p.sleep(1.0)
            target.interrupt()

        s = k.spawn(sleeper)
        k.spawn(killer, s)
        k.run()
        assert log == ["interrupted", 11.0]


def test_run_until_complete_deadlock_detection():
    with SimKernel() as k:
        def stuck(p):
            p.suspend()

        pr = k.spawn(stuck)
        with pytest.raises(SimDeadlockError):
            k.run_until_complete(pr)


def test_shutdown_terminates_blocked_processes():
    k = SimKernel()
    def stuck(p):
        p.suspend()

    pr = k.spawn(stuck)
    k.run()
    assert pr.alive
    k.shutdown()
    assert not pr.alive
    assert pr.exc is None  # SimShutdown is a clean exit


def test_shutdown_terminates_never_started_process():
    k = SimKernel()
    ran = []

    def proc(p):
        ran.append(True)

    k.spawn(proc, delay=5.0)
    k.run(until=1.0)
    k.shutdown()
    assert ran == []


def test_spawn_delay():
    with SimKernel() as k:
        start = []

        def proc(p):
            start.append(k.now)

        k.spawn(proc, delay=2.5)
        k.run()
        assert start == [2.5]


def test_wake_value_roundtrip():
    with SimKernel() as k:
        def receiver(p):
            return p.suspend()

        def sender(p, target):
            p.sleep(1.0)
            k.wake(target, {"payload": 7})

        r = k.spawn(receiver)
        k.spawn(sender, r)
        k.run()
        assert r.result == {"payload": 7}


def test_primitive_from_wrong_context_rejected():
    with SimKernel() as k:
        def proc(p):
            p.sleep(0.1)

        pr = k.spawn(proc)
        with pytest.raises(RuntimeError):
            pr.sleep(1.0)  # called from the pytest thread, not the process
        k.run()


def test_generator_function_body_is_rejected_at_spawn():
    def body(p):
        yield p.sleep(1.0)

    with SimKernel() as k:
        with pytest.raises(TypeError, match="generator function"):
            k.spawn(body)


def test_run_processes_helper():
    def f(p):
        p.sleep(1.0)
        return "f"

    def g(p):
        p.sleep(2.0)
        return "g"

    assert run_processes([f, g]) == ["f", "g"]


def test_many_processes_scale():
    with SimKernel() as k:
        done = []

        def proc(p, i):
            p.sleep(float(i % 7) * 0.001)
            done.append(i)

        for i in range(200):
            k.spawn(proc, i)
        k.run()
        assert sorted(done) == list(range(200))


# ----------------------------------------------------------------------
# shutdown: every process ends, every thread is gone
# ----------------------------------------------------------------------
def _cleanup_blocks_again(p):
    try:
        p.suspend()
    finally:
        p.sleep(1.0)  # a second blocking point, entered while unwinding


def test_shutdown_terminates_process_whose_cleanup_blocks_again():
    k = SimKernel()
    pr = k.spawn(_cleanup_blocks_again)
    k.run()
    k.shutdown()
    assert pr.state == "done"
    assert pr.exc is None


def test_shutdown_leaves_no_threads_behind():
    baseline = threading.active_count()
    k = SimKernel()
    box = Mailbox(k)
    k.spawn(lambda p: p.sleep(0.1), name="finished")
    k.spawn(box.get, name="in-mailbox-get")
    k.spawn(lambda p: None, name="never-started", delay=5.0)
    k.spawn(lambda p: p.suspend(), name="daemon", daemon=True)
    k.spawn(_cleanup_blocks_again, name="blocking-cleanup")
    k.run(until=1.0)
    assert [p.name for p in k._processes if p.alive] == [
        "in-mailbox-get", "never-started", "daemon", "blocking-cleanup"]
    k.shutdown()
    assert not any(p.alive for p in k._processes)
    # a thread ends just after its last hand-off to the kernel: settle
    deadline = time.monotonic() + 2.0
    while threading.active_count() > baseline \
            and time.monotonic() < deadline:
        time.sleep(0.005)
    assert threading.active_count() <= baseline
