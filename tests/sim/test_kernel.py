"""Unit tests for the deterministic simulation kernel."""

import signal
import threading
import time

import pytest

from repro.sim import (
    Mailbox,
    SimDeadlockError,
    SimInterrupt,
    SimKernel,
    SimProcessError,
    SimTimeout,
    format_wait_graph,
)
from tests.sim.conftest import CountingTracer, HookLog, no_thread_left


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


def test_join_any_returns_the_first_target_to_finish():
    with SimKernel() as k:
        slow = k.spawn(lambda p: p.sleep(2.0), name="slow")
        fast = k.spawn(lambda p: p.sleep(1.0), name="fast")
        got = []

        def waiter(p):
            got.append((p.join_any([slow, fast]), k.now))

        k.spawn(waiter)
        k.run()
        assert got == [(fast, 1.0)]


def test_join_any_returns_the_first_listed_of_several_finished():
    with SimKernel() as k:
        a = k.spawn(lambda p: p.sleep(2.0), name="a")
        b = k.spawn(lambda p: p.sleep(1.0), name="b")
        got = []

        def waiter(p):
            p.sleep(3.0)
            got.append(p.join_any([a, b]))

        k.spawn(waiter)
        k.run()
        assert got == [a]


def test_join_any_returns_a_failed_target_without_raising():
    with SimKernel() as k:
        def bad(p):
            p.sleep(1.0)
            raise ValueError("boom")

        failing = k.spawn(bad, daemon=True)
        other = k.spawn(lambda p: p.sleep(5.0))
        got = []
        k.spawn(lambda p: got.append(p.join_any([other, failing])))
        k.run()
        assert got == [failing]
        assert isinstance(failing.exc, ValueError)


def test_join_any_leaves_no_wakeup_behind_for_the_other_targets():
    """A target that exits after join_any returned must not cut short
    whatever the joiner blocks on next."""
    with SimKernel() as k:
        first = k.spawn(lambda p: p.sleep(1.0), name="first")
        second = k.spawn(lambda p: p.sleep(2.0), name="second")
        woke = []

        def waiter(p):
            p.join_any([first, second])
            p.sleep(5.0)
            woke.append(k.now)

        k.spawn(waiter)
        k.run()
        assert woke == [6.0]
        assert second._joiners == []


def test_join_any_reports_one_join_for_the_returned_target():
    with SimKernel() as k:
        log = HookLog()
        k.attach_tracer(log)
        a = k.spawn(lambda p: p.sleep(2.0), name="a")
        b = k.spawn(lambda p: p.sleep(1.0), name="b")
        k.spawn(lambda p: p.join_any([a, b]), name="w")
        k.run()
        assert [e for e in log.log if e[0] == "join"] == [("join", "w->b")]


def test_join_any_rejects_an_empty_target_list():
    with SimKernel() as k:
        errors = []

        def body(p):
            with pytest.raises(ValueError):
                p.join_any([])
            errors.append("raised")

        k.spawn(body)
        k.run()
        assert errors == ["raised"]


def test_join_any_edge_in_wait_graph():
    with SimKernel() as k:
        a = k.spawn(lambda p: p.suspend(), name="a", daemon=True)
        b = k.spawn(lambda p: p.suspend(), name="b", daemon=True)
        k.spawn(lambda p: p.join_any([a, b]), name="joiner")
        with pytest.raises(SimDeadlockError):
            k.run()
        assert "joiner waits on join on any of processes 'a', 'b'" \
            in format_wait_graph(k)


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


def test_run_raises_when_the_heap_drains_over_a_blocked_process():
    baseline = threading.active_count()
    k = SimKernel()
    box = Mailbox(k)
    k.spawn(lambda p: p.sleep(1.0), name="finisher")
    consumer = k.spawn(box.get, name="consumer")
    with pytest.raises(SimDeadlockError) as info:
        k.run()
    assert k.now == 1.0 and consumer.alive
    message = str(info.value)
    assert "still blocked: consumer\n" in message
    assert "consumer waits on Mailbox#1 (0 item(s) queued)" in message
    assert "finisher" not in message
    k.shutdown()
    assert no_thread_left(baseline)


def test_run_until_and_blocked_daemons_stay_quiet():
    baseline = threading.active_count()
    k = SimKernel()
    box = Mailbox(k)
    server = k.spawn(box.get, name="server-loop", daemon=True)
    stuck = k.spawn(lambda p: p.suspend(), name="stuck")
    assert k.run(until=2.0) == 2.0  # bounded: pending work is expected
    assert stuck.alive
    k.wake(stuck)
    assert k.run() == 2.0  # drained over a blocked daemon only
    assert not stuck.alive and server.alive
    k.shutdown()
    assert not server.alive
    assert no_thread_left(baseline)


def test_shutdown_terminates_blocked_processes():
    k = SimKernel()
    def stuck(p):
        p.suspend()

    pr = k.spawn(stuck)
    with pytest.raises(SimDeadlockError):
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
    with pytest.raises(SimDeadlockError):
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
    assert no_thread_left(baseline)


# ----------------------------------------------------------------------
# the loop runs on whichever thread gave up the run token: failure paths
# ----------------------------------------------------------------------
def _thread_name():
    return threading.current_thread().name


def test_callback_error_on_a_carrying_process_surfaces_from_run():
    baseline = threading.active_count()
    k = SimKernel()
    boom = ValueError("boom")
    ran_on = []

    def bad_callback():
        ran_on.append(_thread_name())
        raise boom

    def body(p):
        p.sleep(1.0)
        p.sleep(1.0)  # carries the loop through t=1.5
        return "done"

    pr = k.spawn(body, name="carrier")
    k.schedule(1.5, bad_callback)
    with pytest.raises(ValueError) as ei:
        k.run()
    assert ei.value is boom  # the same object, in the caller's thread
    assert ran_on == ["sim:carrier"]
    assert k.now == 1.5
    assert k.current is None
    assert pr.state == "blocked"  # parked, its wake-up still pending
    assert k.run() == 2.0
    assert pr.result == "done"
    k.shutdown()
    assert no_thread_left(baseline)


def test_successive_run_until_calls_park_and_resume_processes():
    with SimKernel() as k:
        a = k.spawn(lambda p: p.sleep(1.0), name="a")
        b = k.spawn(lambda p: (p.sleep(0.4), p.sleep(2.0)), name="b")
        assert k.run(until=0.5) == 0.5
        assert (a.state, b.state, k.current) == ("blocked", "blocked", None)
        assert k.run(until=1.5) == 1.5
        assert (a.state, b.state, k.current) == ("done", "blocked", None)
        assert k.run() == 2.4
        assert b.state == "done"
        assert k.run(until=3.0) == 3.0  # drained heap: the clock still moves


def _raise_boom(p):
    raise ValueError("boom")


@pytest.mark.parametrize("daemon", [False, True])
@pytest.mark.parametrize("entered_from", ["caller", "process"])
def test_process_failure_by_entering_thread(entered_from, daemon):
    """Non-daemon: raised from run() before any later same-instant
    event; daemon: recorded, and the dead process's thread carries on."""
    with SimKernel() as k:
        later = []
        at = 0.0
        if entered_from == "process":
            # "other" yields at t=0 and carries the loop into bad's start
            k.spawn(lambda p: p.sleep(2.0), name="other")
            at = 1.0
        bad = k.spawn(_raise_boom, name="bad", daemon=daemon, delay=at)
        k.schedule(at, lambda: later.append(_thread_name()))
        if daemon:
            k.run()
            assert later == ["sim:bad"]
        else:
            with pytest.raises(SimProcessError) as ei:
                k.run()
            assert ei.value.process is bad
            assert (later, k.now, k.current) == ([], at, None)
            k.run()  # the rest of the simulation is intact
            assert later == [_thread_name()]  # now the caller carries
        assert isinstance(bad.exc, ValueError)
        assert k.now == (2.0 if entered_from == "process" else 0.0)


def test_timeout_and_interrupt_beating_timeout_keep_the_hook_sequence(
        hook_log):
    """``WaitQueue._expire`` resumes its process inside the timer's own
    event; literals captured at the last relay commit (d1df33f)."""
    with SimKernel() as k:
        k.attach_tracer(hook_log)
        quiet = Mailbox(k)
        seen = []

        def waiter(p):
            try:
                quiet.get(p, timeout=0.05)
            except SimTimeout:
                seen.append("timeout")
            try:
                quiet.get(p, timeout=0.05)  # expires at 0.1, as below
            except SimInterrupt as exc:
                seen.append(exc.cause)

        w = k.spawn(waiter, name="waiter")
        # scheduled first, so it fires before _expire and arms a newer
        # token: the timeout's wake-up is stale and is dropped
        k.schedule(0.1, w.interrupt, "stop")
        assert k.run() == 0.1
        assert seen == ["timeout", "stop"]
        assert (k.events_processed, k.events_skipped) == (5, 0)
        assert hook_log.log == [
            ("schedule", 1), ("schedule", 2), ("fire", 1),
            ("switch", "waiter"), ("schedule", 3), ("fire", 3),
            ("switch", "waiter"), ("schedule", 4), ("fire", 2),
            ("schedule", 5), ("fire", 4), ("fire", 5),
            ("switch", "waiter"), ("exit", "waiter")]


def test_spawn_from_process_body_and_from_callback_on_process_thread():
    with SimKernel() as k:
        kids, ran_on = [], []

        def child(p, tag):
            p.sleep(0.1)
            return tag

        def parent(p):
            kids.append(k.spawn(child, "from-body", name="kid-body"))
            p.sleep(1.0)
            return [p.join(kid) for kid in kids]

        def callback():
            ran_on.append(_thread_name())
            kids.append(k.spawn(child, "from-callback", name="kid-cb"))

        k.schedule(0.05, callback)  # while kid-body sleeps and carries
        pr = k.spawn(parent, name="parent")
        k.run()
        assert ran_on == ["sim:kid-body"]
        assert pr.result == ["from-body", "from-callback"]


def test_many_processes_many_yields_leave_no_thread():
    baseline = threading.active_count()
    k = SimKernel()

    def proc(p, i):
        for step in range(50):
            p.sleep(float((i + step) % 7) * 0.001)
        return i

    procs = [k.spawn(proc, i) for i in range(200)]
    k.run()
    assert [p.result for p in procs] == list(range(200))
    k.shutdown()
    assert no_thread_left(baseline)


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="POSIX")
def test_keyboard_interrupt_in_run_takes_the_run_token_back():
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("signals are delivered to the main thread")
    baseline = threading.active_count()
    k = SimKernel()

    def ticker(p):
        for _ in range(20_000):
            p.sleep(0.001)
        return "done"

    def interrupt_caller():
        # fires on ticker's thread, which is carrying the loop; run()'s
        # caller is parked and is the one interrupted.  The carrier
        # fires nothing more until the caller has taken the signal and
        # stopped the loop, so the ticker cannot finish first however
        # fast it ticks.  A SIGINT that lands between the caller's
        # release of the GIL and its lock wait is only noticed at the
        # next wake-up, hence the resend (never after the loop stopped:
        # the caller sets the flag before it lets go of the GIL).  The
        # deadline keeps a lost signal from hanging the suite: the
        # assertions below fail instead.
        main = threading.main_thread().ident
        deadline = time.monotonic() + 10.0
        while k._running and time.monotonic() < deadline:
            signal.pthread_kill(main, signal.SIGINT)
            time.sleep(0.001)

    pr = k.spawn(ticker, name="ticker")
    k.schedule(0.0105, interrupt_caller)
    with pytest.raises(KeyboardInterrupt):
        k.run()
    assert k.current is None
    assert pr.state == "blocked"
    fired = k.events_processed
    time.sleep(0.05)
    assert k.events_processed == fired  # nobody simulates behind our back
    assert k.run() == pytest.approx(20.0)
    assert pr.result == "done"
    k.shutdown()
    assert no_thread_left(baseline)


# ----------------------------------------------------------------------
# waitgraph: suspend() hints
# ----------------------------------------------------------------------
def test_bare_suspend_labelled_in_wait_graph():
    with SimKernel() as k:
        k.spawn(lambda p: p.suspend(), name="stuck")
        with pytest.raises(SimDeadlockError):
            k.run()
        assert "stuck waits on bare suspend() awaiting an external " \
            "wake()" in format_wait_graph(k)


def test_suspend_hint_labelled_in_wait_graph():
    with SimKernel() as k:
        k.spawn(lambda p: p.suspend(waiting_on="io-completion from nic0"),
                name="stuck")
        with pytest.raises(SimDeadlockError):
            k.run()
        assert "suspend() awaiting io-completion from nic0" \
            in format_wait_graph(k)


# ----------------------------------------------------------------------
# tracer attach surface
# ----------------------------------------------------------------------
def test_tracer_is_read_only():
    """attach_tracer()/detach_tracer() are the one way in."""
    with SimKernel() as k:
        with pytest.raises(AttributeError):
            k.tracer = CountingTracer()
        assert k.tracer is None


def test_tracer_fan_rebuilds_on_attach_and_detach():
    with SimKernel() as k:
        first, second = CountingTracer(), CountingTracer()
        k.attach_tracer(first)
        k.attach_tracer(second)
        k.spawn(lambda p: p.sleep(0.1), name="t1")
        k.run()
        assert first.fires == second.fires > 0
        assert first.switches == second.switches > 0
        k.detach_tracer(first)
        baseline = first.fires
        k.spawn(lambda p: p.sleep(0.1), name="t2")
        k.run()
        assert first.fires == baseline  # detached member no longer called
        assert second.fires > baseline
        assert k.tracer is second  # fan unwraps to the last member


# ----------------------------------------------------------------------
# run-loop fast paths stay semantics-identical
# ----------------------------------------------------------------------
def test_wake_events_skip_the_wake_frame_but_timeouts_use_it(monkeypatch):
    """The loop recognises wake timers by identity and takes their
    arguments directly; ``SimKernel._wake`` is only the entry point for
    a timer callback's tail (``WaitQueue._expire``)."""
    calls = []
    inner = SimKernel._wake

    def counting_wake(self, proc, *args):
        calls.append(proc.name)
        return inner(self, proc, *args)

    monkeypatch.setattr(SimKernel, "_wake", counting_wake)
    with SimKernel() as k:  # built after the patch: _wake_fn wraps it
        k.spawn(lambda p: [p.sleep(0.01) for _ in range(50)], name="solo")
        k.run()
        assert (k.events_processed, calls) == (51, [])

        def waiter(p):
            with pytest.raises(SimTimeout):
                Mailbox(k).get(p, timeout=0.5)

        k.spawn(waiter, name="waiter")
        k.run()
        assert calls == ["waiter"]


def test_batched_drain_honours_mid_batch_cancellation():
    fired = []
    timers = {}
    with SimKernel() as k:
        k.schedule(1.0, lambda: (fired.append("a"), timers["c"].cancel()))
        k.schedule(1.0, fired.append, "b")
        timers["c"] = k.schedule(1.0, fired.append, "c")
        k.run()
        assert fired == ["a", "b"]
        assert k.events_skipped == 1
