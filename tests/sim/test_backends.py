"""The hand-off and what rides directly on it: the observation contract
of ``kernel.backend.block``, the hand-off count and the tracer hook
order, the wait-graph labels ``suspend`` leaves, the tracer attach
surface, and the run-loop fast paths (wake-timer pool, wake events
taken without a ``_wake()`` frame) that must stay invisible to the
event order.
"""

import sys
import threading
import weakref

import pytest

from repro.sim import (
    Mailbox,
    SimDeadlockError,
    SimEvent,
    SimInterrupt,
    SimKernel,
    SimProcessError,
    SimTimeout,
    format_wait_graph,
)
from tests.sim.conftest import no_thread_left


# ----------------------------------------------------------------------
# observation contract: every yield goes through kernel.backend.block
# ----------------------------------------------------------------------
def test_every_yield_reaches_backend_block_patched_after_construction():
    k = SimKernel()
    inner = k.backend.block
    seen = []

    def counting_block(proc):
        seen.append(proc.name)
        return inner(proc)

    k.backend.block = counting_block  # on the instance, kernel already built
    box = Mailbox(k)
    ready = SimEvent(k)

    def worker(p):
        p.sleep(0.1)           # sleep
        box.put(p, "item")
        return p.suspend()     # suspend

    def consumer(p, target):
        box.get(p)             # sim.sync primitive (proc._yield)
        ready.wait(p)          # another one
        k.wake(target, "go")
        return p.join(target)  # join

    w = k.spawn(worker, name="worker")
    c = k.spawn(consumer, w, name="consumer")
    k.schedule(0.5, ready.set)
    k.run()
    k.shutdown()
    assert c.result == "go"
    assert seen == ["worker", "consumer", "worker", "consumer", "consumer"]


# ----------------------------------------------------------------------
# the permanent gate on the switch cost is a count: backend.handoffs
# ----------------------------------------------------------------------
def _solo_handoffs(n):
    with SimKernel() as k:
        k.spawn(lambda p: [p.sleep(0.01) for _ in range(n)], name="solo")
        k.run()
        return k.backend.handoffs


def test_solo_sleeper_resumes_itself_without_a_handoff():
    # caller -> process, and back when it exits; every sleep in between
    # finds its own wake-up next and just returns
    assert _solo_handoffs(5) == _solo_handoffs(500) == 2


def _ping_pong(rounds, seed=None):
    switches = _CountingTracer()
    with SimKernel(seed=seed) as k:
        k.attach_tracer(switches)
        there, back = Mailbox(k), Mailbox(k)

        def ping(p):
            for i in range(rounds):
                there.put(p, i)
                back.get(p)

        def pong(p):
            for _ in range(rounds):
                back.put(p, there.get(p))

        k.spawn(ping, name="ping")
        k.spawn(pong, name="pong")
        k.run()
        return k.backend.handoffs, switches.switches


def test_at_most_one_handoff_per_switch():
    handoffs, switches = _ping_pong(100)
    assert switches >= 200
    # one lock hand-off per on_switch, plus the caller's way in and out
    # (a kernel-thread relay costs two per switch)
    assert handoffs <= switches + 2
    more, more_switches = _ping_pong(200)
    assert more - handoffs <= more_switches - switches


def test_handoff_count_repeats_exactly():
    assert _ping_pong(50) == _ping_pong(50)
    assert _ping_pong(50, seed=7) == _ping_pong(50, seed=7)


def test_hook_order_matches_the_relay_kernel(hook_log):
    """Two processes, a plain callback and a timeout: the tracer sees
    the literal sequence captured at the last relay commit (d1df33f)."""
    with SimKernel() as k:
        k.attach_tracer(hook_log)
        box, quiet = Mailbox(k), Mailbox(k)

        def ping(p):
            p.sleep(0.1)
            box.put(p, "ball")
            try:
                quiet.get(p, timeout=0.05)
            except SimTimeout:
                return "timed-out"

        def pong(p, other):
            got = box.get(p)
            p.sleep(0.2)
            p.join(other)
            return got

        a = k.spawn(ping, name="ping")
        b = k.spawn(pong, a, name="pong")
        k.schedule(0.12, box.put_nowait, "late")
        k.run()
        assert (a.result, b.result, k.events_processed) \
            == ("timed-out", "ball", 7)
        assert hook_log.log == [
            ("schedule", 1), ("schedule", 2), ("schedule", 3), ("fire", 1),
            ("switch", "ping"), ("schedule", 4), ("fire", 2),
            ("switch", "pong"), ("fire", 4), ("switch", "ping"),
            ("hb_release", "Mailbox"), ("schedule", 5), ("schedule", 6),
            ("fire", 5), ("switch", "pong"), ("hb_acquire", "Mailbox"),
            ("schedule", 7), ("fire", 3), ("hb_release", "Mailbox"),
            ("fire", 6), ("switch", "ping"), ("exit", "ping"), ("fire", 7),
            ("switch", "pong"), ("join", "pong->ping"), ("exit", "pong")]


# ----------------------------------------------------------------------
# ... and on thread recycling another: backend.threads_started
# ----------------------------------------------------------------------
def _dispatch_loop(n, seed=None):
    """A per-call worker shape (GridCCM's ``gridccm-*`` workers): a
    long-lived parent spawns one short-lived process per call, one
    after another."""
    names = []

    def request(p, i):
        names.append((p.name, threading.current_thread().name))
        p.sleep(0.001)
        return i

    def parent(p):
        return [p.join(p.kernel.spawn(request, i, name=f"req-{i}"))
                for i in range(n)]

    with SimKernel(seed=seed) as k:
        pr = k.spawn(parent, name="parent")
        k.run()
        assert pr.result == list(range(n))
        return k.backend.threads_started, k.backend.handoffs, names


def test_short_lived_processes_recycle_one_thread():
    started, _, names = _dispatch_loop(1000)
    assert started <= 1 + 2  # the parent's, and at most two for 1 000 children
    # a recycled thread carries the name of the process it runs now
    assert names == [(f"req-{i}", f"sim:req-{i}") for i in range(1000)]


def test_thread_count_repeats_exactly():
    plain, seeded = _dispatch_loop(50)[:2], _dispatch_loop(50, seed=7)[:2]
    assert _dispatch_loop(50)[:2] == plain
    assert _dispatch_loop(50, seed=7)[:2] == seeded
    assert seeded[0] == plain[0]  # a seed permutes events, not lifetimes


class _Piece(list):
    """A weak-referenceable argument."""


def test_finished_process_pins_nothing_it_was_given():
    """The kernel keeps every process it ever spawned, so a finished one
    must let go of its body and its arguments — a request body, the
    array piece a GridCCM worker's closure holds — or a run keeps every
    payload it moved until the kernel is dropped."""
    arg, held = _Piece([1]), _Piece([2, 3])

    def make_body(piece):
        def body(p, data):
            p.sleep(0.1)
            return len(data) + len(piece)
        return body

    body = make_body(held)
    refs = [weakref.ref(obj) for obj in (arg, held, body)]
    with SimKernel() as k:
        proc = k.spawn(body, arg, name="worker")
        del arg, held, body
        k.run()
        assert proc.result == 3
        assert [ref() for ref in refs] == [None, None, None]


def test_processes_alive_at_once_each_get_a_thread():
    with SimKernel() as k:
        procs = [k.spawn(lambda p: p.sleep(1.0)) for _ in range(20)]
        k.run()
        assert k.backend.threads_started == 20
        assert len({p._thread for p in procs}) == 20


def test_recycling_under_a_hostile_thread_scheduler():
    """Workers park, are re-assigned and re-dispatched while the host
    preempts them every few bytecodes: a worker that read its job slot
    early, or was released twice, would lose or repeat a process."""
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def parent(p, i):
            return sum(p.join(p.kernel.spawn(
                lambda q, j=j: q.sleep(0.001 * ((i + j) % 3)) or j))
                for j in range(60))

        runs = []
        for _ in range(2):
            with SimKernel() as k:
                procs = [k.spawn(parent, i) for i in range(8)]
                k.run()
                assert [p.result for p in procs] == [sum(range(60))] * 8
                runs.append((k.backend.threads_started, k.backend.handoffs))
        assert runs[0] == runs[1] and runs[0][0] <= 2 * 8
    finally:
        sys.setswitchinterval(interval)
    assert no_thread_left(baseline)


def test_idle_threads_do_not_outlive_run():
    baseline = threading.active_count()
    k = SimKernel()
    k.spawn(lambda p: [p.join(k.spawn(lambda q: None)) for _ in range(10)])
    k.run()
    assert k.backend._idle == []
    del k  # dropped without shutdown(): nothing is parked
    assert no_thread_left(baseline)


def _failing(p):
    p.sleep(0.1)
    raise ValueError("boom")


def test_failed_daemon_process_returns_a_reusable_thread():
    baseline = threading.active_count()
    k = SimKernel()

    def parent(p):
        bad = k.spawn(_failing, name="bad", daemon=True)
        p.sleep(1.0)
        assert (bad.state, k.backend._idle[0][1]) == ("failed", bad._thread)
        good = k.spawn(lambda q: q.sleep(0.1) or "ok", name="good")
        assert good._thread is bad._thread
        return p.join(good)

    pr = k.spawn(parent, name="parent")
    k.run()
    assert (pr.result, k.backend.threads_started) == ("ok", 2)
    k.shutdown()
    assert no_thread_left(baseline)


def test_failed_process_that_ends_the_run_leaves_a_working_backend():
    baseline = threading.active_count()
    k = SimKernel()
    k.spawn(_failing, name="bad")
    with pytest.raises(SimProcessError, match="boom"):
        k.run()
    # the run ended on the failing thread: it went idle and was let go
    assert k.backend._idle == []
    good = k.spawn(lambda q: q.sleep(0.1) or "ok", name="good")
    k.run()
    assert (good.result, k.backend.threads_started) == ("ok", 2)
    k.shutdown()
    assert no_thread_left(baseline)


def test_process_ended_before_its_first_dispatch_returns_a_reusable_thread():
    baseline = threading.active_count()
    k = SimKernel()

    def parent(p):
        never = k.spawn(lambda q: "ran", name="never", daemon=True, delay=5.0)
        never.interrupt("cancelled")  # delivered at its first dispatch
        p.sleep(0.1)
        assert isinstance(never.exc, SimInterrupt)
        again = k.spawn(lambda q: "ran", name="again")
        assert again._thread is never._thread
        return p.join(again)

    pr = k.spawn(parent, name="parent")
    k.spawn(lambda p: None, name="unstarted", delay=9.0)
    assert k.run(until=1.0) == 1.0
    assert pr.result == "ran"
    k.shutdown()  # "unstarted" is shut down before its first dispatch
    after = k.spawn(lambda p: "after", name="after")
    k.run()
    assert after.result == "after"
    assert k.backend.threads_started == 4
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
class _CountingTracer:
    """Two of the seven hooks: a tracer, lone or fanned, implements
    whichever it needs."""

    def __init__(self):
        self.fires = 0
        self.switches = 0

    def on_fire(self, timer):
        self.fires += 1

    def on_switch(self, proc):
        self.switches += 1


def test_tracer_is_read_only():
    """attach_tracer()/detach_tracer() are the one way in."""
    with SimKernel() as k:
        with pytest.raises(AttributeError):
            k.tracer = _CountingTracer()
        assert k.tracer is None


def test_tracer_fan_rebuilds_on_attach_and_detach():
    with SimKernel() as k:
        first, second = _CountingTracer(), _CountingTracer()
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
def test_wake_timers_are_pooled_and_reused():
    def ticker(p):
        for _ in range(50):
            p.sleep(0.01)

    with SimKernel() as k, SimKernel() as again:
        k.spawn(ticker, name="ticker")
        k.run()
        assert k._timer_pool, "wake timers should return to the free-list"
        # and the recycling is invisible: a fresh identical run agrees
        again.spawn(ticker, name="ticker")
        again.run()
        assert (again.events_processed, again.now) \
            == (k.events_processed, k.now)


def test_pooling_stands_down_while_traced():
    with SimKernel() as k:
        k.attach_tracer(_CountingTracer())
        k.spawn(lambda p: [p.sleep(0.01) for _ in range(10)], name="t")
        k.run()
        assert k._timer_pool == []  # every traced timer stays unique


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
