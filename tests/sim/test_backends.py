"""The hand-off and what rides directly on it: the observation contract
of ``kernel.backend.block``, the hand-off count and the tracer hook
order, the wait-graph labels ``suspend`` leaves, the tracer attach
surface, and the run-loop fast paths (wake-timer pool, wake events
taken without a ``_wake()`` frame) that must stay invisible to the
event order.
"""

import pytest

from repro.sim import (
    Mailbox,
    SimEvent,
    SimKernel,
    SimTimeout,
    format_wait_graph,
)


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
# waitgraph: suspend() hints
# ----------------------------------------------------------------------
def test_bare_suspend_labelled_in_wait_graph():
    with SimKernel() as k:
        k.spawn(lambda p: p.suspend(), name="stuck")
        k.run()
        assert "stuck waits on bare suspend() awaiting an external " \
            "wake()" in format_wait_graph(k)


def test_suspend_hint_labelled_in_wait_graph():
    with SimKernel() as k:
        k.spawn(lambda p: p.suspend(waiting_on="io-completion from nic0"),
                name="stuck")
        k.run()
        assert "suspend() awaiting io-completion from nic0" \
            in format_wait_graph(k)


# ----------------------------------------------------------------------
# tracer attach surface
# ----------------------------------------------------------------------
class _CountingTracer:
    """Full hook surface (a single attached tracer must implement it
    all; only fan *members* may implement subsets)."""

    def __init__(self):
        self.fires = 0
        self.switches = 0

    def on_fire(self, timer):
        self.fires += 1

    def on_switch(self, proc):
        self.switches += 1

    def on_schedule(self, timer):
        pass

    def on_exit(self, proc):
        pass

    def on_join(self, proc, target):
        pass

    def hb_release(self, obj):
        pass

    def hb_acquire(self, obj):
        pass


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
