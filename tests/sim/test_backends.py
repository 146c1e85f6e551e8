"""The hand-off and what rides directly on it: the observation contract
of ``kernel.backend.block``, the wait-graph labels ``suspend`` leaves,
the tracer attach surface, and the run-loop fast paths (wake-timer
pool, same-instant batch drain) that must stay invisible to the event
order.
"""

import pytest

from repro.sim import Mailbox, SimEvent, SimKernel, format_wait_graph


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
