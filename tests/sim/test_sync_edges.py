"""Edge cases in the sync primitives: timeout-while-queued, the
lost-interrupt race in the WaitQueue timeout path (a real bug this
suite surfaced — the expiry wake-up is now bound to the token armed at
wait() entry), selective-receive shutdown with unmatched items, and
the deadlock wait-for graph."""

import pytest

from repro.sim.kernel import (
    SimDeadlockError,
    SimInterrupt,
    SimKernel,
)
from repro.sim.sync import (
    Mailbox,
    SimLock,
    SimTimeout,
)
from repro.sim.waitgraph import format_wait_graph, wait_edges


# ----------------------------------------------------------------------
# timeout while queued behind other waiters
# ----------------------------------------------------------------------
def test_timeout_while_queued_preserves_fifo_for_survivors():
    """A waiter that times out mid-queue must drop out cleanly: the
    item that would have gone to it goes to the next waiter in FIFO
    order instead."""
    outcomes = {}
    with SimKernel() as kernel:
        box = Mailbox(kernel)

        def impatient(p):
            try:
                box.get(p, timeout=0.5)
                outcomes["impatient"] = "got"
            except SimTimeout:
                outcomes["impatient"] = "timeout"

        def patient(p):
            outcomes["patient"] = box.get(p)

        def producer(p):
            p.sleep(1.0)  # after the impatient waiter has expired
            box.put("late-item")

        kernel.spawn(impatient, name="impatient")
        kernel.spawn(patient, name="patient", delay=1e-9)
        kernel.spawn(producer, name="producer")
        kernel.run()

    assert outcomes["impatient"] == "timeout"
    assert outcomes["patient"] == "late-item"


def test_timed_out_waiter_is_removed_from_the_queue():
    with SimKernel() as kernel:
        box = Mailbox(kernel)

        def waiter(p):
            with pytest.raises(SimTimeout):
                box.get(p, timeout=0.1)

        kernel.spawn(waiter, name="w")
        kernel.run()
        assert len(box._getters) == 0


def test_timeout_measures_from_wait_entry():
    times = {}
    with SimKernel() as kernel:
        box = Mailbox(kernel)

        def waiter(p):
            p.sleep(2.0)
            try:
                box.get(p, timeout=0.25)
            except SimTimeout:
                times["expired_at"] = kernel.now

        kernel.spawn(waiter, name="w")
        kernel.run()
    assert times["expired_at"] == pytest.approx(2.25)


# ----------------------------------------------------------------------
# the lost-interrupt race (regression)
# ----------------------------------------------------------------------
def test_interrupt_beats_timeout_at_the_same_instant():
    """An interrupt armed before the timeout expiry fires — even at the
    very same virtual instant — must win.  The old implementation read
    the process's *current* wake token at expiry time, so the timeout
    matched the interrupt's token, delivered SimTimeout, and the
    interrupt was silently lost."""
    outcome = {}
    with SimKernel() as kernel:
        box = Mailbox(kernel)

        def victim(p):
            try:
                box.get(p, timeout=1.0)
                outcome["result"] = "got"
            except SimInterrupt:
                outcome["result"] = "interrupt"
            except SimTimeout:
                outcome["result"] = "timeout"

        proc = kernel.spawn(victim, name="victim")
        # fires at t=1.0 BEFORE the expiry timer (which is scheduled
        # later, from inside wait(), and so has a higher sequence
        # number at the same instant)
        kernel.schedule(1.0, proc.interrupt, "failure-injection")
        kernel.run()

    assert outcome["result"] == "interrupt"


def test_timeout_still_fires_when_nothing_intervenes():
    outcome = {}
    with SimKernel() as kernel:
        box = Mailbox(kernel)

        def victim(p):
            try:
                box.get(p, timeout=1.0)
            except SimTimeout:
                outcome["at"] = kernel.now

        kernel.spawn(victim, name="victim")
        kernel.run()
    assert outcome["at"] == pytest.approx(1.0)


def test_interrupted_waiter_leaves_the_queue_consistent():
    with SimKernel() as kernel:
        box = Mailbox(kernel)
        got = []

        def victim(p):
            with pytest.raises(SimInterrupt):
                box.get(p, timeout=5.0)

        def survivor(p):
            got.append(box.get(p))

        vic = kernel.spawn(victim, name="victim")
        kernel.spawn(survivor, name="survivor", delay=1e-9)
        kernel.schedule(0.5, vic.interrupt, "chaos")
        kernel.schedule(1.0, box.put, "item")
        kernel.run()
        assert got == ["item"]
        assert len(box._getters) == 0


# ----------------------------------------------------------------------
# selective receive: unmatched items at shutdown
# ----------------------------------------------------------------------
def test_matchqueue_unmatched_at_shutdown_cleans_waiters():
    """A consumer whose predicate never matches stays blocked when the
    heap drains; shutdown must terminate it AND leave the queue's
    waiter list empty (no ghost entries) with the unmatched items still
    queued and inspectable."""
    kernel = SimKernel()
    mq = Mailbox(kernel)

    def picky(p):
        mq.get(p, predicate=lambda item: item == "unicorn")

    def producer(p):
        for item in ("apple", "banana"):
            mq.put(item)
            p.yield_()

    picky_proc = kernel.spawn(picky, name="picky")
    kernel.spawn(producer, name="producer")
    with pytest.raises(SimDeadlockError):
        kernel.run()

    # blocked forever: predicate unmatched, items retained
    assert picky_proc.alive
    assert len(mq) == 2
    assert [proc for proc, _ in wait_edges(kernel)] == [picky_proc]

    kernel.shutdown()
    assert not picky_proc.alive
    assert len(mq._getters) == 0, "shutdown left a ghost waiter queued"
    # unmatched items survive intact, in order
    assert list(mq._items) == ["apple", "banana"]


def test_matchqueue_timeout_keeps_unmatched_items():
    with SimKernel() as kernel:
        mq = Mailbox(kernel)
        mq.put("other")

        def picky(p):
            with pytest.raises(SimTimeout):
                mq.get(p, predicate=lambda item: item == "wanted",
                       timeout=0.5)

        kernel.spawn(picky, name="picky")
        kernel.run()
        assert len(mq) == 1
        assert len(mq._getters) == 0


# ----------------------------------------------------------------------
# deadlock wait-for graph
# ----------------------------------------------------------------------
def test_deadlock_error_renders_the_wait_for_graph():
    kernel = SimKernel()
    lock_a = SimLock(kernel)
    lock_b = SimLock(kernel)

    def leg(p, first, second):
        first.acquire(p)
        p.sleep(0.1)
        second.acquire(p)  # classic AB/BA deadlock
        second.release(p)
        first.release(p)

    p1 = kernel.spawn(leg, lock_a, lock_b, name="ab")
    kernel.spawn(leg, lock_b, lock_a, name="ba")

    with pytest.raises(SimDeadlockError) as info:
        kernel.run_until_complete(p1)
    message = str(info.value)
    assert "wait-for graph:" in message
    assert "ab waits on" in message and "ba waits on" in message
    # each lock line names the process currently holding it
    assert "held by 'ba'" in message and "held by 'ab'" in message
    kernel.shutdown()




def test_wait_graph_reports_join_targets():
    kernel = SimKernel()
    mq = Mailbox(kernel)

    def stuck(p):
        mq.get(p)

    def joiner(p):
        p.join(stuck_proc)

    stuck_proc = kernel.spawn(stuck, name="stuck")
    kernel.spawn(joiner, name="joiner")
    with pytest.raises(SimDeadlockError):
        kernel.run()
    graph = format_wait_graph(kernel)
    assert "joiner waits on join on process 'stuck'" in graph
    assert "0 item(s) queued" in graph
    kernel.shutdown()
