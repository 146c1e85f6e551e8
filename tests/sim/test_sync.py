"""Unit tests for simulation synchronisation primitives."""

import pytest

from repro.sim import (
    Mailbox,
    SimEvent,
    SimInterrupt,
    SimKernel,
    SimLock,
)


def test_mailbox_fifo_order():
    with SimKernel() as k:
        box = Mailbox(k)
        got = []

        def producer(p):
            for i in range(5):
                box.put(i)
                p.sleep(0.1)

        def consumer(p):
            for _ in range(5):
                got.append(box.get(p))

        k.spawn(producer)
        k.spawn(consumer)
        k.run()
        assert got == [0, 1, 2, 3, 4]


def test_mailbox_get_blocks_until_put():
    with SimKernel() as k:
        box = Mailbox(k)
        when = []

        def consumer(p):
            box.get(p)
            when.append(k.now)

        def producer(p):
            p.sleep(3.0)
            box.put("msg")

        k.spawn(consumer)
        k.spawn(producer)
        k.run()
        assert when == [3.0]




def test_mailbox_two_consumers_each_get_one():
    with SimKernel() as k:
        box = Mailbox(k)
        got = []

        def consumer(p, name):
            got.append((name, box.get(p)))

        def producer(p):
            p.sleep(1.0)
            box.put("x")
            box.put("y")

        k.spawn(consumer, "c1")
        k.spawn(consumer, "c2")
        k.spawn(producer)
        k.run()
        assert sorted(got) == [("c1", "x"), ("c2", "y")]




def test_interrupted_consumer_does_not_lose_message():
    """Failure injection: a consumer killed while blocked must not eat
    a message destined for the surviving consumer."""
    with SimKernel() as k:
        box = Mailbox(k)
        got = []

        def victim(p):
            try:
                box.get(p)
            except SimInterrupt:
                pass
            p.suspend()  # stay out of the way

        def survivor(p):
            p.sleep(0.5)
            got.append(box.get(p))

        v = k.spawn(victim, daemon=True)

        def killer(p):
            p.sleep(0.2)
            v.interrupt()
            p.sleep(0.6)
            box.put("payload")

        k.spawn(survivor)
        k.spawn(killer)
        k.run()
        assert got == ["payload"]


def test_event_set_releases_all_waiters():
    with SimKernel() as k:
        ev = SimEvent(k)
        woken = []

        def waiter(p, name):
            val = ev.wait(p)
            woken.append((name, val, k.now))

        def setter(p):
            p.sleep(2.0)
            ev.set("go")

        k.spawn(waiter, "w1")
        k.spawn(waiter, "w2")
        k.spawn(setter)
        k.run()
        assert woken == [("w1", "go", 2.0), ("w2", "go", 2.0)]


def test_event_wait_after_set_returns_immediately():
    with SimKernel() as k:
        ev = SimEvent(k)
        ev.set(123)

        def waiter(p):
            return ev.wait(p)

        pr = k.spawn(waiter)
        k.run()
        assert pr.result == 123
        assert k.now == 0.0




def test_lock_mutual_exclusion_and_errors():
    with SimKernel() as k:
        lock = SimLock(k)
        order = []

        def worker(p, name):
            lock.acquire(p)
            order.append((name, "in", k.now))
            p.sleep(1.0)
            order.append((name, "out", k.now))
            lock.release(p)

        k.spawn(worker, "a")
        k.spawn(worker, "b")
        k.run()
        assert order == [("a", "in", 0.0), ("a", "out", 1.0),
                         ("b", "in", 1.0), ("b", "out", 2.0)]

        def bad_release(p):
            with pytest.raises(RuntimeError):
                lock.release(p)

        k2 = SimKernel()
        with k2:
            lock2 = SimLock(k2)
            k2.run_until_complete(k2.spawn(
                lambda p: (lock2.acquire(p),
                           pytest.raises(RuntimeError, lock2.acquire, p),
                           lock2.release(p))))


def test_lock_waiter_interrupted_after_handoff_passes_the_lock_on():
    """H releases at t=1 and the release wakes A; before A runs, I
    interrupts it.  A leaves ``acquire`` with SimInterrupt, and the
    wake-up it can no longer use must go to B, still queued behind it —
    not strand B on a free lock."""
    with SimKernel() as k:
        lock = SimLock(k)
        log = []

        def holder(p):
            lock.acquire(p)
            p.sleep(1.0)
            lock.release(p)

        def waiter(p, name):
            try:
                lock.acquire(p)
            except SimInterrupt:
                log.append((name, "interrupted", k.now))
                return
            log.append((name, "in", k.now))
            lock.release(p)

        def interrupter(p):
            p.sleep(1.0)  # same instant as H's release, just after it
            a.interrupt()

        k.spawn(holder, name="H")
        a = k.spawn(waiter, "A", name="A")
        k.spawn(waiter, "B", name="B")
        k.spawn(interrupter, name="I")
        k.run()
        assert log == [("A", "interrupted", 1.0), ("B", "in", 1.0)]
        assert not lock.locked
