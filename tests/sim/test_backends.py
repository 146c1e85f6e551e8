"""The hand-off and what rides directly on it: the observation contract
of ``kernel.backend.block``, the hand-off count and the tracer hook
order, and thread recycling.
"""

import sys
import threading
import weakref

import pytest

from repro.sim import (
    Mailbox,
    SimEvent,
    SimInterrupt,
    SimKernel,
    SimProcessError,
    SimTimeout,
)
from tests.sim.conftest import CountingTracer, no_thread_left


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
        box.put("item")
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
    switches = CountingTracer()
    with SimKernel(seed=seed) as k:
        k.attach_tracer(switches)
        there, back = Mailbox(k), Mailbox(k)

        def ping(p):
            for i in range(rounds):
                there.put(i)
                back.get(p)

        def pong(p):
            for _ in range(rounds):
                back.put(there.get(p))

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
            box.put("ball")
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
        k.schedule(0.12, box.put, "late")
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
