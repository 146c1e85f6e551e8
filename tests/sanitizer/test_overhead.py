"""Zero-perturbation guarantees: the sanitizer must not change what the
simulation *does* — only observe it — and must be entirely absent by
default."""

from repro.sanitizer import Sanitizer
from repro.sim.kernel import SimKernel
from repro.sim.sync import Mailbox, SimLock


def _workload(kernel, san=None):
    """A representative mixed workload: locks, mailbox, joins, sleeps."""
    lock = SimLock(kernel)
    box = Mailbox(kernel)
    state = {"counter": 0, "log": []}
    shared = san.tracked(state, label="bench") if san else state

    def worker(p, ident):
        for i in range(4):
            p.sleep(0.001 * (ident + 1))
            lock.acquire(p)
            shared["counter"] = shared["counter"] + 1
            lock.release(p)
            box.put((ident, i))

    def drain(p, workers):
        for _ in range(8):
            box.get(p)
        for w in workers:
            p.join(w)

    workers = [kernel.spawn(worker, ident, name=f"w{ident}")
               for ident in range(2)]
    kernel.spawn(drain, workers, name="drain")
    kernel.run()
    return state["counter"], kernel.now, kernel.events_processed


def test_instrumented_run_matches_plain_run_exactly():
    plain_kernel = SimKernel()
    with plain_kernel:
        plain = _workload(plain_kernel)

    sane_kernel = SimKernel()
    with sane_kernel:
        san = Sanitizer(sane_kernel)
        instrumented = _workload(sane_kernel, san)

    # same result, same simulated time, same event count, bit for bit:
    # observation must never perturb the schedule
    assert instrumented == plain
    assert san.races == []


def test_sanitizer_hooks_are_absent_by_default():
    kernel = SimKernel()
    assert kernel.tracer is None
    assert kernel.seed is None
    timer = kernel.schedule(1.0, lambda: None)
    # no seed -> canonical (time, seq) order: shuffle key stays zero
    assert timer.shuffle == 0
    assert timer.trace_clock is None


def test_uninstalled_sanitizer_leaves_no_residue():
    kernel = SimKernel()
    san = Sanitizer(kernel)
    san.uninstall()
    with kernel:
        result = _workload(kernel)
    assert result[0] == 8  # 2 workers x 4 increments
    assert kernel.tracer is None
