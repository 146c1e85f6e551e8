"""sim-san tour: catch a data race with both access sites, fix it, and
turn a schedule-dependent result into a seed-stamped reproducer.

The cooperative kernel runs one process at a time, so unsynchronised
shared state *happens* to work under the canonical schedule — exactly
the bug class that bites first on a real grid.  sim-san makes it fail
here instead: the race detector flags the missing happens-before edge,
and seeded schedule exploration replays the divergent interleaving
bit-for-bit.  See docs/SANITIZER.md for the full guide.

Run:  PYTHONPATH=src python examples/sanitizer_demo.py
"""

from repro.sanitizer import Sanitizer, explore_schedules
from repro.sim.kernel import SimKernel
from repro.sim.sync import Mailbox, SimLock


# ----------------------------------------------------------------------
# 1. a data race, reported with BOTH access sites
# ----------------------------------------------------------------------
def racy_counter():
    """Two workers wake at the same instant and read-modify-write a
    shared dict with no lock: a textbook lost update."""
    with SimKernel() as kernel:
        san = Sanitizer(kernel)
        stats = san.tracked({"hits": 0}, label="stats")

        def worker(p, ident):
            p.sleep(0.5)  # both wake at t=0.5 — no ordering between them
            tmp = stats["hits"]       # read
            p.yield_()                # the other worker runs here
            stats["hits"] = tmp + 1   # write based on a stale read

        for ident in range(2):
            kernel.spawn(worker, ident, name=f"worker-{ident}")
        kernel.run()
        san.uninstall()
        return san


def locked_counter():
    """The same workload with a SimLock: acquire/release builds the
    happens-before edge and the report comes back clean."""
    with SimKernel() as kernel:
        san = Sanitizer(kernel)
        lock = SimLock(kernel)
        stats = san.tracked({"hits": 0}, label="stats")

        def worker(p, ident):
            p.sleep(0.5)
            lock.acquire(p)
            tmp = stats["hits"]
            p.yield_()
            stats["hits"] = tmp + 1
            lock.release(p)

        for ident in range(2):
            kernel.spawn(worker, ident, name=f"worker-{ident}")
        kernel.run()
        san.uninstall()
        return san


# ----------------------------------------------------------------------
# 2. schedule exploration: divergence is a seed-stamped reproducer
# ----------------------------------------------------------------------
def order_sensitive_scenario(kernel):
    """Three workers wake at the same instant and append to a list: the
    result IS the wake order, so it diverges across seeds."""
    order = []

    def worker(p, ident):
        p.sleep(1.0)
        order.append(ident)

    for ident in range(3):
        kernel.spawn(worker, ident, name=f"w{ident}")
    kernel.run()
    return tuple(order)


def pipelined_scenario(kernel):
    """The synchronised version: items flow through a Mailbox and the
    consumer sorts — schedule-invariant under every seed."""
    box = Mailbox(kernel)
    collected = []

    def producer(p, ident):
        p.sleep(1.0)
        box.put(ident)

    def consumer(p):
        for _ in range(3):
            collected.append(box.get(p))

    for ident in range(3):
        kernel.spawn(producer, ident, name=f"p{ident}")
    kernel.spawn(consumer, name="consumer")
    kernel.run()
    return tuple(sorted(collected))


def main():
    print("=" * 68)
    print("1. happens-before race detection")
    print("=" * 68)
    san = racy_counter()
    print(f"races found: {len(san.races)}  (both access sites below)\n")
    print(san.report())

    print()
    print("same workload under a SimLock:")
    san = locked_counter()
    print(f"  races found: {len(san.races)}  — the lock edge orders the "
          f"accesses")

    print()
    print("=" * 68)
    print("2. seeded schedule exploration")
    print("=" * 68)
    report = explore_schedules(order_sensitive_scenario, seeds=5)
    print("order-sensitive scenario:")
    print(report.render())
    if not report.deterministic:
        seed = report.divergent[0].seed
        print(f"-> diverges; replay exactly with SimKernel(seed={seed})")

    print()
    print("mailbox-pipelined scenario:")
    report = explore_schedules(pipelined_scenario, seeds=5)
    print(report.render())
    print(f"-> {len(report.runs)} seeds bit-identical: "
          f"{report.deterministic}")


if __name__ == "__main__":
    main()
