"""Synchronisation primitives for simulated processes.

All primitives follow the broadcast-and-recheck discipline where it
matters for robustness under failure injection: a woken process
re-checks the guarded condition and goes back to sleep if another
process won the race (or if it was itself interrupted, the primitive's
state stays consistent).

Because the kernel serialises execution, none of these classes needs
real locking; a "critical section" is simply any stretch of code with no
blocking primitive inside.

Sanitizer integration (all free when disabled): every primitive reports
release-style operations (``put``/``release``/``set``/``notify``) and
acquire-style operations (``get``/``acquire``/``wait`` return) to
``kernel.tracer`` when one is installed, which lets the happens-before
race detector thread vector clocks through the data paths that do *not*
go through a kernel wake-up (e.g. a mailbox ``get`` that finds an item
already queued).  Each blocked process also records *what* it is blocked
on (``proc._waiting_on``), which the kernel renders into a wait-for
graph on deadlock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque

from repro.sim.kernel import SimKernel, SimProcess
from repro.sim.primitives import trace_acquire, trace_release


class SimTimeout(Exception):
    """A timed wait expired before the condition was met."""


class WaitQueue:
    """FIFO queue of blocked processes; the low-level building block.

    ``owner`` names the primitive this queue belongs to (for deadlock
    reports); ``role`` distinguishes multiple queues of one primitive
    (a bounded mailbox has a getter queue and a putter queue).
    """

    def __init__(self, kernel: SimKernel, owner: Any = None,
                 role: str | None = None):
        self.kernel = kernel
        self.owner = owner
        self.role = role
        # entries: [proc, woken_flag]; a deque so FIFO wake_one is O(1)
        # (every mailbox get/put and lock release pops the head)
        self._waiters: Deque[list] = deque()

    def __len__(self) -> int:
        return len(self._waiters)

    def wait(self, proc: SimProcess, timeout: float | None = None) -> Any:
        """Block ``proc`` until woken; raises :class:`SimTimeout` if
        ``timeout`` seconds elapse first.

        The expiry wake-up is bound to the wake token armed *here*, so a
        timeout that fires after the process was interrupted (or woken
        by any other means) is stale and cannot overwrite the pending
        wake-up — a lost-interrupt race the previous implementation had.
        """
        self.kernel._check_current(proc)
        entry = [proc, False]
        self._waiters.append(entry)
        token = proc._arm()
        timer = None
        if timeout is not None:
            timer = self.kernel._schedule(
                timeout, self._expire, entry, token, timeout)
        proc._waiting_on = self
        try:
            return proc._yield()
        except BaseException:
            if not entry[1] and entry in self._waiters:
                self._waiters.remove(entry)
            raise
        finally:
            proc._waiting_on = None
            if timer is not None:
                timer.cancel()

    def _expire(self, entry: list, token: int, timeout: float) -> None:
        """Kernel callback: deliver :class:`SimTimeout` if still queued."""
        proc = entry[0]
        if entry[1] or entry not in self._waiters:
            return  # already woken (the timer lost the race)
        self._waiters.remove(entry)
        # tail call: the loop resumes ``proc`` as part of this event, and
        # drops the exception if ``token`` is stale, so an interrupt
        # armed after us always wins over the timeout
        self.kernel._wake(proc, token, None,
                          SimTimeout(f"timed out after {timeout} s"))

    def wake_one(self, value: Any = None) -> bool:
        """Wake the longest-waiting process.  Returns False if empty."""
        if not self._waiters:
            return False
        entry = self._waiters.popleft()
        entry[1] = True
        self.kernel.wake(entry[0], value)
        return True

    def wake_all(self, value: Any = None) -> int:
        """Wake every waiting process; returns how many were woken."""
        count = 0
        while self.wake_one(value):
            count += 1
        return count


class SimEvent:
    """One-shot (or resettable) flag; waiters block until it is set."""

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._flag = False
        self._value: Any = None
        self._queue = WaitQueue(kernel, owner=self)

    @property
    def is_set(self) -> bool:
        return self._flag

    def set(self, value: Any = None) -> None:
        """Set the flag and release every waiter."""
        trace_release(self.kernel, self)
        self._flag = True
        self._value = value
        self._queue.wake_all()

    def clear(self) -> None:
        self._flag = False
        self._value = None

    def wait(self, proc: SimProcess, timeout: float | None = None) -> Any:
        """Return immediately if set, else block until :meth:`set`.

        With ``timeout``, raises :class:`SimTimeout` on expiry."""
        deadline = None if timeout is None else self.kernel.now + timeout
        while not self._flag:
            remaining = None if deadline is None else \
                max(deadline - self.kernel.now, 0.0)
            self._queue.wait(proc, timeout=remaining)
        trace_acquire(self.kernel, self)
        return self._value


class SimSemaphore:
    """Counting semaphore with FIFO wake order.

    ``owner`` redirects deadlock reports to an enclosing primitive
    (:class:`SimLock` builds on a semaphore but waiters conceptually
    block on the lock).
    """

    def __init__(self, kernel: SimKernel, value: int = 1,
                 owner: Any = None):
        if value < 0:
            raise ValueError("initial semaphore value must be >= 0")
        self.kernel = kernel
        self._value = value
        self._queue = WaitQueue(kernel, owner=owner or self)

    @property
    def value(self) -> int:
        return self._value

    def acquire(self, proc: SimProcess) -> None:
        while self._value == 0:
            self._queue.wait(proc)
        self._value -= 1
        trace_acquire(self.kernel, self)

    def release(self) -> None:
        trace_release(self.kernel, self)
        self._value += 1
        self._queue.wake_one()


class SimLock:
    """Mutual exclusion for simulated processes (non-reentrant)."""

    def __init__(self, kernel: SimKernel):
        self._sem = SimSemaphore(kernel, 1, owner=self)
        self._owner: SimProcess | None = None

    @property
    def locked(self) -> bool:
        return self._owner is not None

    @property
    def owner(self) -> SimProcess | None:
        return self._owner

    def acquire(self, proc: SimProcess) -> None:
        if self._owner is proc:
            raise RuntimeError(f"{proc.name!r} re-acquired a non-reentrant lock")
        self._sem.acquire(proc)
        self._owner = proc

    def release(self, proc: SimProcess) -> None:
        if self._owner is not proc:
            raise RuntimeError(
                f"{proc.name!r} released a lock owned by "
                f"{getattr(self._owner, 'name', None)!r}")
        self._owner = None
        self._sem.release()


class SimCondition:
    """Condition variable bound to a :class:`SimLock`."""

    def __init__(self, kernel: SimKernel, lock: SimLock | None = None):
        self.kernel = kernel
        self.lock = lock or SimLock(kernel)
        self._queue = WaitQueue(kernel, owner=self)

    def wait(self, proc: SimProcess) -> None:
        """Atomically release the lock, block, re-acquire on wake."""
        self.lock.release(proc)
        try:
            self._queue.wait(proc)
        finally:
            self.lock.acquire(proc)

    def notify(self, n: int = 1) -> None:
        trace_release(self.kernel, self)
        for _ in range(n):
            if not self._queue.wake_one():
                break

    def notify_all(self) -> None:
        trace_release(self.kernel, self)
        self._queue.wake_all()


class SimBarrier:
    """Reusable barrier for a fixed number of parties."""

    def __init__(self, kernel: SimKernel, parties: int):
        if parties < 1:
            raise ValueError("barrier needs at least one party")
        self.kernel = kernel
        self.parties = parties
        self._count = 0
        self._generation = 0
        self._queue = WaitQueue(kernel, owner=self)

    def wait(self, proc: SimProcess) -> int:
        """Block until ``parties`` processes arrive; returns arrival index."""
        trace_release(self.kernel, self)
        gen = self._generation
        index = self._count
        self._count += 1
        if self._count == self.parties:
            self._count = 0
            self._generation += 1
            self._queue.wake_all()
        else:
            while gen == self._generation:
                self._queue.wait(proc)
        trace_acquire(self.kernel, self)
        return index


class MatchQueue:
    """Queue supporting selective receive (``get`` with a predicate).

    This is the matching structure under MPI tag/source matching and
    Circuit selective receives: producers :meth:`put` items, consumers
    take the *oldest item satisfying their predicate*, blocking until
    one appears.  All waiting consumers are woken on every put and
    re-scan (broadcast-and-recheck), which keeps the structure correct
    when consumers are interrupted mid-wait.
    """

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._items: list[Any] = []
        self._waiters = WaitQueue(kernel, owner=self)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        trace_release(self.kernel, self)
        self._items.append(item)
        self._waiters.wake_all()

    def get(self, proc: SimProcess, predicate=None,
            timeout: float | None = None) -> Any:
        """Pop the oldest item matching ``predicate`` (default: any).

        With ``timeout``, raises :class:`SimTimeout` when no matching
        item arrives in time (measured from each retry — callers wanting
        a strict deadline should pass the remaining budget)."""
        deadline = None if timeout is None else \
            self.kernel.now + timeout
        while True:
            for i, item in enumerate(self._items):
                if predicate is None or predicate(item):
                    trace_acquire(self.kernel, self)
                    return self._items.pop(i)
            remaining = None if deadline is None else \
                max(deadline - self.kernel.now, 0.0)
            self._waiters.wait(proc, timeout=remaining)

    def get_nowait(self, predicate=None) -> Any:
        for i, item in enumerate(self._items):
            if predicate is None or predicate(item):
                trace_acquire(self.kernel, self)
                return self._items.pop(i)
        raise LookupError("no matching item")

    def wait_match(self, proc: SimProcess, predicate=None,
                   timeout: float | None = None) -> Any:
        """Block until a matching item is queued; returns it WITHOUT
        removing it (MPI_Probe semantics)."""
        deadline = None if timeout is None else self.kernel.now + timeout
        while True:
            for item in self._items:
                if predicate is None or predicate(item):
                    trace_acquire(self.kernel, self)
                    return item
            remaining = None if deadline is None else \
                max(deadline - self.kernel.now, 0.0)
            self._waiters.wait(proc, timeout=remaining)

    def poll(self, predicate=None) -> bool:
        """Non-destructive probe: is a matching item queued?"""
        return any(predicate is None or predicate(item)
                   for item in self._items)


class Mailbox:
    """FIFO message channel between simulated processes.

    ``capacity=None`` means unbounded (``put`` never blocks); a finite
    capacity makes ``put`` block until space frees up — useful to model
    flow-controlled transports.
    """

    def __init__(self, kernel: SimKernel, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be None or >= 1")
        self.kernel = kernel
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters = WaitQueue(kernel, owner=self, role="get")
        self._putters = WaitQueue(kernel, owner=self, role="put")

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def waiting(self) -> int:
        """Processes blocked in :meth:`get`."""
        return len(self._getters)

    def put(self, proc: SimProcess, item: Any) -> None:
        """Append ``item``; blocks while the mailbox is full."""
        while self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.wait(proc)
        trace_release(self.kernel, self)
        self._items.append(item)
        self._getters.wake_all()

    def put_nowait(self, item: Any) -> None:
        """Append without blocking (kernel callbacks use this); raises if full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            raise OverflowError("mailbox full")
        trace_release(self.kernel, self)
        self._items.append(item)
        self._getters.wake_all()

    def get(self, proc: SimProcess, timeout: float | None = None) -> Any:
        """Pop the oldest item; blocks while the mailbox is empty.

        With ``timeout``, raises :class:`SimTimeout` on expiry."""
        deadline = None if timeout is None else self.kernel.now + timeout
        while not self._items:
            remaining = None if deadline is None else \
                max(deadline - self.kernel.now, 0.0)
            self._getters.wait(proc, timeout=remaining)
        trace_acquire(self.kernel, self)
        item = self._items.popleft()
        self._putters.wake_all()
        return item

    def get_nowait(self) -> Any:
        if not self._items:
            raise LookupError("mailbox empty")
        trace_acquire(self.kernel, self)
        item = self._items.popleft()
        self._putters.wake_all()
        return item

    def peek(self) -> Any:
        if not self._items:
            raise LookupError("mailbox empty")
        return self._items[0]
