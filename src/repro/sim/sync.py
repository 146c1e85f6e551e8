"""Synchronisation primitives for simulated processes.

Three primitives cover the stack, all built on one :class:`WaitQueue`:
:class:`SimEvent` (a flag: ORB replies, MPI requests, asynchronous
I/O), :class:`SimLock` (mutual exclusion: the ORB's connection and send
locks, a component's executor) and :class:`Mailbox` (the one message
queue: VLink streams and backlogs, and Circuit's selective receives).

A woken process re-checks the guarded condition and goes back to sleep
if another process won the race (broadcast-and-recheck), so a primitive
stays consistent when a waiter is interrupted or times out.

Because the kernel serialises execution, none of these classes needs
real locking; a "critical section" is simply any stretch of code with no
blocking primitive inside.

Sanitizer integration (free when disabled): every primitive reports
release-style operations (``put``/``release``/``set``) and acquire-style
operations (``get``/``acquire``/``wait`` return) to ``kernel.tracer``
when one is installed, which lets the happens-before race detector
thread vector clocks through the data paths that do *not* go through a
kernel wake-up (e.g. a mailbox ``get`` that finds an item already
queued).  Each blocked process also records *what* it is blocked on
(``proc._waiting_on``), which the kernel renders into a wait-for graph
on deadlock.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque

from repro.sim.kernel import SimKernel, SimProcess


class SimTimeout(Exception):
    """A timed wait expired before the condition was met."""


def _hb_release(kernel: SimKernel, primitive: Any) -> None:
    """Report a release-style operation on ``primitive`` to the kernel's
    tracer, if one is installed."""
    tracer = kernel._tracer
    if tracer is not None:
        tracer.hb_release(primitive)


def _hb_acquire(kernel: SimKernel, primitive: Any) -> None:
    """Report an acquire-style operation on ``primitive`` to the kernel's
    tracer, if one is installed."""
    tracer = kernel._tracer
    if tracer is not None:
        tracer.hb_acquire(primitive)


class WaitQueue:
    """FIFO queue of blocked processes; the low-level building block.

    ``owner`` names the primitive this queue belongs to (for deadlock
    reports).
    """

    def __init__(self, kernel: SimKernel, owner: Any = None):
        self.kernel = kernel
        self.owner = owner
        # entries: [proc, woken_flag]; a deque so FIFO wake_one is O(1)
        # (every mailbox put and lock release pops the head)
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
        self.kernel._wake(proc, token,
                          SimTimeout(f"timed out after {timeout} s"))

    def wake_one(self) -> bool:
        """Wake the longest-waiting process.  Returns False if empty."""
        if not self._waiters:
            return False
        entry = self._waiters.popleft()
        entry[1] = True
        self.kernel.wake(entry[0])
        return True

    def wake_all(self) -> int:
        """Wake every waiting process; returns how many were woken."""
        count = 0
        while self.wake_one():
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
        _hb_release(self.kernel, self)
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
        _hb_acquire(self.kernel, self)
        return self._value


class SimLock:
    """Mutual exclusion for simulated processes (non-reentrant).

    A release wakes the longest waiter but does not hand it the lock:
    whoever runs first takes it (barging), and a woken waiter that finds
    it taken queues again at the back.
    """

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._owner: SimProcess | None = None
        self._queue = WaitQueue(kernel, owner=self)

    @property
    def locked(self) -> bool:
        return self._owner is not None

    @property
    def owner(self) -> SimProcess | None:
        return self._owner

    def acquire(self, proc: SimProcess) -> None:
        if self._owner is proc:
            raise RuntimeError(f"{proc.name!r} re-acquired a non-reentrant lock")
        while self._owner is not None:
            try:
                self._queue.wait(proc)
            except BaseException:
                # a waiter interrupted after a release woke it must not
                # take that wake-up with it: pass it on while the lock
                # is free (at worst a spare wake, never a lost one)
                if self._owner is None:
                    self._queue.wake_one()
                raise
        self._owner = proc
        _hb_acquire(self.kernel, self)

    def release(self, proc: SimProcess) -> None:
        if self._owner is not proc:
            raise RuntimeError(
                f"{proc.name!r} released a lock owned by "
                f"{getattr(self._owner, 'name', None)!r}")
        self._owner = None
        _hb_release(self.kernel, self)
        self._queue.wake_one()


class Mailbox:
    """The message queue between simulated processes, with selective
    receive.

    Producers :meth:`put` without ever blocking (kernel callbacks too);
    a consumer takes the *oldest item satisfying its predicate* — any
    item by default, an O(1) FIFO take — blocking until one appears.
    Every put wakes all waiting consumers and each re-scans
    (broadcast-and-recheck), which keeps the queue correct when
    consumers are interrupted mid-wait.  VLink streams are plain FIFOs;
    Circuit's source/tag matching (under MPI) passes a predicate.
    """

    def __init__(self, kernel: SimKernel):
        self.kernel = kernel
        self._items: Deque[Any] = deque()
        self._getters = WaitQueue(kernel, owner=self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def waiting(self) -> int:
        """Processes blocked in :meth:`get` or :meth:`wait_match`."""
        return len(self._getters)

    def put(self, item: Any) -> None:
        """Append ``item`` and wake every waiting consumer."""
        _hb_release(self.kernel, self)
        self._items.append(item)
        self._getters.wake_all()

    def _index(self, predicate: Callable[[Any], bool] | None) -> int:
        """Position of the oldest item matching ``predicate``, or -1."""
        if predicate is None:
            return 0 if self._items else -1
        for i, item in enumerate(self._items):
            if predicate(item):
                return i
        return -1

    def _await(self, proc: SimProcess, predicate, timeout: float | None,
               take: bool) -> Any:
        deadline = None if timeout is None else self.kernel.now + timeout
        while True:
            i = self._index(predicate)
            if i >= 0:
                _hb_acquire(self.kernel, self)
                item = self._items[i]
                if take:
                    del self._items[i]
                return item
            remaining = None if deadline is None else \
                max(deadline - self.kernel.now, 0.0)
            self._getters.wait(proc, timeout=remaining)

    def get(self, proc: SimProcess, predicate=None,
            timeout: float | None = None) -> Any:
        """Pop the oldest item matching ``predicate`` (default: any),
        blocking until one is queued.

        With ``timeout``, raises :class:`SimTimeout` when no matching
        item arrives within ``timeout`` seconds of the call: each re-wait
        gets only the budget that is left."""
        return self._await(proc, predicate, timeout, take=True)

    def wait_match(self, proc: SimProcess, predicate=None) -> Any:
        """Block until a matching item is queued; returns it WITHOUT
        removing it (MPI_Probe semantics)."""
        return self._await(proc, predicate, None, take=False)

    def poll(self, predicate=None) -> bool:
        """Non-destructive probe: is a matching item queued?"""
        return self._index(predicate) >= 0
