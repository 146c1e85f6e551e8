"""The switch mechanism: how the run token moves between OS threads.

Every simulated process runs on an OS thread parked on a lock of its own
(``proc._go``); the caller of ``run()`` / ``shutdown()`` parks on one
more.  A parked thread waits to re-acquire a lock it holds, so handing
it the run token is one ``release()``: exactly one thread is ever
runnable, and a process may yield from any call frame, however deep in
the middleware.  There is no kernel thread: the thread that gives up
the token runs the event loop itself (``kernel._carry``) and passes the
token straight on (*baton passing*), or keeps it when the next wake-up
is its own.  Threads are *workers*: one whose process has ended parks on
an idle list and runs the next process spawned (starting a thread costs
more than a short-lived process does), and every idle worker is let go
when the token returns to the caller.

The kernel's determinism comes from its event loop, not from here: this
file never schedules, reorders or drops an event.  It lives apart from
``kernel.py`` so that the kernel stays free of real threading and the
single ``ker-thread`` lint allowance points at one small audited file.

``kernel.backend`` is the one :class:`ThreadBackend` of a kernel.  Every
yield — ``sleep``, ``suspend``, ``join`` and the :mod:`repro.sim.sync`
primitives — goes through ``kernel.backend.block(proc)``, looked up on
the instance at call time, so a profiler can wrap ``block`` after the
kernel is built (see docs/KERNEL.md, "Observation contract").
"""

from __future__ import annotations

import threading
from typing import Any

from repro.sim.kernel import SimProcess, SimShutdown


class ThreadBackend:
    """OS threads as coroutines: one raw lock per process, one for the
    caller of ``run()``.  No other locking exists because the run token
    serialises every access to kernel state."""

    def __init__(self) -> None:
        # threading.Lock is the bare C lock (_thread.allocate_lock)
        self._caller = threading.Lock()
        self._caller.acquire()
        #: True while process threads hold the token for a parked caller
        self._away = False
        #: times the run token moved between OS threads (a plain count:
        #: identical run after run, see docs/KERNEL.md)
        self.handoffs = 0
        #: OS threads started (same rule: a count, not a clock)
        self.threads_started = 0
        #: workers between processes: ``(lock, thread, job slot)``
        self._idle: list[tuple] = []

    def _give(self, proc: SimProcess | None) -> None:
        """Move the run token to ``proc``'s thread (None: the caller's)."""
        self.handoffs += 1
        if proc is None:
            self._away = False
            self._caller.release()
        else:
            proc._go.release()

    # -- caller side ---------------------------------------------------
    def create(self, proc: SimProcess) -> None:
        """Put a (parked) worker behind a freshly spawned process: an
        idle one, else a new thread.  No lock is touched for an idle
        worker: the first dispatch releases it, as for a new one."""
        if self._idle:
            go, thread, job = self._idle.pop()
            thread.name = f"sim:{proc.name}"
        else:
            go, job = threading.Lock(), []
            go.acquire()
            thread = threading.Thread(
                target=self._work, args=(go, job), name=f"sim:{proc.name}",
                daemon=True)
            self.threads_started += 1
            thread.start()
        job.append(proc)
        proc._go, proc._thread = go, thread

    def run_until_back(self, proc: SimProcess) -> None:
        """Hand the run token to ``proc`` and park the calling thread
        until the run is over (outside a run: until ``proc`` yields).
        If the wait itself is interrupted (``KeyboardInterrupt``), stop
        the loop and take the token back before unwinding: no second
        thread is left inside the kernel."""
        self._away = True
        self._give(proc)
        try:
            self._caller.acquire()
        except BaseException:
            proc.kernel._running = False  # carriers stop at the next event
            # wait only while the token is out; if it is back already,
            # just leave the lock held for the next park
            self._caller.acquire(self._away)
            raise
        finally:
            # the token is back: idle workers end here (released with
            # no job), so none outlives a run()/shutdown() call
            for go, _thread, _job in self._idle:
                go.release()
            self._idle.clear()

    # -- process side --------------------------------------------------
    def block(self, proc: SimProcess) -> Any:
        """Give up the run token from any call frame: carry the event
        loop until the token has a new holder, park unless that is
        ``proc`` itself; on resume return the wake value or raise the
        delivered exception."""
        proc._state = SimProcess._STATE_BLOCKED
        target = proc.kernel._carry()
        if target is not proc:
            self._give(target)
            proc._go.acquire()
        proc._waiting_on = None
        proc._state = SimProcess._STATE_RUNNING
        if proc._pending_exc is not None:
            exc = proc._pending_exc
            proc._pending_exc = None
            raise exc
        return proc._wake_value

    def _work(self, go: Any, job: list) -> None:
        """Worker loop: run one process after another until let go."""
        while True:
            go.acquire()  # parked until the first dispatch
            if not job:
                return
            self._run(job.pop(), job)

    def _run(self, proc: SimProcess, job: list) -> None:
        try:
            if proc._pending_exc is not None:  # shut down before first run
                exc = proc._pending_exc
                proc._pending_exc = None
                raise exc
            proc.result = _call_body(proc)
            proc._state = SimProcess._STATE_DONE
        except SimShutdown:
            proc._state = SimProcess._STATE_DONE
        except BaseException as exc:  # noqa: BLE001 - reported by _carry
            proc.exc = exc
            proc._state = SimProcess._STATE_FAILED
        finally:
            # this process's last act: carry the loop to the next holder;
            # go idle *before* giving the token away (after, nothing
            # shared may be touched)
            target = proc.kernel._carry(proc)
            self._idle.append((proc._go, proc._thread, job))
            self._give(target)


def _call_body(proc: SimProcess) -> Any:
    """Run ``proc``'s body, letting go of the body and its arguments
    first: the kernel keeps every process it ever spawned, and a
    finished one must not pin what it was given (a request body, a
    GridCCM piece)."""
    fn, args = proc._fn, proc._args
    proc._fn = proc._args = None
    return fn(proc, *args)
