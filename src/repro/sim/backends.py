"""The switch mechanism: how a SimProcess yields and resumes.

Every simulated process is an OS thread parked on its own semaphore;
the kernel side waits on one control semaphore.  A switch is a
release/acquire pair on each side, so exactly one thread — the kernel's
or one process's — is ever runnable (the *run token*), and a process
may yield from any call frame, however deep inside the middleware.

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
    """OS threads as coroutines: one semaphore per process, one for the
    kernel.  No other locking exists because the run token serialises
    every access to kernel state."""

    def __init__(self) -> None:
        self._control = threading.Semaphore(0)

    # -- kernel side ---------------------------------------------------
    def create(self, proc: SimProcess) -> None:
        """Start the (parked) thread behind a freshly spawned process."""
        proc._go = threading.Semaphore(0)
        proc._thread = threading.Thread(
            target=self._run, args=(proc,), name=f"sim:{proc.name}",
            daemon=True)
        proc._thread.start()

    def run_until_yield(self, proc: SimProcess) -> None:
        """Hand the run token to ``proc`` until it blocks or exits."""
        proc._go.release()
        self._control.acquire()

    # -- process side --------------------------------------------------
    def block(self, proc: SimProcess) -> Any:
        """Give the run token back from any call frame; on resume return
        the wake value or raise the delivered exception."""
        proc._state = SimProcess._STATE_BLOCKED
        self._control.release()
        proc._go.acquire()
        proc._waiting_on = None
        proc._state = SimProcess._STATE_RUNNING
        if proc._pending_exc is not None:
            exc = proc._pending_exc
            proc._pending_exc = None
            raise exc
        return proc._wake_value

    def _run(self, proc: SimProcess) -> None:
        proc._go.acquire()  # wait for first dispatch from the kernel
        try:
            if proc._pending_exc is not None:  # shut down before first run
                exc = proc._pending_exc
                proc._pending_exc = None
                raise exc
            proc.result = proc._fn(proc, *proc._args)
            proc._state = SimProcess._STATE_DONE
        except SimShutdown:
            proc._state = SimProcess._STATE_DONE
        except BaseException as exc:  # noqa: BLE001 - report to kernel
            proc.exc = exc
            proc._state = SimProcess._STATE_FAILED
        finally:
            try:
                proc.kernel._on_process_exit(proc)
            finally:
                self._control.release()
