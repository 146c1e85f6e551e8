"""Suite-wide guard: no real blocking call under a kernel's run token.

The cooperative kernel runs one simulated process at a time, each on a
``sim:<name>`` worker thread of :class:`repro.sim.backends.ThreadBackend`,
and kernel callbacks run on whichever of those threads carries the
event loop: a running ``sim:*`` thread holds the run token.  A real
``time.sleep``, lock, thread, socket or subprocess there parks or forks
the only runnable thread while the kernel believes the process still
runs, which hangs or desynchronises the simulation.

For the whole session this guard makes each of those raise
:class:`RealBlockingError` on a ``sim:*`` thread, whatever chain of
helpers led there, so every path the suite executes is checked — the
run-time twin of repro-lint's per-file ``ker-*`` rules.  The decision
rests on the nearest caller outside the installed Python (standard
library and site-packages), i.e. the project code that asked for it:

* ``repro/sim/backends.py`` is exempt, as in repro-lint's
  ``DEFAULT_FILE_ALLOW``: its lock hand-off *is* the switch mechanism;
* module initialisation is exempt (a module body, or the import
  machinery for an extension module): a lazy import runs it once,
  outside the simulation's order of events;
* NumPy is imported before the guard goes in: its extension modules
  bind ``threading.RLock`` at import and give every random generator
  a lock of its own, which no simulated code can contend.

A daemon process that catches the error, or dies of it quietly, does
not hide it: every violation is also recorded and fails the test that
made it.  A test that blocks under the token on purpose requests the
``real_blocking_allowed`` fixture and says why in a comment.
"""

from __future__ import annotations

import functools
import os
import select
import socket
import subprocess
import sys
import sysconfig
import threading
import time

import numpy.random  # noqa: F401 - binds the real RLock (see above)
import pytest


class RealBlockingError(RuntimeError):
    """A real blocking primitive was called on a thread that holds a
    simulation kernel's run token."""


_INSTALLED = tuple({os.path.realpath(sysconfig.get_paths()[key]) + os.sep
                    for key in ("stdlib", "platstdlib", "purelib",
                                "platlib")})
_EXEMPT = os.sep + os.path.join("repro", "sim", "backends.py")

#: violations since the last test started, as messages
_violations: list[str] = []
#: non-empty while a test has lifted the guard
_allowances: list[str] = []
#: idents of threads inside :func:`_on_sim_thread` (``current_thread``
#: of a foreign thread builds a ``Thread``, which would re-enter it)
_busy: set[int] = set()


def _on_sim_thread() -> bool:
    ident = threading.get_ident()
    if ident in _busy:
        return False
    _busy.add(ident)
    try:
        return threading.current_thread().name.startswith("sim:")
    finally:
        _busy.discard(ident)


def _caller():
    """The nearest frame outside the installed Python and this file, or
    None while a module is being imported."""
    frame = sys._getframe(2)
    while frame is not None:
        path = frame.f_code.co_filename
        if path.startswith("<frozen importlib"):
            return None     # an extension module's initialisation
        if path == __file__ or os.path.realpath(path).startswith(_INSTALLED):
            frame = frame.f_back
            continue
        return frame
    return None


def _check(what: str) -> None:
    if _allowances or not _on_sim_thread():
        return
    frame = _caller()
    if frame is None or frame.f_code.co_name == "<module>" \
            or frame.f_code.co_filename.endswith(_EXEMPT):
        return
    message = (f"{what} on {threading.current_thread().name!r}, which "
               f"holds the run token (called from "
               f"{frame.f_code.co_filename}:{frame.f_lineno} in "
               f"{frame.f_code.co_name}); use the simulated equivalent")
    _violations.append(message)
    raise RealBlockingError(message)


def _guarded(what: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        _check(what)
        return func(*args, **kwargs)
    return wrapper


#: (owner, attribute, what the message calls it); a class's ``__init__``
#: covers its subclasses (``Timer``, ``BoundedSemaphore``) too
_TARGETS = (
    (time, "sleep", "time.sleep"),
    (threading, "Lock", "threading.Lock()"),
    (threading, "RLock", "threading.RLock()"),
    (threading.Thread, "__init__", "a new threading.Thread"),
    (threading.Event, "__init__", "threading.Event()"),
    (threading.Condition, "__init__", "threading.Condition()"),
    (threading.Semaphore, "__init__", "threading.Semaphore()"),
    (threading.Barrier, "__init__", "threading.Barrier()"),
    (socket.socket, "__init__", "a real socket"),
    (socket, "getaddrinfo", "socket.getaddrinfo"),
    (select, "select", "select.select"),
    (subprocess.Popen, "__init__", "a subprocess"),
    (os, "system", "os.system"),
    (os, "fork", "os.fork"),
)


@pytest.fixture(scope="session", autouse=True)
def _real_blocking_guard():
    saved = [(owner, name, getattr(owner, name))
             for owner, name, _what in _TARGETS]
    for owner, name, what in _TARGETS:
        setattr(owner, name, _guarded(what, getattr(owner, name)))
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


@pytest.fixture(autouse=True)
def _no_real_blocking():
    _violations.clear()
    yield
    if _violations:
        found = list(_violations)
        _violations.clear()
        pytest.fail("real blocking under the run token:\n  "
                    + "\n  ".join(found), pytrace=False)


@pytest.fixture
def real_blocking_allowed():
    """Lift the guard for one test; the test says why next to its use."""
    _allowances.append("lifted")
    yield
    _allowances.clear()
