"""The suite-wide blocking guard (``tests/conftest.py``): a real blocking
primitive on a thread that holds the run token raises, however deep in
helpers it sits, and nowhere else."""

import contextlib
import socket
import subprocess
import threading
import time

import pytest

from repro.sim import SimKernel, SimProcessError
from tests.conftest import RealBlockingError, _violations


@contextlib.contextmanager
def expect_violations(what):
    """The block must record violations naming ``what``; they are then
    cleared so this test's own teardown check passes."""
    start = len(_violations)
    yield
    found = _violations[start:]
    del _violations[start:]
    assert found and all(what in message for message in found), found


def _backoff(delay):
    time.sleep(delay)


def _retry(task):
    task()
    _backoff(0.001)


def _run_failing(body):
    with SimKernel() as k:
        k.spawn(body, name="worker")
        with pytest.raises(SimProcessError) as info:
            k.run()
    return info.value.exc


def _make_gate():
    return threading.Event()


def _ping(n):
    return _pong(n - 1) if n else _backoff(0.001)


def _pong(n):
    return _ping(n - 1) if n else _backoff(0.001)


class _Transport:
    def _dial(self):
        return socket.socket()

    def connect(self):
        return self._dial()


def test_sleep_through_a_helper_in_a_process_raises():
    with expect_violations("time.sleep"):
        exc = _run_failing(lambda p: _retry(lambda: None))
    assert isinstance(exc, RealBlockingError)
    assert "'sim:worker'" in str(exc) and "_backoff" in str(exc)


@pytest.mark.parametrize("what,body", [
    ("threading.Event()", lambda p: _make_gate()),
    ("time.sleep", lambda p: _ping(5)),
    ("a real socket", lambda p: _Transport().connect()),
], ids=["thread-helper", "mutual-recursion", "method-chain"])
def test_blocking_behind_helpers_raises(what, body):
    with expect_violations(what):
        exc = _run_failing(body)
    assert isinstance(exc, RealBlockingError)


def test_sleep_in_a_kernel_callback_raises():
    with SimKernel() as k:
        def sleeper(p):
            k.schedule(0.5, _backoff, 0.001)
            p.sleep(1.0)

        k.spawn(sleeper, name="sleeper")
        with expect_violations("time.sleep"):
            with pytest.raises(RealBlockingError):
                k.run()


@pytest.mark.parametrize("what,make", [
    ("threading.Lock()", lambda: threading.Lock()),
    ("threading.RLock()", lambda: threading.RLock()),
    ("threading.Event()", lambda: threading.Event()),
    ("threading.Condition()", lambda: threading.Condition()),
    ("threading.Semaphore()", lambda: threading.BoundedSemaphore()),
    ("a new threading.Thread", lambda: threading.Timer(1.0, print)),
    ("a real socket", lambda: socket.socket()),
    ("a subprocess", lambda: subprocess.Popen(["true"])),
], ids=["lock", "rlock", "event", "condition", "semaphore", "thread",
        "socket", "subprocess"])
def test_each_primitive_raises_in_a_process(what, make):
    with expect_violations(what):
        exc = _run_failing(lambda p: make())
    assert isinstance(exc, RealBlockingError)


def test_a_swallowed_violation_still_fails_the_test():
    caught = []

    def stubborn(p):
        try:
            _backoff(0.001)
        except Exception as exc:  # noqa: BLE001 - what the guard survives
            caught.append(exc)

    with expect_violations("time.sleep"):
        with SimKernel() as k:
            k.spawn(stubborn, name="stubborn", daemon=True)
            k.run()
    assert isinstance(caught[0], RealBlockingError)


def test_outside_a_process_the_primitives_work():
    _backoff(0.0)
    threading.Event().set()
    with SimKernel() as k:
        k.spawn(lambda p: p.sleep(1.0))
        k.run()
    time.sleep(0.0)


def test_spawning_from_a_process_is_the_backends_own_business():
    # a process that spawns another makes ThreadBackend start a thread
    # and a lock on a sim:* thread: sim/backends.py is exempt
    with SimKernel() as k:
        def parent(p):
            child = k.spawn(lambda q: q.sleep(1.0), name="child")
            p.join(child)
            return "joined"

        pr = k.spawn(parent, name="parent")
        k.run()
        assert pr.result == "joined"
        assert k.backend.threads_started == 2
