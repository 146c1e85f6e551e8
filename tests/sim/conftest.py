"""Test ids in this directory end in ``[thread]``.

The suffix dates from when the directory ran as a switch-mechanism
matrix; the CI floor list names every test by that id, so the
one-value parameter stays to keep the ids stable.
"""

import threading
import time

import pytest


def no_thread_left(baseline):
    """True once ``threading.active_count()`` is back at ``baseline``: a
    thread ends just after its last hand-off, so wait up to 2 s."""
    deadline = time.monotonic() + 2.0
    while threading.active_count() > baseline \
            and time.monotonic() < deadline:
        time.sleep(0.005)
    return threading.active_count() <= baseline


@pytest.fixture(autouse=True, params=["thread"])
def switch_mechanism(request):
    return request.param


class HookLog:
    """Full tracer hook surface, recorded as ``(hook, id)`` pairs: the
    ``seq`` of a timer, the name of a process, the type of a sync
    object — stable across runs and across kernel implementations."""

    def __init__(self):
        self.log = []

    def on_schedule(self, timer):
        self.log.append(("schedule", timer.seq))

    def on_fire(self, timer):
        self.log.append(("fire", timer.seq))

    def on_switch(self, proc):
        self.log.append(("switch", proc.name))

    def on_exit(self, proc):
        self.log.append(("exit", proc.name))

    def on_join(self, proc, target):
        self.log.append(("join", f"{proc.name}->{target.name}"))

    def hb_release(self, obj):
        self.log.append(("hb_release", type(obj).__name__))

    def hb_acquire(self, obj):
        self.log.append(("hb_acquire", type(obj).__name__))


class CountingTracer:
    """Two of the seven hooks: a tracer, lone or fanned, implements
    whichever it needs."""

    def __init__(self):
        self.fires = 0
        self.switches = 0

    def on_fire(self, timer):
        self.fires += 1

    def on_switch(self, proc):
        self.switches += 1


@pytest.fixture
def hook_log():
    return HookLog()
