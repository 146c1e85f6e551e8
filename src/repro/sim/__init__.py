"""Deterministic discrete-event simulation kernel.

This package provides the execution substrate for the whole Padico
reproduction: the kernel hands out a single "run token" so exactly one
simulated process executes at any instant and every run is fully
deterministic — a total order over ``(time, shuffle, seq)`` event keys.

The virtual clock (:attr:`SimKernel.now`, seconds as ``float``) stands in
for the wall clock of the paper's testbed; all latencies and bandwidths
reported by the benchmarks are read off this clock.

Public API
----------
- :class:`SimKernel` — event loop, virtual clock, process management.
- :class:`SimProcess` — a simulated process (an OS thread that runs only
  while it holds the run token).
- :class:`Timer` — cancellable scheduled callback handle.
- Exceptions: :class:`SimShutdown`, :class:`SimInterrupt`,
  :class:`SimDeadlockError`, :class:`SimProcessError`.
- :class:`ThreadBackend` (:mod:`repro.sim.backends`) — the one switch
  mechanism, a lock hand-off from the OS thread that yields straight to
  the next one (baton passing); each kernel owns one as ``kernel.backend``.
- Synchronisation primitives in :mod:`repro.sim.sync`: :class:`Mailbox`
  (the one message queue, FIFO or selective receive), :class:`SimEvent`
  and :class:`SimLock`, all blocking on a :class:`WaitQueue`.

``SimKernel(seed=None)`` is the whole constructor: there is nothing to
select.  ``docs/KERNEL.md`` states the determinism contract (total event
order, run-token exclusivity, tracer hook order) and the observation
contract (every yield goes through ``kernel.backend.block``).
"""

from repro.sim.kernel import (
    SimDeadlockError,
    SimInterrupt,
    SimKernel,
    SimProcess,
    SimProcessError,
    SimShutdown,
    Timer,
)
from repro.sim.backends import ThreadBackend
from repro.sim.sync import Mailbox, SimEvent, SimLock, SimTimeout, WaitQueue
from repro.sim.waitgraph import format_wait_graph, wait_edges

__all__ = [
    "SimKernel",
    "SimProcess",
    "Timer",
    "SimShutdown",
    "SimInterrupt",
    "SimDeadlockError",
    "SimProcessError",
    "ThreadBackend",
    "Mailbox",
    "SimTimeout",
    "SimEvent",
    "SimLock",
    "WaitQueue",
    "format_wait_graph",
    "wait_edges",
]
