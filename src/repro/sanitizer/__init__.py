"""``repro.sanitizer`` — sim-san: a dynamic sanitizer for the
cooperative kernel and the PadicoTM abstraction layer.

Three tools, all opt-in and all zero-overhead when not installed
(see ``docs/SANITIZER.md``):

* **Happens-before race detection** — vector clocks per
  :class:`~repro.sim.kernel.SimProcess`, edges from the scheduler and
  every :mod:`repro.sim.sync` primitive, plus :func:`tracked` proxies
  that flag unsynchronised read/write pairs on shared state with *both*
  access sites reported.
* **Typestate monitoring** — the VLink/Circuit lifecycle DFA (no
  send-before-connect, no use-after-close, no double-bind, balanced
  claims on arbitration drivers), enforced at the violating call.
  Every violation is also recorded and :meth:`Sanitizer.check` raises
  on any of them, so a daemon that dies of one cannot hide it.  The
  same runtime hook surface carries the **publish-window watch**: a
  zero-copy buffer fingerprinted where CORBA, MPI or GridCCM hands it
  to the wire by reference and re-checked where the receiver reads it.
* **Seeded schedule exploration** — ``SimKernel(seed=N)`` permutes
  same-instant event order deterministically;
  :func:`explore_schedules` / :func:`assert_schedule_deterministic`
  rerun a scenario under N seeds and diff results bit-for-bit, turning
  latent interleaving bugs into seed-stamped, replayable failures.

:class:`Sanitizer` wires the first two onto a kernel/runtime pair.
They are the tree's only race detector and only typestate checker:
``repro-lint`` keeps no static twin of either.
"""

from repro.sanitizer.api import Sanitizer
from repro.sanitizer.clocks import VectorClock
from repro.sanitizer.explore import (
    ScheduleDivergenceError,
    ScheduleReport,
    ScheduleRun,
    assert_schedule_deterministic,
    explore_schedules,
    run_scenario,
)
from repro.sanitizer.monitors import (
    PublishWatch,
    PublishWindowError,
    TypestateError,
    TypestateMonitor,
)
from repro.sanitizer.races import Access, RaceDetector, RaceError, RaceReport
from repro.sanitizer.report import render_summary
from repro.sanitizer.tracked import tracked

__all__ = [
    "Access",
    "PublishWatch",
    "PublishWindowError",
    "RaceDetector",
    "RaceError",
    "RaceReport",
    "Sanitizer",
    "ScheduleDivergenceError",
    "ScheduleReport",
    "ScheduleRun",
    "TypestateError",
    "TypestateMonitor",
    "VectorClock",
    "assert_schedule_deterministic",
    "explore_schedules",
    "render_summary",
    "run_scenario",
    "tracked",
]
