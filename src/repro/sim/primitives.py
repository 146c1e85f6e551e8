"""Happens-before edge emission for the cooperative-kernel primitives.

Every primitive in :mod:`repro.sim.sync` calls :func:`trace_release` /
:func:`trace_acquire` on its release/acquire paths; the dynamic race
detector (:class:`repro.sanitizer.races.RaceDetector`, installed as the
kernel tracer) turns those calls into vector-clock edges.  With no
tracer installed each call is one attribute load.

The module is deliberately import-free (no kernel/sync imports), so
``sync.py`` imports it without creating a cycle.
"""

from __future__ import annotations

from typing import Any


def trace_release(kernel: Any, primitive: Any) -> None:
    """Report a release-style operation on ``primitive`` to the kernel's
    tracer, if one is installed (free when none is)."""
    tracer = kernel._tracer
    if tracer is not None:
        tracer.hb_release(primitive)


def trace_acquire(kernel: Any, primitive: Any) -> None:
    """Report an acquire-style operation on ``primitive`` to the kernel's
    tracer, if one is installed (free when none is)."""
    tracer = kernel._tracer
    if tracer is not None:
        tracer.hb_acquire(primitive)
