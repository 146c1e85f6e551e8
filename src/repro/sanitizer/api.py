"""The ``Sanitizer`` facade: one object that wires everything up.

::

    from repro.sanitizer import Sanitizer

    kernel = SimKernel()
    with Sanitizer(kernel) as san:
        shared = san.tracked({}, label="shared-state")
        ... spawn processes, kernel.run() ...
    # __exit__ raises RaceError if anything raced

Attach to a :class:`~repro.padicotm.runtime.PadicoRuntime` instead to
get the VLink/Circuit typestate monitor and the publish-window watch as
well; ``__exit__`` then also raises TypestateError for a violation
recorded in any process, daemons included, and PublishWindowError for
a zero-copy buffer changed before its receiver read it::

    runtime = PadicoRuntime(topology)
    san = Sanitizer(runtime=runtime)

Everything uninstalls cleanly (:meth:`uninstall`), restoring the
zero-overhead configuration.
"""

from __future__ import annotations

from typing import Any

from repro.sanitizer.monitors import PublishWatch, TypestateMonitor
from repro.sanitizer.races import RaceDetector
from repro.sanitizer.report import render_summary
from repro.sanitizer.tracked import tracked as _tracked


class Sanitizer:
    """Installs the race detector on a kernel (and, when given a
    runtime, the typestate monitor too); collects all findings."""

    def __init__(self, kernel: Any = None, runtime: Any = None,
                 on_race: str = "record"):
        if kernel is None and runtime is None:
            raise ValueError("pass a SimKernel and/or a PadicoRuntime")
        if kernel is None:
            kernel = runtime.kernel
        self.kernel = kernel
        self.runtime = runtime
        self.detector = RaceDetector(kernel, on_race=on_race)
        kernel.attach_tracer(self.detector)
        self.monitor: TypestateMonitor | None = None
        self.watch: PublishWatch | None = None
        if runtime is not None:
            self.monitor = TypestateMonitor()
            runtime.observe(self.monitor)
            self.watch = PublishWatch(kernel)
            runtime.observe(self.watch)

    # ------------------------------------------------------------------
    def tracked(self, obj: Any, label: str | None = None) -> Any:
        """Wrap ``obj`` so every access feeds the race detector."""
        return _tracked(obj, self.detector, label)

    @property
    def races(self) -> list:
        return self.detector.races

    def check(self) -> None:
        """Raise :class:`~repro.sanitizer.races.RaceError` on any race,
        then :class:`~repro.sanitizer.monitors.TypestateError` on any
        recorded typestate violation, then
        :class:`~repro.sanitizer.monitors.PublishWindowError` on any
        buffer that changed inside its publish window."""
        self.detector.check()
        if self.monitor is not None:
            self.monitor.check()
        if self.watch is not None:
            self.watch.check()

    def report(self) -> str:
        return render_summary(self.detector, self.monitor, self.watch)

    def uninstall(self) -> None:
        """Detach all hooks; the kernel/runtime run uninstrumented again.

        Uses the composable attach/detach protocol, so other observers
        (e.g. a :class:`repro.obs.TraceRecorder`) stay attached."""
        self.kernel.detach_tracer(self.detector)
        if self.runtime is not None:
            self.runtime.unobserve(self.monitor)
            self.runtime.unobserve(self.watch)  # drops every fingerprint

    # ------------------------------------------------------------------
    def __enter__(self) -> "Sanitizer":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.uninstall()
        if exc_type is None:
            self.check()
