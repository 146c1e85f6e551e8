"""repro.obs — deterministic observability for the PadicoTM simulation.

Spans, counters and flows stamped with the *virtual* clock
(``kernel.now``), recorded by a :class:`TraceRecorder` attached through
``runtime.observe(recorder)`` or ``with runtime.trace() as tr:``, and
exported as Chrome ``trace_event`` JSON (:func:`write_chrome_trace`), a
flat metrics dict (:func:`metrics`) or bench documents
(:class:`BenchResult`, :func:`bench_json_text`).

Zero perturbation when uninstalled: every instrumentation site in the
stack guards on ``monitor is not None``, so a run with no recorder
attached executes exactly the pre-instrumentation schedule.
"""

from repro.obs.bench import (BENCH_SCHEMA, BenchResult, BenchSchemaError,
                             bench_document, bench_json_text,
                             validate_bench_doc)
from repro.obs.export import chrome_trace, metrics, write_chrome_trace
from repro.obs.recorder import TraceRecorder
from repro.obs.spans import CounterSample, FlowRecord, Span

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "BenchSchemaError",
    "CounterSample",
    "FlowRecord",
    "Span",
    "TraceRecorder",
    "bench_document",
    "bench_json_text",
    "chrome_trace",
    "metrics",
    "validate_bench_doc",
    "write_chrome_trace",
]
