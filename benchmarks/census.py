"""Reachability census: which library functions a whole run enters.

Usage::

    PYTHONPATH=src python -m benchmarks.census

It takes no options.  A profiler hook (``sys.setprofile`` and
``threading.setprofile``, so the simulated processes' threads are seen
too) records every function entered while

1. ``benchmarks.run.collect()`` computes every ``BENCH_padico.json``
   series, and one smoke-size repetition of each repo-benchmark
   workload runs (seed 1, with the ``TraceRecorder`` the benchmark's
   traced runs attach);
2. then the ten ``examples/*.py`` run, each as ``__main__`` in a
   temporary directory with its output discarded.

The census counts the lines of every module- and class-level function
(decorators included, nested functions inside their parent) of the
packages below, and prints per package and per module how many lines
belong to functions never entered after step 1, and after step 2.
The tooling packages (``analysis``, ``sanitizer``, ``tools``) are left
out: they inspect a run rather than take part in one.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PACKAGES = ("corba", "mpi", "padicotm", "ccm", "net", "sim", "core",
            "deploy", "soap", "obs")
SEED = 1


def function_spans(path: Path) -> list[tuple[int, int]]:
    """``(first line, line count)`` of each module- or class-level
    function of one file; the first line is that of its first
    decorator, as in ``co_firstlineno``."""
    spans = []
    todo = list(ast.parse(path.read_text(encoding="utf-8")).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo.extend(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in node.decorator_list]
                        + [node.lineno])
            spans.append((first, node.end_lineno - first + 1))
    return spans


class Entered:
    """The ``(file, first line)`` of every code object a profiled
    stretch of the run calls into."""

    def __init__(self) -> None:
        self.codes: set = set()

    def _hook(self, frame, event, _arg) -> None:
        if event == "call":
            self.codes.add(frame.f_code)

    @contextlib.contextmanager
    def profiling(self):
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def keys(self) -> set[tuple[str, int]]:
        return {(os.path.realpath(c.co_filename), c.co_firstlineno)
                for c in self.codes}


def run_experiments_and_workloads() -> None:
    from benchmarks import run
    from benchmarks.e2e import inputs, spec, workloads
    from benchmarks.e2e.tracing import RecorderTracer

    run.collect()
    for name, cls in workloads.WORKLOAD_CLASSES.items():
        const = spec.WORKLOADS[name]["smoke"]
        workload = cls(const, inputs.make_inputs(name, SEED, const))
        rep = workload.build(RecorderTracer().observe)
        for stage in rep.stages:
            stage.drive()
        workload.check(rep)


def run_examples() -> None:
    here = os.getcwd()
    for path in sorted((ROOT / "examples").glob("*.py")):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            os.chdir(tmp)
            try:
                runpy.run_path(str(path), run_name="__main__")
            finally:
                os.chdir(here)


def census() -> dict[str, list[int]]:
    """Module path -> [function lines, never entered, … with examples]."""
    base = Entered()
    with base.profiling():
        run_experiments_and_workloads()
    examples = Entered()
    with examples.profiling():
        run_examples()
    after_base = base.keys()
    after_all = after_base | examples.keys()
    rows: dict[str, list[int]] = {}
    for package in PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            real = os.path.realpath(path)
            row = [0, 0, 0]
            for first, lines in function_spans(path):
                row[0] += lines
                if (real, first) not in after_base:
                    row[1] += lines
                if (real, first) not in after_all:
                    row[2] += lines
            if row[0]:
                rows[path.relative_to(SRC).as_posix()] = row
    return rows


def _pct(part: int, whole: int) -> str:
    return f"{part} ({100 * part / whole:.0f} %)"


def render(rows: dict[str, list[int]]) -> str:
    header = ("| package | function lines | never entered "
              "| … with examples |\n|---|---|---|---|\n")
    packages: dict[str, list[int]] = {}
    for module, row in rows.items():
        acc = packages.setdefault(module.split("/")[0], [0, 0, 0])
        for i, value in enumerate(row):
            acc[i] += value
    total = [sum(row[i] for row in packages.values()) for i in range(3)]
    out = [header]
    for package, (lines, never, rest) in sorted(
            packages.items(), key=lambda kv: -kv[1][1]):
        out.append(f"| `{package}/` | {lines} | {never} | {rest} |\n")
    out.append(f"| total | {total[0]} | {_pct(total[1], total[0])} "
               f"| {_pct(total[2], total[0])} |\n")
    out.append("\nModules with never-entered lines:\n\n"
               "| module | function lines | never entered "
               "| … with examples |\n|---|---|---|---|\n")
    for module, (lines, never, rest) in sorted(
            rows.items(), key=lambda kv: (-kv[1][1], kv[0])):
        if never:
            out.append(f"| `{module}` | {lines} | {never} | {rest} |\n")
    return "".join(out)


def main() -> int:
    sys.stdout.write(render(census()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
