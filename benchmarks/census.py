"""Reachability and option census: which library functions a whole run
enters, and which of their defaulted parameters it ever sets.

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

The first table counts the lines of every module- and class-level
function (decorators included, nested functions inside their parent)
of the packages below, and prints per package and per module how many
lines belong to functions never entered after step 1, and after step 2.

The second table covers every defaulted parameter of the same functions
(a dataclass's generated ``__init__`` included, so its defaulted
fields).  On each entry the hook compares the bound value with the
default; a value neither ``is`` nor ``==`` the default is recorded
against the step that bound it.  Per package it prints how many
defaulted parameters were never varied after step 1, and after step 2,
then lists those never varied after step 2.  A generator's parameters
are compared on every resumption, so one that rebinds a parameter in
its body reads as varied: the census may miss a never-varied parameter
but never reports a varied one.

The tooling packages (``analysis``, ``sanitizer``, ``tools``) are left
out: they inspect a run rather than take part in one.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
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
STEPS = (1, 2)


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


def module_functions(module) -> list:
    """The module- and class-level functions a module defines, nested
    classes included, each unwrapped from its decorators."""
    found = []

    def walk(namespace, prefix: str) -> None:
        for value in list(vars(namespace).values()):
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            if inspect.isclass(value):
                if (value.__module__ == module.__name__
                        and value.__qualname__.startswith(prefix)):
                    walk(value, value.__qualname__ + ".")
            elif inspect.isfunction(value):
                func = inspect.unwrap(value)
                if (func.__module__ == module.__name__
                        and func.__qualname__.startswith(prefix)):
                    found.append(func)

    walk(module, "")
    return list({f.__code__: f for f in found}.values())


def defaults(func) -> dict[str, object]:
    """Name -> default of each defaulted parameter of ``func``."""
    return {name: param.default for name, param
            in inspect.signature(func, follow_wrapped=False)
            .parameters.items()
            if param.default is not inspect.Parameter.empty}


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except (TypeError, ValueError):   # e.g. an array against a scalar
        return False


class Recorder:
    """What profiled steps of a run call into: the step that first
    entered each code object, and for each defaulted parameter of the
    watched functions, the step that first bound it to a value other
    than its default."""

    def __init__(self) -> None:
        self.step = 0
        self.entered: dict = {}     # code -> first step
        self.varied: dict = {}      # (code, parameter) -> first step
        self._pending: dict = {}    # code -> {parameter: default}
        #: calls profiled before :meth:`watch`, ``(code, arguments)``:
        #: a module's import-time calls precede its functions' listing
        self._early: list | None = []

    def watch(self, functions) -> None:
        """Compare the defaulted parameters of ``functions``, in the
        calls profiled so far and from now on."""
        for func in functions:
            self._pending[func.__code__] = defaults(func)
        early, self._early = self._early, None
        for code, bound in early:
            self._compare(code, bound)

    def _compare(self, code, bound: dict) -> None:
        pending = self._pending.get(code)
        if pending:
            for name, default in list(pending.items()):
                if not _is_default(bound[name], default):
                    self.varied[code, name] = self.step
                    del pending[name]

    def _hook(self, frame, event, _arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        if code not in self.entered:
            self.entered[code] = self.step
        if self._early is not None:
            self._early.append((code, dict(frame.f_locals)))
        else:
            self._compare(code, frame.f_locals)

    @contextlib.contextmanager
    def profiling(self, step: int):
        self.step = step
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def entered_lines(self, step: int) -> set[tuple[str, int]]:
        """``(file, first line)`` of every code object entered by the
        end of ``step``."""
        return {(os.path.realpath(c.co_filename), c.co_firstlineno)
                for c, first in self.entered.items() if first <= step}


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


def library_modules() -> dict[str, Path]:
    """``package/module.py`` -> file, for every module of ``PACKAGES``."""
    return {path.relative_to(SRC).as_posix(): path
            for package in PACKAGES
            for path in sorted((SRC / package).rglob("*.py"))}


def _import(module: str):
    parts = ("repro",) + Path(module).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return importlib.import_module(".".join(parts))


def census():
    """Both tables' rows (:func:`line_rows`, :func:`option_rows`)."""
    modules = library_modules()
    recorder = Recorder()
    with recorder.profiling(1):
        # imported here, as the run would, so import-time calls count
        functions = {module: module_functions(_import(module))
                     for module in modules}
        recorder.watch(f for funcs in functions.values() for f in funcs)
        run_experiments_and_workloads()
    with recorder.profiling(2):
        run_examples()
    return line_rows(recorder, modules), option_rows(recorder, functions)


def line_rows(recorder: Recorder,
              modules: dict[str, Path]) -> dict[str, list[int]]:
    """Module -> [function lines, never entered, … with examples]."""
    rows: dict[str, list[int]] = {}
    entered = [recorder.entered_lines(step) for step in STEPS]
    for module, path in modules.items():
        real = os.path.realpath(path)
        row = [0, 0, 0]
        for first, count in function_spans(path):
            row[0] += count
            for i, seen in enumerate(entered, 1):
                if (real, first) not in seen:
                    row[i] += count
        if row[0]:
            rows[module] = row
    return rows


def option_rows(recorder: Recorder, functions: dict[str, list]) -> dict:
    """``(module, qualname, parameter)`` -> ``(step, entered)``: the
    step that first bound another value (``None`` if none did), and
    whether the function was entered at all."""
    return {(module, func.__qualname__, name):
            (recorder.varied.get((func.__code__, name)),
             func.__code__ in recorder.entered)
            for module, funcs in functions.items() for func in funcs
            for name in defaults(func)}


def _pct(part: int, whole: int) -> str:
    return f"{part} ({100 * part / whole:.0f} %)"


def _table(header: str, rows: dict[str, list[int]]) -> list[str]:
    """Per-package sums of ``rows`` (three counts per module), largest
    second column first, and their total."""
    packages: dict[str, list[int]] = {}
    for module, row in rows.items():
        acc = packages.setdefault(module.split("/")[0], [0, 0, 0])
        for i, value in enumerate(row):
            acc[i] += value
    total = [sum(row[i] for row in packages.values()) for i in range(3)]
    out = [f"| package | {header} | … with examples |\n|---|---|---|---|\n"]
    for package, (count, never, rest) in sorted(
            packages.items(), key=lambda kv: -kv[1][1]):
        out.append(f"| `{package}/` | {count} | {never} | {rest} |\n")
    out.append(f"| total | {total[0]} | {_pct(total[1], total[0])} "
               f"| {_pct(total[2], total[0])} |\n")
    return out


def render_lines(lines: dict[str, list[int]]) -> str:
    out = _table("function lines | never entered", lines)
    out.append("\nModules with never-entered lines:\n\n"
               "| module | function lines | never entered "
               "| … with examples |\n|---|---|---|---|\n")
    for module, (count, never, rest) in sorted(
            lines.items(), key=lambda kv: (-kv[1][1], kv[0])):
        if never:
            out.append(f"| `{module}` | {count} | {never} | {rest} |\n")
    return "".join(out)


def render_options(options: dict) -> str:
    counts: dict[str, list[int]] = {}
    never: dict[tuple[str, str, bool], list[str]] = {}
    for (module, qualname, name), (step, called) in sorted(
            options.items(), key=lambda kv: kv[0][:2]):
        row = counts.setdefault(module, [0, 0, 0])
        row[0] += 1
        row[1] += step is None or step > 1
        row[2] += step is None
        if step is None:
            never.setdefault((module, qualname, called), []).append(name)
    out = ["Defaulted parameters:\n\n"]
    out += _table("defaulted parameters | never varied", counts)
    out.append("\nParameters never varied, with the examples:\n\n"
               "| module | function | parameters |\n|---|---|---|\n")
    for (module, qualname, called), names in never.items():
        mark = "" if called else " (never called)"
        params = ", ".join(f"`{n}`" for n in names)
        out.append(f"| `{module}` | `{qualname}`{mark} | {params} |\n")
    return "".join(out)


def main() -> int:
    lines, options = census()
    sys.stdout.write(render_lines(lines) + "\n" + render_options(options))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
