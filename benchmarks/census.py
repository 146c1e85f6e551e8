"""Reachability, option, hook and constant census: which library
functions a whole run enters, which of their defaulted parameters it
ever sets, which monitor hook guards it passes with no monitor attached,
what it costs the scheduler, and which series each cost constant moves.

Usage::

    PYTHONPATH=src python -m benchmarks.census

It takes no options.  A trace hook (``sys.settrace`` and
``threading.settrace``, so the simulated processes' threads are seen
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

The third table covers every monitor hook site: a call of one of the
``on_*`` hooks that the monitors of ``repro.obs`` and
``repro.sanitizer`` implement, outside ``obs/`` itself.  Each site has a
*guard*: the nearest enclosing ``if`` whose test names the hook's
receiver, or an earlier ``if`` on it whose body leaves the function (an
early exit, as in ``if mon is None: return ...``).  A line trace of the
functions holding guards records whether the run reached each guard and
took the no-monitor branch, the one a hook that lost its guard would
crash on.  A site that neither step reaches that way names the tier-1
test that does (``TIER1_HOOK_TESTS``); one with no guard, or missed and
unnamed, makes the census exit 1.

The fourth table is census A: for each repo-benchmark workload's
smoke-size repetition of step 1, the kernel's events, process switches,
OS-level hand-offs, OS threads started and processes spawned, and the
flow network's max-min solves — exact counts, so a change to how the
run token moves, or to how often rates are solved, shows as a moved
row.  After the profiled steps, and not under the trace hook, one
full-size repetition of each workload runs the same way (seed 1) for
the same table at full size.

The fifth table is the cost-constant sweep, run after the profiled
steps and not under the trace hook.  A *cost constant* is a float a
library module binds at module level: a public name assigned a float,
or a float field written in the constructor call that builds a
module-level dataclass instance (a technology, a driver, an ORB
profile).  Each non-zero one is scaled by 1.1 alone, in every module
that holds it, and ``benchmarks.run.collect()`` runs again; the row
names the ``BENCH_padico.json`` series that moved and the largest
relative move of any point, and tells a move of a few units in the last
place (a reassociated sum) from a real dependency.  Every constant
needs an entry in ``CONSTANT_VERDICTS`` — the paper number it is
calibrated to, and why it stays — and after the sweep ``collect()``
must give the first run's series bit for bit, so a constant left
patched shows; a constant without a verdict, a verdict without a
constant, or a run that does not repeat makes the census exit 1.

The tooling packages (``analysis``, ``sanitizer``, ``tools``) are left
out: they inspect a run rather than take part in one.

The census prints every table, and writes them into the generated
blocks (:mod:`benchmarks.blocks`) of the documents that quote them:
DESIGN.md (the constant sweep in §5, then the line, option, hook and
smoke-size census A tables of §8) and docs/PERFORMANCE.md (census A at
full size).  It writes both on every run, as ``benchmarks.run`` writes
EXPERIMENTS.md; ``git diff`` shows what moved.  A workload repetition
that fails an operation (its census A row would not be the workload's),
or a document whose block names differ from the census's, makes it
print why, exit 1 and write neither.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import math
import os
import runpy
import sys
import tempfile
import threading
import types
from pathlib import Path
from typing import Callable, NamedTuple

from benchmarks.blocks import render_blocks

ROOT = Path(__file__).resolve().parent.parent
DESIGN_PATH = ROOT / "DESIGN.md"
PERFORMANCE_PATH = ROOT / "docs" / "PERFORMANCE.md"
SRC = ROOT / "src" / "repro"
PACKAGES = ("corba", "mpi", "padicotm", "ccm", "net", "sim", "core",
            "deploy", "soap", "obs")
SEED = 1
STEPS = (1, 2)
#: where the monitors live: the hooks they implement are the ones counted
MONITOR_PACKAGES = ("obs", "sanitizer")

#: ``(module, function, hook)`` -> the tier-1 test that reaches the
#: site's guard with no monitor, for the sites the census pass does not
#: (closing, releasing, aborting and the BSD personality: paths no
#: experiment, workload or example takes)
TIER1_HOOK_TESTS: dict[tuple[str, str, str], str] = {
    ("padicotm/abstraction/circuit.py", "Circuit.close", "on_circuit"):
        "tests/padicotm/test_abstraction.py::"
        "test_closed_circuit_refuses_traffic",
    ("padicotm/abstraction/vlink.py", "VLinkListener.close", "on_unbind"):
        "tests/test_edge_cases.py::test_vlink_listener_poll_and_close",
    ("padicotm/abstraction/vlink.py", "VLinkEndpoint.close", "on_vlink"):
        "tests/padicotm/test_abstraction.py::test_vlink_eof_semantics",
    ("padicotm/arbitration/core.py", "ArbitrationCore.release_claims",
     "on_release"):
        "tests/padicotm/test_arbitration.py::test_release_claims",
    **{("padicotm/personality/bsd.py", f"BsdSocket.{op}", hook):
       "tests/padicotm/test_personalities.py::test_bsd_socket_roundtrip"
       for op in ("send", "recv") for hook in ("on_span_start",
                                               "on_span_end")},
    ("net/flows.py", "FlowNetwork._abort_flow", "on_flow_end"):
        "tests/net/test_flows.py::test_link_failure_aborts_inflight_transfer",
    ("core/runtime.py", "_ServerPortLayer._assemble", "on_counter"):
        "tests/core/test_2d_distribution.py::"
        "test_2d_sequential_client_via_proxy",
}


#: the verdict on each ORB profile's client/server pair: the paper fixes
#: only its sum, so it stays split where moving 1 µs from server to
#: client, the sum fixed, moves a series (by a few bits, or more)
_SPLIT = {
    "OMNIORB3": ("Fig. 7 / §4.4: omniORB 3 240 MB/s, 20 µs",
                 "split read: 1 µs moved to the client moves "
                 "`corba.bandwidth.omniORB-3.0.2` by 5 ulp"),
    "OMNIORB4": ("§4.4: omniORB 4 ~19 µs, 2 × 120 MB/s shared",
                 "split read: 1 µs moved to the client moves "
                 "`concurrent.sharing` by 5.0e-6"),
    "MICO": ("§4.4: Mico 62 µs; Fig. 8 (MicoCCM)",
             "split read: 1 µs moved to the client moves "
             "`gridccm.n_to_n.4` by 11 ulp"),
    "ORBACUS": ("§4.4: ORBacus 54 µs",
                "split read: 1 µs moved to the client moves "
                "`corba.bandwidth.ORBacus-4.0.5` by 4 ulp"),
    "OPENCCM_JAVA": ("§4.4 Fast-Ethernet: OpenCCM 8.3 → 66.4 MB/s",
                     "the one series holding OpenCCM's two numbers; "
                     "moving 1 µs between its equal halves moves no "
                     "series, and the pair stays as every profile's shape"),
}
_SCI = ("none (§2 names SCI)", "PAPER.md §2 names SCI; no run uses it")
#: ``(module, constant)`` -> ``(paper anchor, verdict)`` for every cost
#: constant of the fifth table: the paper number it is calibrated to
#: ("none" if no paper number is), and why it stays.  One that moves no
#: series stays only for a named tier-1 test, digest or paper mention
CONSTANT_VERDICTS: dict[tuple[str, str], tuple[str, str]] = {
    ("corba/esiop.py", "OVERHEAD_SCALE"):
        ("none (§4.4 suggests ESIOP)", "A5, ESIOP's one point"),
    ("corba/giop.py", "OVERHEAD_SCALE"):
        ("none", "the unit ESIOP's scale is relative to: the ORB "
                 "multiplies by its wire's scale, with no branch"),
    ("corba/profiles.py", "COLLOCATED_OVERHEAD"):
        ("none", "moves no series and no smoke digest; "
                 "`test_collocated_invocation_short_circuits` pins a "
                 "collocated call's time, this charge alone, as a literal"),
    **{("corba/profiles.py", f"{profile}.{side}_overhead"): _SPLIT[profile]
       for profile in _SPLIT for side in ("client", "server")},
    ("corba/profiles.py", "MICO.copy_cost_per_byte"):
        ("Fig. 7: Mico 55 MB/s", "pinned (A1 copies at Mico's price)"),
    ("corba/profiles.py", "ORBACUS.copy_cost_per_byte"):
        ("Fig. 7: ORBacus 63 MB/s", "pinned"),
    ("corba/profiles.py", "OPENCCM_JAVA.copy_cost_per_byte"):
        ("§4.4 Fast-Ethernet: OpenCCM 8.3 → 66.4 MB/s", "pinned"),
    ("mpi/communicator.py", "PICKLE_BYTE_COST"):
        ("none", "GridCCM's pickled MPI messages (Fig. 8 and the "
                 "Fast-Ethernet series)"),
    ("padicotm/arbitration/drivers.py", "MADELEINE.overhead"):
        ("§4.4: MPI 11 µs = 1 + 9 + 1", "pinned"),
    ("padicotm/arbitration/drivers.py", "TCP.overhead"):
        ("none", "the Fast-Ethernet series, and `gridccm.n_to_n.2`: a "
                 "one-host Circuit charges TCP (known deviation)"),
    ("padicotm/arbitration/drivers.py", "LOOPBACK.overhead"):
        ("none", "moves no series and no smoke digest; "
                 "`test_mapping_table` pins a same-host VLink's cost"),
    ("net/devices.py", "MYRINET_2000.bandwidth"):
        ("Fig. 7: 240 MB/s = 96 % of the hardware", "pinned"),
    ("net/devices.py", "MYRINET_2000.latency"):
        ("§4.4: MPI 11 µs, 9 of them the wire", "pinned"),
    ("net/devices.py", "MYRINET_2000.raw_bandwidth"):
        ("Fig. 7: 250 MB/s hardware",
         "`test_topology` pins the 96 % efficiency"),
    ("net/devices.py", "SCI.bandwidth"): _SCI,
    ("net/devices.py", "SCI.latency"): _SCI,
    ("net/devices.py", "SCI.raw_bandwidth"): _SCI,
    ("net/devices.py", "ETHERNET_100.bandwidth"):
        ("Fig. 7: TCP/Ethernet-100 ≈ 11 MB/s", "pinned"),
    ("net/devices.py", "ETHERNET_100.latency"):
        ("none", "the Fast-Ethernet series and A4"),
    ("net/devices.py", "ETHERNET_100.raw_bandwidth"):
        ("§4.4 testbed: Fast-Ethernet, 100 Mb/s",
         "the technology's own rate; only `efficiency` reads it"),
    ("net/devices.py", "WAN.bandwidth"):
        ("none", "A4, and `grid_collectives`' digest"),
    ("net/devices.py", "WAN.latency"):
        ("none", "A4, and `grid_collectives`' digest"),
    ("net/devices.py", "LOOPBACK.bandwidth"):
        ("none", "co-located ranks in Fig. 8 (ROADMAP item 8)"),
    ("net/devices.py", "LOOPBACK.latency"):
        ("none", "co-located ranks in Fig. 8 (ROADMAP item 8)"),
    ("core/runtime.py", "GRIDCCM_COPY_COST"):
        ("Fig. 8: 1→1 43 MB/s", "pinned"),
    ("core/runtime.py", "GRIDCCM_CALL_OVERHEAD"):
        ("none (Fig. 8's 62 µs is Mico's)", "Fig. 8 and the proxy "
                                           "ablation"),
    ("deploy/security.py", "CIPHER_COST_PER_BYTE"):
        ("none (§6 leaves security open)", "A4"),
    ("deploy/security.py", "CIPHER_SETUP"):
        ("none (§6 leaves security open)", "A4"),
    ("soap/soap.py", "SOAP_TEXT_COST"):
        ("none", "moves no series or smoke digest; "
                 "`test_soap_much_slower_than_corba_for_bulk` pins a bulk "
                 "SOAP call's time as a literal (goodput under 3 MB/s)"),
    ("soap/soap.py", "SOAP_CALL_OVERHEAD"):
        ("none", "moves no series or smoke digest; "
                 "`test_soap_much_slower_than_corba_for_bulk` pins a bulk "
                 "SOAP call's time, two of these in it, as a literal"),
}


#: the fourth table's columns: what a stage's kernel and flow network
#: count, as plain ints that repeat exactly — a *switch* resumes a
#: process, a *hand-off* is a switch that moves the run token to another
#: OS thread, a *max-min solve* is one fill of the flow network's rates
SCHEDULING = {
    "events": lambda s: s.kernel.events_processed,
    "switches": lambda s: s.kernel.context_switches,
    "hand-offs": lambda s: s.kernel.backend.handoffs,
    "OS threads started": lambda s: s.kernel.backend.threads_started,
    "processes spawned": lambda s: len(s.kernel._processes),
    "max-min solves": lambda s: s.network.solver_solves,
}


#: the sweep's scale factor, and the largest move, in units in the last
#: place, that still reads as a reassociated sum rather than a dependency
SCALE = 1.1
LAST_BIT_ULPS = 64


class Constant(NamedTuple):
    """One cost constant: ``NAME`` or ``NAME.field`` of ``module``."""

    module: str
    name: str
    value: float
    owner: object           # the module (``NAME``) or instance (``.field``)


class ConstantRow(NamedTuple):
    constant: Constant
    moved: tuple[str, ...]  # the series any point of which moved
    relative: float         # largest relative move of a point
    ulps: float             # … in units in the last place


class Guard(NamedTuple):
    """The ``if`` that keeps a hook from running with no monitor."""

    key: tuple[str, int]    # (module, line of the ``if``)
    test_last: int          # last line of its test
    body: tuple[int, int]   # first and last line of its body
    exits: bool             # early exit: the body is the no-monitor branch


class HookSite(NamedTuple):
    module: str
    line: int
    hook: str
    function: str           # qualified name of the enclosing function
    guard: Guard | None


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
        #: guard key -> first step that took its no-monitor branch
        self.unmonitored: dict = {}
        self._guards: dict = {}     # real path -> {line: Guard}
        self._code_guards: dict = {}  # code -> {line: Guard} or None

    def watch(self, functions) -> None:
        """Compare the defaulted parameters of ``functions``, in the
        calls profiled so far and from now on."""
        for func in functions:
            self._pending[func.__code__] = defaults(func)
        early, self._early = self._early, None
        for code, bound in early:
            self._compare(code, bound)

    def watch_guards(self, paths: dict[str, Path], sites) -> None:
        """Line-trace the guards of ``sites`` (``paths``: module ->
        file) to see which ones the run passes with no monitor."""
        for site in sites:
            if site.guard is not None:
                real = os.path.realpath(paths[site.module])
                self._guards.setdefault(real, {})[site.guard.key[1]] = \
                    site.guard

    def _guards_of(self, code) -> dict | None:
        try:
            return self._code_guards[code]
        except KeyError:
            pass
        found = None
        in_file = self._guards.get(os.path.realpath(code.co_filename))
        if in_file:
            lines = {line for _s, _e, line in code.co_lines()}
            found = {line: guard for line, guard in in_file.items()
                     if line in lines} or None
        self._code_guards[code] = found
        return found

    def _line_tracer(self, guards: dict):
        """A frame's local tracer: after a guard's test, the next line
        says which branch ran (leaving the frame: not the body)."""
        pending = None

        def trace(frame, event, _arg):
            nonlocal pending
            line = frame.f_lineno
            if pending is not None:
                if event == "line" and pending.key[1] <= line \
                        <= pending.test_last:
                    return trace
                taken = event == "line" and \
                    pending.body[0] <= line <= pending.body[1]
                if taken == pending.exits:
                    self.unmonitored.setdefault(pending.key, self.step)
                pending = None
            if event == "line":
                pending = guards.get(line)
            return trace
        return trace

    def _compare(self, code, bound: dict) -> None:
        pending = self._pending.get(code)
        if pending:
            for name, default in list(pending.items()):
                if not _is_default(bound[name], default):
                    self.varied[code, name] = self.step
                    del pending[name]

    def _hook(self, frame, event, _arg):
        """The global trace function: it sees every ``call`` (and each
        resumption of a generator), and line-traces only frames of
        functions with a guard some step has not yet seen unmonitored."""
        code = frame.f_code
        if code not in self.entered:
            self.entered[code] = self.step
        if self._early is not None:
            self._early.append((code, dict(frame.f_locals)))
        else:
            self._compare(code, frame.f_locals)
        guards = self._guards_of(code)
        if guards is None or all(g.key in self.unmonitored
                                 for g in guards.values()):
            return None
        return self._line_tracer(guards)

    @contextlib.contextmanager
    def profiling(self, step: int):
        self.step = step
        threading.settrace(self._hook)
        sys.settrace(self._hook)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)

    def entered_lines(self, step: int) -> set[tuple[str, int]]:
        """``(file, first line)`` of every code object entered by the
        end of ``step``."""
        return {(os.path.realpath(c.co_filename), c.co_firstlineno)
                for c, first in self.entered.items() if first <= step}


class FailedOperations(RuntimeError):
    """A workload's repetition failed operations: its counts are not
    the workload's."""


def run_workloads(size: str) -> dict[str, list[int]]:
    """One repetition of each repo-benchmark workload at ``size``
    (``"smoke"`` or ``"full"``, seed 1, ``TraceRecorder`` attached);
    returns each one's scheduling counts (the fourth table's rows,
    :data:`SCHEDULING`), summed over its stages.  A repetition with a
    failed operation raises :class:`FailedOperations`."""
    from benchmarks.e2e import inputs, spec, workloads
    from benchmarks.e2e.tracing import RecorderTracer

    counts: dict[str, list[int]] = {}
    for name, cls in workloads.WORKLOAD_CLASSES.items():
        const = spec.WORKLOADS[name][size]
        workload = cls(const, inputs.make_inputs(name, SEED, const))
        rep = workload.build(RecorderTracer().observe)
        for stage in rep.stages:
            stage.drive()
        outcome = workload.check(rep)
        if outcome.failed:
            raise FailedOperations(
                f"{name} ({size}): {outcome.failed} of {outcome.ops} "
                f"operations failed")
        counts[name] = [sum(count(stage) for stage in rep.stages)
                        for count in SCHEDULING.values()]
    return counts


def run_experiments_and_workloads() -> dict[str, list[int]]:
    """Step 1's run; returns the smoke-size workloads' counts."""
    from benchmarks import run

    run.collect()
    return run_workloads("smoke")


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


def monitor_hooks() -> set[str]:
    """The ``on_*`` names a monitor class of ``MONITOR_PACKAGES``
    defines or assigns."""
    hooks = set()
    for package in MONITOR_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if not isinstance(node, ast.ClassDef):
                    continue
                for item in node.body:
                    names = ([item.name] if isinstance(item, ast.FunctionDef)
                             else [t.id for t in getattr(item, "targets", ())
                                   if isinstance(t, ast.Name)])
                    hooks.update(n for n in names if n.startswith("on_"))
    return hooks


def _names(node) -> set[str]:
    return {ast.unparse(n) for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _guard(module: str, receiver: str, chain: list) -> Guard | None:
    """The guard of a call on ``receiver`` whose ancestors, innermost
    first, are ``chain`` (pairs of a node and its child on the way)."""
    for node, child in chain:
        if isinstance(node, ast.If) and child in node.body \
                and receiver in _names(node.test):
            return _guard_of(module, node, exits=False)
        block = next((b for b in (getattr(node, field, None) for field
                                  in ("body", "orelse", "finalbody"))
                      if isinstance(b, list) and child in b), None)
        for stmt in reversed(block[:block.index(child)] if block else []):
            if isinstance(stmt, ast.If) and ast.unparse(stmt.test) in (
                    f"{receiver} is None", f"not {receiver}") \
                    and isinstance(stmt.body[-1], (ast.Return, ast.Raise)):
                return _guard_of(module, stmt, exits=True)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return None
    return None


def _guard_of(module: str, node: ast.If, exits: bool) -> Guard | None:
    if node.body[0].lineno <= node.test.end_lineno:
        return None     # a one-line guard: no line event tells its branch
    return Guard((module, node.lineno), node.test.end_lineno,
                 (node.body[0].lineno, node.body[-1].end_lineno), exits)


def hook_sites(module: str, path: Path, hooks: set[str]) -> list[HookSite]:
    """Every call of a monitor hook in one file, with its guard."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parent: dict = {}
    qualname: dict = {tree: ""}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
            named = isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef))
            qualname[child] = (f"{qualname[node]}.{node.name}".lstrip(".")
                               if named else qualname[node])
    sites = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in hooks):
            continue
        chain, child = [], node
        while child in parent:
            chain.append((parent[child], child))
            child = parent[child]
        sites.append(HookSite(module, node.lineno, node.func.attr,
                              qualname[node],
                              _guard(module, ast.unparse(node.func.value),
                                     chain)))
    return sorted(sites)


def cost_constants(module: str, path: Path, namespace) -> list[Constant]:
    """The non-zero cost constants one module defines: public names it
    assigns a float, and the float fields written in the call that
    builds a module-level dataclass instance."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
        else:
            continue
        if not isinstance(target, ast.Name) or target.id.startswith("_"):
            continue
        value = getattr(namespace, target.id)
        if isinstance(value, float):
            if value:
                found.append(Constant(module, target.id, value, namespace))
        elif (dataclasses.is_dataclass(value) and not isinstance(value, type)
              and isinstance(node.value, ast.Call)):
            init = [f.name for f in dataclasses.fields(value) if f.init]
            for name in (init[:len(node.value.args)]
                         + [k.arg for k in node.value.keywords]):
                field = getattr(value, name)
                if isinstance(field, float) and field:
                    found.append(Constant(module, f"{target.id}.{name}",
                                          field, value))
    return found


@contextlib.contextmanager
def scaled(constant: Constant):
    """``constant`` times :data:`SCALE` for the block: the instance
    field, or the module name in its module and in every loaded module
    that imported the same object under the same name."""
    new = constant.value * SCALE
    if isinstance(constant.owner, types.ModuleType):
        holders = [constant.owner] + [
            m for m in list(sys.modules.values())
            if m is not constant.owner
            and getattr(m, "__dict__", {}).get(constant.name)
            is constant.value]
        for holder in holders:
            setattr(holder, constant.name, new)
        try:
            yield
        finally:
            for holder in holders:
                setattr(holder, constant.name, constant.value)
    else:
        field = constant.name.split(".", 1)[1]
        object.__setattr__(constant.owner, field, new)
        try:
            yield
        finally:
            object.__setattr__(constant.owner, field, constant.value)


def _moves(constant: Constant, base: list[dict], new: list[dict]
           ) -> ConstantRow:
    moved, relative, ulps = [], 0.0, 0.0
    for before, after in zip(base, new):
        changed = False
        for (_x, old), (_x2, value) in zip(before["points"], after["points"]):
            if value != old:
                changed = True
                relative = max(relative, abs(value - old) / abs(old)
                               if old else math.inf)
                ulps = max(ulps, abs(value - old) / math.ulp(old))
        if changed:
            moved.append(before["name"])
    return ConstantRow(constant, tuple(moved), relative, ulps)


def sweep(constants: list[Constant], collect: Callable[[], list]
          ) -> tuple[list[ConstantRow], int, bool]:
    """One row per constant, the number of series, and whether
    ``collect()`` after the sweep gives the first run's series bit for
    bit."""
    base = [result.to_json() for result in collect()]
    rows = []
    for constant in constants:
        with scaled(constant):
            rows.append(_moves(constant, base,
                               [result.to_json() for result in collect()]))
    return rows, len(base), [result.to_json() for result in collect()] == base


def census():
    """The tables' rows (:func:`line_rows`, :func:`option_rows`,
    :func:`hook_rows`, the workloads' scheduling at smoke and at full
    size, then the constant sweep's rows and whether the run repeated
    after it)."""
    modules = library_modules()
    hooks = monitor_hooks()
    sites = [site for module, path in modules.items()
             if module.split("/")[0] not in MONITOR_PACKAGES
             for site in hook_sites(module, path, hooks)]
    recorder = Recorder()
    recorder.watch_guards(modules, sites)
    with recorder.profiling(1):
        # imported here, as the run would, so import-time calls count
        functions = {module: module_functions(_import(module))
                     for module in modules}
        recorder.watch(f for funcs in functions.values() for f in funcs)
        scheduling = run_experiments_and_workloads()
    with recorder.profiling(2):
        run_examples()
    full = run_workloads("full")
    from benchmarks import run
    constants = [constant for module, path in modules.items()
                 for constant in cost_constants(module, path,
                                                _import(module))]
    return (line_rows(recorder, modules), option_rows(recorder, functions),
            hook_rows(recorder, sites), scheduling, full,
            sweep(constants, run.collect))


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


def hook_rows(recorder: Recorder, sites) -> dict:
    """Site -> the first step that passed its guard with no monitor
    (``None`` if neither did, or if it has no guard)."""
    return {site: (recorder.unmonitored.get(site.guard.key)
                   if site.guard is not None else None)
            for site in sites}


def _pct(part: int, whole: int) -> str:
    return f"{part} ({100 * part / whole:.0f} %)"


def _table(header: str, rows: dict[str, list[int]]) -> str:
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
    return "".join(out)


def render_lines(lines: dict[str, list[int]]) -> tuple[str, str]:
    """The per-package table, and the per-module one."""
    out = ["| module | function lines | never entered "
           "| … with examples |\n|---|---|---|---|\n"]
    for module, (count, never, rest) in sorted(
            lines.items(), key=lambda kv: (-kv[1][1], kv[0])):
        if never:
            out.append(f"| `{module}` | {count} | {never} | {rest} |\n")
    return _table("function lines | never entered", lines), "".join(out)


def render_options(options: dict) -> tuple[str, str]:
    """The per-package table, and the never-varied parameters."""
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
    out = ["| module | function | parameters |\n|---|---|---|\n"]
    for (module, qualname, called), names in never.items():
        mark = "" if called else " (never called)"
        params = ", ".join(f"`{n}`" for n in names)
        out.append(f"| `{module}` | `{qualname}`{mark} | {params} |\n")
    return (_table("defaulted parameters | never varied", counts),
            "".join(out))


def render_hooks(hooks: dict) -> tuple[str, bool]:
    """The hook table, and whether every site is guarded and reached
    with no monitor, by the census or by its named tier-1 test."""
    counts: dict[str, list[int]] = {}
    missed = []
    for site, step in hooks.items():
        row = counts.setdefault(site.module, [0, 0, 0])
        row[0] += 1
        row[1] += step is None or step > 1
        row[2] += step is None
        if step is None:
            missed.append(site)
    out = [_table("hook sites | never passed unmonitored", counts)]
    out.append("\nHook sites the census never passes unmonitored:\n\n"
               "| site | hook | guard | tier-1 test |\n|---|---|---|---|\n")
    ok = True
    for site in missed:
        test = TIER1_HOOK_TESTS.get((site.module, site.function, site.hook))
        guard = ("**none**" if site.guard is None
                 else f"line {site.guard.key[1]}"
                 + (" (early exit)" if site.guard.exits else ""))
        ok &= site.guard is not None and test is not None
        out.append(f"| `{site.module}:{site.line}` (`{site.function}`) "
                   f"| `{site.hook}` | {guard} "
                   f"| {f'`{test}`' if test else '**none**'} |\n")
    return "".join(out), ok


def render_scheduling(scheduling: dict[str, list[int]]) -> str:
    out = ["| workload | " + " | ".join(SCHEDULING) + " |\n"
           + "|---" * (len(SCHEDULING) + 1) + "|\n"]
    for name, row in scheduling.items():
        out.append(f"| `{name}` | " + " | ".join(map(str, row)) + " |\n")
    return "".join(out)


def _series_cell(moved: tuple[str, ...], total: int) -> str:
    """The moved series, grouped by their first two name parts."""
    if not moved:
        return "none"
    if len(moved) == total:
        return f"all {total}"
    groups: dict[str, list[str]] = {}
    for name in moved:
        head, _, tail = name.partition(".")
        mid, _, rest = tail.partition(".")
        groups.setdefault(f"{head}.{mid}", []).append(rest)
    cells = [f"`{head}`" if rests == [""] else
             f"`{head}.{rests[0]}`" if len(rests) == 1 else
             f"`{head}.{{{','.join(rests)}}}`"
             for head, rests in groups.items()]
    return f"{len(moved)}: " + ", ".join(cells)


def render_constants(rows: list[ConstantRow], total: int, repeats: bool,
                     verdicts: dict) -> tuple[str, bool]:
    """The sweep's table, and whether every constant has a verdict in
    ``verdicts``, every verdict a constant, and the run repeated after
    the sweep."""
    out = ["| constant | value | paper anchor | series moved "
           "| largest move | verdict |\n|---|---|---|---|---|---|\n"]
    ok = repeats
    for row in rows:
        c = row.constant
        verdict = verdicts.get((c.module, c.name))
        ok &= verdict is not None
        anchor, reason = verdict or ("**none**", "**none**")
        move = ("—" if not row.moved else
                f"last bit ({row.ulps:.0f} ulp)"
                if row.ulps <= LAST_BIT_ULPS else f"{row.relative:.1e}")
        out.append(f"| `{c.module}` `{c.name}` | {c.value:g} | {anchor} "
                   f"| {_series_cell(row.moved, total)} | {move} "
                   f"| {reason} |\n")
    named = {(row.constant.module, row.constant.name) for row in rows}
    for module, name in sorted(set(verdicts) - named):
        ok = False
        out.append(f"\nA verdict names no constant: `{module}` `{name}`\n")
    if not repeats:
        out.append("\n`collect()` after the sweep differs from its first "
                   "run: a constant was left scaled\n")
    return "".join(out), ok


def write_documents(documents: dict[Path, dict[str, str]]) -> None:
    """Re-render each document's generated blocks; none is written
    unless every one renders."""
    texts = {path: render_blocks(path.read_text(encoding="utf-8"), blocks,
                                 path.name)
             for path, blocks in documents.items()}
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")


def main() -> int:
    try:
        lines, options, hooks, scheduling, full, constants = census()
    except FailedOperations as exc:
        print(f"census: {exc}", file=sys.stderr)
        return 1
    line_table, module_table = render_lines(lines)
    option_table, never_varied = render_options(options)
    hook_table, hooks_ok = render_hooks(hooks)
    constant_table, constants_ok = render_constants(*constants,
                                                    CONSTANT_VERDICTS)
    smoke_table = render_scheduling(scheduling)
    full_table = render_scheduling(full)
    sys.stdout.write(
        line_table + "\nModules with never-entered lines:\n\n"
        + module_table + "\nDefaulted parameters:\n\n" + option_table
        + "\nParameters never varied, with the examples:\n\n"
        + never_varied + "\nMonitor hook sites, by whether a run passed "
        "their guard with no monitor:\n\n" + hook_table
        + f"\nScheduling, one smoke-size repetition per workload "
        f"(seed {SEED}):\n\n" + smoke_table
        + f"\nScheduling, one full-size repetition per workload "
        f"(seed {SEED}):\n\n" + full_table
        + f"\nCost constants, each scaled by {SCALE} alone "
        f"({constants[1]} series):\n\n" + constant_table)
    try:
        write_documents({
            DESIGN_PATH: {"constants": constant_table, "lines": line_table,
                          "options": option_table, "hooks": hook_table,
                          "census-a": smoke_table},
            PERFORMANCE_PATH: {"census-a-full": full_table}})
    except ValueError as exc:
        print(f"census: {exc}", file=sys.stderr)
        return 1
    return 0 if hooks_ok and constants_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
