"""Cooperative-kernel safety checkers (rule family ``ker-*``).

Everything under ``src/repro`` executes inside :class:`SimProcess`
bodies driven by the one-at-a-time cooperative kernel (or in kernel
callbacks).  A real blocking primitive there does not "just" block: it
parks the only runnable OS thread while the kernel believes the process
still holds the run token, desynchronising or deadlocking the whole
simulation.  Hence:

``ker-thread``
    Real :mod:`threading` primitives (Lock/Event/Condition/Thread/...).
    The kernel's own lock hand-off in ``sim/backends.py`` is the
    single registered exemption (see ``config.DEFAULT_FILE_ALLOW``).
``ker-sleep``
    ``time.sleep`` — use ``SimProcess.sleep`` (virtual time).
``ker-socket``
    Real :mod:`socket`/:mod:`select` I/O — use the simulated network
    stack (vlinks / the arbitration subsystems).
``ker-subprocess``
    :mod:`subprocess` / ``os.system`` / ``os.fork`` — the simulation
    cannot checkpoint or replay external processes.
``ker-block-deep``
    The interprocedural closure of the four rules above: a call site
    whose callee *transitively* reaches a real blocking primitive
    through the project call graph.  The direct rules flag the helper
    that wraps ``time.sleep``; this one flags every kernel-side call
    site of that helper, with the root primitive and the call chain in
    the message.  Facts are *sanitized* before propagation: a blocking
    use that is inline-suppressed or config-allowlisted at its own site
    (e.g. the kernel's lock hand-off) has been justified as safe
    and must not poison its callers.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import dataflow
from repro.analysis.base import (
    Checker,
    ModuleContext,
    ProjectChecker,
    register_checker,
    register_project_checker,
)
from repro.analysis.callgraph import CallGraph, enclosing_function, slice_for
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding

_THREAD_PRIMITIVES = {
    "threading." + n for n in (
        "Lock", "RLock", "Semaphore", "BoundedSemaphore", "Event",
        "Condition", "Barrier", "Thread", "Timer", "local",
    )
}

#: whole modules whose presence in simulated code is the finding
_BANNED_MODULES = {
    "socket": ("ker-socket",
               "real sockets block the cooperative kernel; use the "
               "simulated network stack (VLink / arbitration subsystems)"),
    "select": ("ker-socket",
               "real select() blocks the cooperative kernel; use the "
               "simulated I/O multiplexer"),
    "subprocess": ("ker-subprocess",
                   "external processes cannot be replayed by the "
                   "simulation kernel"),
}

_BANNED_CALLS = {
    "time.sleep": ("ker-sleep",
                   "time.sleep blocks the real thread; use "
                   "SimProcess.sleep (virtual time)"),
    "os.system": ("ker-subprocess",
                  "external processes cannot be replayed by the "
                  "simulation kernel"),
    "os.popen": ("ker-subprocess",
                 "external processes cannot be replayed by the "
                 "simulation kernel"),
    "os.fork": ("ker-subprocess",
                "forking desynchronises the cooperative kernel"),
}


class _BlockingVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.imap = ctx.import_map
        self.findings: list[Finding] = []

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in _BANNED_MODULES:
                rule, why = _BANNED_MODULES[root]
                self.findings.append(self.ctx.finding(
                    rule, f"import of {root!r}: {why}", node))
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _BANNED_MODULES:
            rule, why = _BANNED_MODULES[root]
            self.findings.append(self.ctx.finding(
                rule, f"import from {root!r}: {why}", node))
        else:
            for alias in node.names:
                qual = f"{node.module}.{alias.name}" if node.module else ""
                if qual in _BANNED_CALLS:
                    rule, why = _BANNED_CALLS[qual]
                    self.findings.append(self.ctx.finding(
                        rule, f"importing {qual}: {why}", node))
                elif qual in _THREAD_PRIMITIVES:
                    self.findings.append(self.ctx.finding(
                        "ker-thread",
                        f"importing {qual}: real thread primitives "
                        f"deadlock the one-at-a-time kernel", node))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        qual = self.imap.qualify(node.func)
        if qual is not None:
            if qual in _BANNED_CALLS:
                rule, why = _BANNED_CALLS[qual]
                self.findings.append(self.ctx.finding(
                    rule, f"{qual}(): {why}", node))
            elif qual in _THREAD_PRIMITIVES:
                self.findings.append(self.ctx.finding(
                    "ker-thread",
                    f"{qual}() creates a real thread primitive, which "
                    f"deadlocks or desynchronises the one-at-a-time "
                    f"cooperative kernel; use repro.sim.sync instead",
                    node))
            elif qual.split(".")[0] in _BANNED_MODULES and "." in qual:
                rule, why = _BANNED_MODULES[qual.split(".")[0]]
                self.findings.append(self.ctx.finding(
                    rule, f"{qual}(): {why}", node))
        self.generic_visit(node)


@register_checker
class BlockingChecker(Checker):
    name = "kernel-safety"
    rules = {
        "ker-thread": "real threading primitive in simulated code",
        "ker-sleep": "time.sleep in simulated code",
        "ker-socket": "real socket/select I/O in simulated code",
        "ker-subprocess": "subprocess/os.system in simulated code",
    }

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        visitor = _BlockingVisitor(ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings


_CHAIN_CAP = 6


@register_project_checker
class DeepBlockingChecker(ProjectChecker):
    """Summary-based transitive closure of the ``ker-*`` rules."""

    name = "kernel-safety-deep"
    rules = {
        "ker-block-deep":
            "call site whose callee transitively reaches a real "
            "blocking primitive (sleep/socket/thread/subprocess)",
    }

    # -- fact pass -------------------------------------------------------
    def file_facts(self, ctx: ModuleContext,
                   config: AnalysisConfig) -> dict:
        """Direct blocking facts per function, already sanitized:
        suppressed / allowlisted / disabled direct uses do not seed
        summaries (their justification covers their callers too)."""
        visitor = _BlockingVisitor(ctx)
        visitor.visit(ctx.tree)
        slice_ = slice_for(ctx)
        facts: dict[str, list] = {}
        for finding in visitor.findings:
            if finding.rule in config.disabled_rules:
                continue
            if ctx.suppressions.is_suppressed(finding.rule, finding.line):
                continue
            if config.is_allowed(ctx.path, finding.rule):
                continue
            fn = enclosing_function(slice_, finding.line)
            # "time.sleep(): ..." / "import of 'socket': ..." — keep the
            # leading token as the human-readable origin
            origin = finding.message.split(":", 1)[0]
            facts.setdefault(fn, []).append(
                {"rule": finding.rule, "origin": origin,
                 "site": f"{ctx.path}:{finding.line}"})
        return facts

    # -- interprocedural pass --------------------------------------------
    def project_check(self, facts: dict[str, dict], graph: CallGraph,
                      config: AnalysisConfig) -> Iterator[Finding]:
        direct: dict[str, list] = {}
        for blob in facts.values():
            for fn, entries in blob.items():
                direct.setdefault(fn, []).extend(entries)

        def initial(node: str) -> dict:
            summary: dict[str, dict] = {}
            for entry in direct.get(node, ()):
                summary.setdefault(entry["rule"], {
                    "origin": entry["origin"], "site": entry["site"],
                    "chain": ()})
            return summary

        def transfer(node: str, summaries: dict) -> dict:
            summary = initial(node)
            for _site, callee in graph.callees(node):
                for rule, entry in summaries.get(callee, {}).items():
                    if rule in summary:
                        continue
                    chain = (callee,) + tuple(entry["chain"])
                    summary[rule] = {"origin": entry["origin"],
                                     "site": entry["site"],
                                     "chain": chain[:_CHAIN_CAP]}
            return summary

        adjacency = graph.adjacency()
        summaries = dataflow.solve(graph.nodes(), adjacency,
                                   initial, transfer)

        for caller in sorted(graph.edges):
            for site, callee in graph.callees(caller):
                for rule in sorted(summaries.get(callee, {})):
                    entry = summaries[callee][rule]
                    chain = dataflow.reach_chain(
                        (callee,) + tuple(entry["chain"]))
                    yield Finding(
                        "ker-block-deep",
                        f"call reaches {entry['origin']} "
                        f"[{rule} at {entry['site']}] via {chain}; "
                        f"blocking primitives must not run on the "
                        f"cooperative kernel",
                        site.path, site.line, site.col,
                        source_line=site.text)
