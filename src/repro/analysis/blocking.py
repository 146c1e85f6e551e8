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

A real blocking call reached *through a helper* is not this family's:
tier-1 runs every simulated process under a guard (``tests/conftest.py``)
that raises on the same primitives on any thread holding a kernel's run
token, whatever the call chain.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, ModuleContext, register_checker
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

