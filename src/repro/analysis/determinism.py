"""Determinism checkers (rule family ``det-*``).

The simulation kernel guarantees bit-exact reproducibility only if no
code injects real-world entropy or unordered iteration into the event
stream.  Four rules:

``det-wallclock``
    Reading the host clock (``time.time``, ``datetime.now``, ...).
    Simulated code must use the kernel's virtual clock.
``det-random``
    Module-level :mod:`random` functions — hidden global state that any
    import-order change reseeds.  Use a seeded ``random.Random``.
``det-entropy``
    OS entropy: ``os.urandom``, ``uuid.uuid1/uuid4``, :mod:`secrets`,
    ``random.SystemRandom``.
``det-set-order``
    Iterating a set (or materialising one into a sequence) where Python
    hash randomisation makes the order vary across runs.  Wrap the set
    in ``sorted(...)`` or keep an insertion-ordered ``dict`` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, ModuleContext
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding

#: dotted call targets that read the host clock
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: module-level random functions (shared hidden state)
_GLOBAL_RANDOM = {
    "random." + fn for fn in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "gammavariate", "lognormvariate", "paretovariate",
        "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
        "randbytes", "seed", "setstate", "getstate",
    )
}

#: OS-entropy sources that can never be reproduced
_ENTROPY = {
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
    "random.SystemRandom",
}
_ENTROPY_MODULES = {"secrets"}

#: consumers that materialise an iteration order (beyond plain ``for``)
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "iter", "enumerate", "reversed"}


def _is_set_display(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return True
    return False


class _Scope:
    """Names currently bound to unordered (set-typed) values."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.unordered: dict[str, bool] = {}

    def mark(self, name: str, unordered: bool) -> None:
        self.unordered[name] = unordered

    def is_unordered(self, name: str) -> bool:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.unordered:
                return scope.unordered[name]
            scope = scope.parent
        return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.imap = ctx.import_map
        self.findings: list[Finding] = []
        self.scope = _Scope()

    # -- scope management ---------------------------------------------------
    def _in_new_scope(self, node: ast.AST) -> None:
        outer, self.scope = self.scope, _Scope(self.scope)
        self.generic_visit(node)
        self.scope = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._in_new_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._in_new_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._in_new_scope(node)

    # -- tracking set-typed names ------------------------------------------
    def _expr_unordered(self, node: ast.expr) -> bool:
        if _is_set_display(node):
            return True
        if isinstance(node, ast.Name):
            return self.scope.is_unordered(node.id)
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            # set algebra: unordered if either operand is
            return (self._expr_unordered(node.left)
                    or self._expr_unordered(node.right))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("union", "intersection", "difference",
                                  "symmetric_difference", "copy"):
                return self._expr_unordered(node.func.value)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        unordered = self._expr_unordered(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.scope.mark(target.id, unordered)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            self.scope.mark(node.target.id, self._expr_unordered(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # ``s |= other`` keeps set-ness; anything else leaves it unchanged
        self.generic_visit(node)

    # -- rule det-set-order -------------------------------------------------
    def _flag_if_unordered(self, node: ast.expr, what: str) -> None:
        if self._expr_unordered(node):
            self.findings.append(self.ctx.finding(
                "det-set-order",
                f"{what} iterates a set in hash order, which varies "
                f"between runs; wrap it in sorted(...) or use an "
                f"insertion-ordered dict", node))

    def visit_For(self, node: ast.For) -> None:
        self._flag_if_unordered(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for gen in node.generators:
            self._flag_if_unordered(gen.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    # a set comprehension *produces* a set; consuming its generator in
    # arbitrary order is fine because the result is unordered anyway
    visit_SetComp = _visit_comprehension

    # -- call-based rules ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        qual = self.imap.qualify(node.func)
        if qual is not None:
            self._check_qualified(qual, node)
        if isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_SENSITIVE_CALLS \
                and len(node.args) == 1:
            self._flag_if_unordered(node.args[0],
                                    f"{node.func.id}(...)")
        if isinstance(node.func, ast.Attribute) and node.func.attr == "join" \
                and len(node.args) == 1:
            self._flag_if_unordered(node.args[0], "str.join(...)")
        self.generic_visit(node)

    def _check_qualified(self, qual: str, node: ast.Call) -> None:
        if qual in _WALLCLOCK:
            self.findings.append(self.ctx.finding(
                "det-wallclock",
                f"{qual}() reads the host clock; simulated code must use "
                f"the kernel's virtual clock (SimKernel.now)", node))
        elif qual in _GLOBAL_RANDOM:
            self.findings.append(self.ctx.finding(
                "det-random",
                f"{qual}() uses the process-global RNG; use a "
                f"random.Random(seed) instance owned by the simulation",
                node))
        elif qual in _ENTROPY:
            self.findings.append(self.ctx.finding(
                "det-entropy",
                f"{qual}() draws OS entropy and can never replay "
                f"identically; derive ids/seeds from simulation state",
                node))

    # every use of the secrets module is entropy, so the import itself
    # is the finding (wallclock/random rules fire at call sites instead)
    def _flag_entropy_module(self, name: str, node: ast.AST) -> None:
        if name.split(".")[0] in _ENTROPY_MODULES:
            self.findings.append(self.ctx.finding(
                "det-entropy",
                f"the {name.split('.')[0]} module draws OS entropy and "
                f"can never replay identically", node))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._flag_entropy_module(alias.name, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self._flag_entropy_module(node.module or "", node)
        self.generic_visit(node)


class DeterminismChecker(Checker):
    name = "determinism"
    rules = {
        "det-wallclock": "host clock read (time.time, datetime.now, ...)",
        "det-random": "process-global random module use",
        "det-entropy": "OS entropy (os.urandom, uuid4, secrets)",
        "det-set-order": "iteration order of a set leaks into results",
    }

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        visitor = _DeterminismVisitor(ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings
