"""Hot-path performance checkers (rule family ``perf-*``).

Everything under ``src/repro`` runs inside the simulation's event loop,
so an accidentally quadratic idiom is not a style nit — it multiplies
into every kernel event.  These rules catch the accumulation patterns
that have actually bitten this codebase:

``perf-list-pop0``
    ``some_list.pop(0)`` shifts every remaining element (O(n) per pop,
    O(n²) to drain).  Use :class:`collections.deque` and ``popleft()``.
``perf-bytes-concat``
    ``buf += chunk`` on a ``bytes`` value inside a loop reallocates and
    copies the whole buffer every iteration.  Accumulate into a
    ``bytearray`` or join a list of chunks once.
``perf-getvalue-loop``
    ``stream.getvalue()`` inside a loop: the join/copy of the whole
    stream runs once per iteration while the stream rarely changes.
    Hoist the call out of the loop (or cache the joined bytes, as
    :class:`repro.corba.cdr.CdrOutputStream` now does).
``perf-tobytes-hot``
    materialising copies on the wire path.  Inside the hot wire
    directories (``corba/``, ``padicotm/``, ``mpi/``, ``core/``) the
    zero-copy contract is that bulk payloads travel as
    :class:`~repro.corba.cdr.WireBuffer` segments / ndarray views and
    are joined at most once, at a deliberate materialisation point in
    ``cdr.py``.  The rule flags ``x.tobytes()``, ``bytes(mv)`` where
    ``mv`` is bound to a ``memoryview``, and ``getvalue()`` inside a
    loop — each silently degrades a referenced payload back into a
    copied one without showing up in ``wire.copied_bytes`` review.
    Outside the hot directories the rule stays silent (generic code may
    legitimately materialise).
``perf-route-in-loop``
    ``<obj>.route(src, dst, ...)`` inside a loop where the receiver and
    every argument are provably loop-invariant: the same path is
    re-resolved each iteration.  The fabric route cache makes repeats
    cheap, but hot loops should not pay even the cache hit (plus the
    per-call key tuple) — hoist the lookup (or the returned route) out
    of the loop.  Any argument that mentions a name rebound inside the
    loop, or an expression the checker cannot prove invariant (calls,
    comprehensions), keeps the rule silent.

Where a pattern is deliberate, fix the code or give the (file, rule)
pair a ``DEFAULT_FILE_ALLOW`` entry with its reason
(:mod:`repro.analysis.config`); none is needed today.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, ModuleContext
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding


def _is_pop0(node: ast.Call) -> bool:
    return (isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0
            and not isinstance(node.args[0].value, bool))


def _rebound_names(loop: ast.AST) -> set[str]:
    """Names rebound anywhere inside ``loop`` (targets, stores, dels,
    nested defs) — i.e. names that may change between iterations."""
    names: set[str] = set()
    for sub in ast.walk(loop):
        if isinstance(sub, ast.Name) \
                and isinstance(sub.ctx, (ast.Store, ast.Del)):
            names.add(sub.id)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            names.add(sub.name)
        elif isinstance(sub, ast.Import):
            names.update(a.asname or a.name.split(".")[0]
                         for a in sub.names)
        elif isinstance(sub, ast.ImportFrom):
            names.update(a.asname or a.name for a in sub.names)
    return names


#: directories (project-relative prefixes) under the zero-copy wire
#: contract; ``perf-tobytes-hot`` only fires here
HOT_WIRE_DIRS = (
    "src/repro/corba/",
    "src/repro/padicotm/",
    "src/repro/mpi/",
    "src/repro/core/",
)


class _Scope:
    """Names currently bound to immutable ``bytes`` / ``memoryview``."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent = parent
        self.is_bytes: dict[str, bool] = {}
        self.is_mview: dict[str, bool] = {}

    def mark(self, name: str, is_bytes: bool) -> None:
        self.is_bytes[name] = is_bytes

    def mark_mview(self, name: str, is_mview: bool) -> None:
        self.is_mview[name] = is_mview

    def lookup(self, name: str) -> bool:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.is_bytes:
                return scope.is_bytes[name]
            scope = scope.parent
        return False

    def lookup_mview(self, name: str) -> bool:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.is_mview:
                return scope.is_mview[name]
            scope = scope.parent
        return False


class _PerfVisitor(ast.NodeVisitor):
    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.findings: list[Finding] = []
        self.scope = _Scope()
        self._loop_depth = 0
        #: per enclosing loop, the names rebound inside it (loop targets
        #: and any store in the body) — the variant set for invariance
        self._loop_volatile: list[set[str]] = []
        self._hot = ctx.path.startswith(HOT_WIRE_DIRS)

    # -- scope management ---------------------------------------------------
    def _in_new_scope(self, node: ast.AST) -> None:
        # a function defined inside a loop runs elsewhere: its body gets
        # a fresh loop depth as well as a fresh name scope
        outer_scope, self.scope = self.scope, _Scope(self.scope)
        outer_depth, self._loop_depth = self._loop_depth, 0
        outer_volatile, self._loop_volatile = self._loop_volatile, []
        self.generic_visit(node)
        self.scope = outer_scope
        self._loop_depth = outer_depth
        self._loop_volatile = outer_volatile

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._in_new_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._in_new_scope(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._in_new_scope(node)

    # -- tracking bytes-typed names ----------------------------------------
    def _expr_bytes(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, bytes)
        if isinstance(node, ast.Name):
            return self.scope.lookup(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "bytes"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return (self._expr_bytes(node.left)
                    or self._expr_bytes(node.right))
        return False

    def _expr_mview(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return self.scope.lookup_mview(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id == "memoryview"
        if isinstance(node, ast.Subscript):
            # slicing a memoryview yields a memoryview
            return (isinstance(node.slice, ast.Slice)
                    and self._expr_mview(node.value))
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        is_bytes = self._expr_bytes(node.value)
        is_mview = self._expr_mview(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.scope.mark(target.id, is_bytes)
                self.scope.mark_mview(target.id, is_mview)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and isinstance(node.target, ast.Name):
            self.scope.mark(node.target.id, self._expr_bytes(node.value))
            self.scope.mark_mview(node.target.id,
                                  self._expr_mview(node.value))
        self.generic_visit(node)

    # -- loops --------------------------------------------------------------
    def _in_loop(self, node: ast.AST) -> None:
        self._loop_depth += 1
        self._loop_volatile.append(_rebound_names(node))
        self.generic_visit(node)
        self._loop_volatile.pop()
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._in_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._in_loop(node)

    # -- loop-invariance ----------------------------------------------------
    def _loop_invariant(self, node: ast.expr) -> bool:
        """Provably the same value on every iteration of the enclosing
        loops.  Conservative: anything not recognised is variant."""
        if isinstance(node, ast.Constant):
            return True
        if isinstance(node, ast.Name):
            return not any(node.id in vol for vol in self._loop_volatile)
        if isinstance(node, ast.Attribute):
            return self._loop_invariant(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return all(self._loop_invariant(e) for e in node.elts)
        if isinstance(node, ast.BinOp):
            return (self._loop_invariant(node.left)
                    and self._loop_invariant(node.right))
        if isinstance(node, ast.JoinedStr):
            return all(self._loop_invariant(v.value) if
                       isinstance(v, ast.FormattedValue) else True
                       for v in node.values)
        if isinstance(node, ast.Subscript):
            return (self._loop_invariant(node.value)
                    and not isinstance(node.slice, ast.Slice)
                    and self._loop_invariant(node.slice))
        return False

    # -- rules --------------------------------------------------------------
    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.Add) \
                and isinstance(node.target, ast.Name) \
                and self._loop_depth > 0 \
                and (self.scope.lookup(node.target.id)
                     or self._expr_bytes(node.value)):
            self.findings.append(self.ctx.finding(
                "perf-bytes-concat",
                f"{node.target.id} += ... concatenates immutable bytes "
                f"inside a loop, copying the whole buffer every "
                f"iteration (O(n²)); accumulate into a bytearray or "
                f"join a list of chunks once", node))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_pop0(node):
            self.findings.append(self.ctx.finding(
                "perf-list-pop0",
                "pop(0) shifts every remaining element (O(n) per call); "
                "use collections.deque and popleft()", node))
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "getvalue" \
                and not node.args and not node.keywords \
                and self._loop_depth > 0:
            # in the hot wire directories this is a zero-copy contract
            # violation, not merely a repeated-join inefficiency
            if self._hot:
                self.findings.append(self.ctx.finding(
                    "perf-tobytes-hot",
                    "getvalue() inside a loop on the wire path joins the "
                    "whole stream per iteration; forward the WireBuffer "
                    "by reference instead", node))
            self.findings.append(self.ctx.finding(
                "perf-getvalue-loop",
                "getvalue() inside a loop joins/copies the whole stream "
                "every iteration; hoist it out of the loop or cache the "
                "result", node))
        elif self._hot and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "tobytes" \
                and not node.args and not node.keywords:
            self.findings.append(self.ctx.finding(
                "perf-tobytes-hot",
                "tobytes() materialises a copy of the payload on the "
                "wire path; pass the ndarray/memoryview through "
                "write_bulk/WireBuffer by reference (and count any "
                "deliberate copy in wire.copied_bytes)", node))
        elif self._hot and isinstance(node.func, ast.Name) \
                and node.func.id == "bytes" \
                and len(node.args) == 1 and not node.keywords \
                and self._expr_mview(node.args[0]):
            self.findings.append(self.ctx.finding(
                "perf-tobytes-hot",
                "bytes(memoryview) materialises a copy of the payload "
                "on the wire path; keep the view and forward it by "
                "reference", node))
        elif isinstance(node.func, ast.Attribute) \
                and node.func.attr == "route" \
                and self._loop_depth > 0 \
                and len(node.args) >= 2 \
                and not any(isinstance(a, ast.Starred) for a in node.args) \
                and self._loop_invariant(node.func.value) \
                and all(self._loop_invariant(a) for a in node.args) \
                and all(self._loop_invariant(kw.value)
                        for kw in node.keywords if kw.arg is not None) \
                and not any(kw.arg is None for kw in node.keywords):
            self.findings.append(self.ctx.finding(
                "perf-route-in-loop",
                "route() re-resolves the same loop-invariant endpoints "
                "every iteration; hoist the lookup (or the returned "
                "route) out of the loop", node))
        self.generic_visit(node)


class PerfChecker(Checker):
    name = "performance"
    rules = {
        "perf-list-pop0": "list.pop(0): O(n) head removal",
        "perf-bytes-concat": "bytes += accumulation inside a loop",
        "perf-getvalue-loop": "stream.getvalue() re-joined inside a loop",
        "perf-tobytes-hot":
            "payload copy (tobytes/bytes(memoryview)/getvalue-in-loop) "
            "inside the zero-copy wire directories",
        "perf-route-in-loop":
            "route() with loop-invariant receiver and endpoints inside "
            "a loop",
    }

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        visitor = _PerfVisitor(ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings
