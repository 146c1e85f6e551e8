"""Project-wide call graph for the interprocedural checkers.

Construction is two-phase:

* :func:`build_slice` extracts a :class:`FileSlice` from one module's
  AST — every function/method definition, the class table (with
  resolved base names), and every call site with its best local
  resolution.  This is the only phase that needs the AST.
* :meth:`CallGraph.from_slices` assembles slices into the project
  graph, finishing the resolutions a single file cannot do alone:
  ``self.m()`` through base classes defined elsewhere, constructor
  calls through imported class names, and a unique-method fallback for
  ``obj.m()`` when exactly one project class defines ``m``.

Resolution is deliberately syntactic (no type inference): a call edge
is added only when the target is near-certain, because every client
rule prefers a missed edge over a false-positive finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.base import ModuleContext

#: caller name used for statements executed at module import time
MODULE_BODY = "<module>"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition."""

    qual: str                 # module-qualified, e.g. repro.x.C.m
    name: str
    module: str
    path: str
    line: int
    params: tuple[str, ...]   # positional parameter names, incl. self
    cls: str | None = None    # qualified class name for methods
    end: int = 0              # last physical line of the definition
    #: dotted quals of project-resolvable decorators (factory calls
    #: resolve to the factory), so the graph can route calls of the
    #: decorated function into the decorator's wrapper closure
    decorators: tuple[str, ...] = ()


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function (or the module body)."""

    caller: str               # qualified caller function, or *.<module>
    path: str
    line: int
    col: int
    text: str                 # source line, for messages/fingerprints
    target: str | None = None  # locally resolved dotted target, if any
    attr: str | None = None    # method name for late (CHA) resolution
    self_cls: str | None = None  # class qual for self.m() calls


@dataclass
class FileSlice:
    """Everything the graph needs to know about one file."""

    module: str
    path: str
    functions: list[FunctionInfo] = field(default_factory=list)
    #: class qual -> {"bases": [dotted name...], "methods": {name: qual}}
    classes: dict[str, dict] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)


def slice_module_name(ctx: "ModuleContext") -> str:
    """Dotted module for graph purposes; files outside ``src/`` (test
    corpora, examples) get their stem so sibling imports still link."""
    if ctx.module:
        return ctx.module
    return PurePosixPath(ctx.path).stem


class _SliceVisitor(ast.NodeVisitor):
    def __init__(self, ctx: "ModuleContext", module: str):
        self.ctx = ctx
        self.module = module
        self.imap = ctx.import_map
        self.slice = FileSlice(module, ctx.path)
        self._fn_stack: list[str] = []      # qualified function names
        self._cls_stack: list[str] = []     # qualified class names
        #: bare name -> qual for defs visible in the current scope chain
        self._local_defs: list[dict[str, str]] = [{}]

    # -- scope helpers ---------------------------------------------------
    @property
    def _caller(self) -> str:
        if self._fn_stack:
            return self._fn_stack[-1]
        return f"{self.module}.{MODULE_BODY}"

    def _qual_here(self, name: str) -> str:
        if self._cls_stack and not self._fn_stack:
            return f"{self._cls_stack[-1]}.{name}"
        if self._fn_stack:
            return f"{self._fn_stack[-1]}.{name}"
        return f"{self.module}.{name}"

    def _preregister(self, body: list[ast.stmt]) -> None:
        """Bind this scope's immediate def/class names before walking
        the body — Python resolves names at call time, so mutually
        recursive functions reference each other forward."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self._local_defs[-1][stmt.name] = \
                    self._qual_here(stmt.name)

    # -- definitions -----------------------------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        self._preregister(node.body)
        self.generic_visit(node)
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = self._qual_here(node.name)
        bases: list[str] = []
        for base in node.bases:
            dotted = self.imap.qualify(base)
            if dotted is None and isinstance(base, ast.Name):
                # same-module base, or builtin we cannot see
                dotted = f"{self.module}.{base.id}"
            if dotted is not None:
                bases.append(dotted)
        self.slice.classes[qual] = {"bases": bases, "methods": {}}
        self._local_defs[-1][node.name] = qual
        self._cls_stack.append(qual)
        self._local_defs.append({})
        self._preregister(node.body)
        for child in node.body:
            self.visit(child)
        self._local_defs.pop()
        self._cls_stack.pop()

    def _resolve_decorator(self, deco: ast.expr) -> str | None:
        """Best dotted name for a decorator expression; factory calls
        (``@_collective("bcast")``) resolve to the factory itself."""
        expr = deco.func if isinstance(deco, ast.Call) else deco
        qual = self.imap.qualify(expr)
        if qual is not None:
            return qual
        if isinstance(expr, ast.Name):
            for scope in reversed(self._local_defs):
                if expr.id in scope:
                    return scope[expr.id]
        return None

    def _visit_func(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                    ) -> None:
        qual = self._qual_here(node.name)
        in_class = bool(self._cls_stack) and not self._fn_stack
        params = tuple(a.arg for a in (node.args.posonlyargs
                                       + node.args.args))
        decorators = tuple(
            d for d in map(self._resolve_decorator, node.decorator_list)
            if d is not None)
        self.slice.functions.append(FunctionInfo(
            qual, node.name, self.module, self.ctx.path, node.lineno,
            params, self._cls_stack[-1] if in_class else None,
            node.end_lineno or node.lineno, decorators))
        if in_class:
            self.slice.classes[self._cls_stack[-1]]["methods"][
                node.name] = qual
        # decoration executes in the enclosing scope, not inside the
        # decorated function — visit it there so decorator-expression
        # calls are not mis-attributed to the function body
        for deco in node.decorator_list:
            self.visit(deco)
        self._local_defs[-1][node.name] = qual
        self._fn_stack.append(qual)
        self._local_defs.append({})
        self._preregister(node.body)
        for child in node.body:
            self.visit(child)
        self._local_defs.pop()
        self._fn_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    # -- call sites ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        target: str | None = None
        attr: str | None = None
        self_cls: str | None = None
        func = node.func
        qual = self.imap.qualify(func)
        if qual is not None:
            target = qual
        elif isinstance(func, ast.Name):
            for scope in reversed(self._local_defs):
                if func.id in scope:
                    target = scope[func.id]
                    break
        elif isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                    and self._cls_stack):
                self_cls = self._cls_stack[-1]
                attr = func.attr
            else:
                attr = func.attr
        if target is not None or attr is not None:
            self.slice.calls.append(CallSite(
                self._caller, self.ctx.path, node.lineno,
                node.col_offset, self.ctx.line_text(node.lineno),
                target, attr, self_cls))
        self.generic_visit(node)


def build_slice(ctx: "ModuleContext") -> FileSlice:
    """Extract the call-graph slice for one parsed module."""
    assert ctx.tree is not None
    visitor = _SliceVisitor(ctx, slice_module_name(ctx))
    visitor.visit(ctx.tree)
    return visitor.slice


def slice_for(ctx: "ModuleContext") -> FileSlice:
    """Memoized :func:`build_slice` — the engine and every project
    checker's fact pass share one slice per parsed file."""
    cached = getattr(ctx, "_cg_slice", None)
    if cached is None:
        cached = build_slice(ctx)
        ctx._cg_slice = cached  # type: ignore[attr-defined]
    return cached


def enclosing_function(slice_: FileSlice, line: int) -> str:
    """Qualified name of the innermost function containing ``line``,
    or the module-body pseudo-function."""
    best: str | None = None
    best_span = None
    for fn in slice_.functions:
        if fn.line <= line <= (fn.end or fn.line):
            span = (fn.end or fn.line) - fn.line
            if best_span is None or span < best_span:
                best, best_span = fn.qual, span
    return best if best is not None \
        else f"{slice_.module}.{MODULE_BODY}"


class CallGraph:
    """The assembled project call graph."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, dict] = {}
        #: caller qual -> [(CallSite, callee qual)]
        self.edges: dict[str, list[tuple[CallSite, str]]] = {}
        #: (path, line, col) -> callee qual, for clients that recorded
        #: their own per-site facts
        self.site_index: dict[tuple[str, int, int], str] = {}
        #: method name -> [function quals], for unique-method fallback
        self._by_method: dict[str, list[str]] = {}

    # -- assembly --------------------------------------------------------
    @classmethod
    def from_slices(cls, slices: list[FileSlice]) -> "CallGraph":
        graph = cls()
        for sl in slices:
            for fn in sl.functions:
                graph.functions[fn.qual] = fn
                if fn.cls is not None and not fn.name.startswith("__"):
                    graph._by_method.setdefault(fn.name, []).append(
                        fn.qual)
            graph.classes.update(sl.classes)
        for sl in slices:
            for site in sl.calls:
                callee = graph._resolve(site)
                if callee is None:
                    continue
                graph.edges.setdefault(site.caller, []).append(
                    (site, callee))
                graph.site_index[(site.path, site.line, site.col)] = \
                    callee
        graph._add_decorator_edges()
        for sites in graph.edges.values():
            sites.sort(key=lambda e: (e[0].line, e[0].col, e[1]))
        return graph

    def _add_decorator_edges(self) -> None:
        """Calling a decorated function really runs the decorator's
        wrapper closure, so wrapper-side effects (blocking, monitor
        hooks) belong to every decorated callee: add
        ``f -> <each function nested under the decorator>`` for every
        project-resolvable decorator on ``f``.  The wrapper's own call
        back into ``f`` is deliberately *not* modelled — a shared
        wrapper would otherwise smear all decorated functions' facts
        into each other."""
        for fn in list(self.functions.values()):
            for deco in fn.decorators:
                target = self._resolve_dotted(deco)
                if target is None and deco in self.classes:
                    continue  # class decorator: no wrapper functions
                if target is None:
                    continue
                prefix = target + "."
                nested = sorted(q for q in self.functions
                                if q.startswith(prefix))
                for callee in nested:
                    site = CallSite(
                        fn.qual, fn.path, fn.line, 0,
                        f"@{deco.rsplit('.', 1)[-1]} on {fn.name}")
                    self.edges.setdefault(fn.qual, []).append(
                        (site, callee))

    def _resolve(self, site: CallSite) -> str | None:
        if site.target is not None:
            hit = self._resolve_dotted(site.target)
            if hit is not None:
                return hit
        if site.self_cls is not None and site.attr is not None:
            hit = self._method_on(site.self_cls, site.attr)
            if hit is not None:
                return hit
        if site.attr is not None:
            candidates = self._by_method.get(site.attr, ())
            if len(candidates) == 1:
                return candidates[0]
        return None

    def _resolve_dotted(self, dotted: str) -> str | None:
        if dotted in self.functions:
            return dotted
        if dotted in self.classes:  # constructor call
            return self._method_on(dotted, "__init__")
        # ClassName.method through an imported class name, or a
        # classmethod alternative constructor
        if "." in dotted:
            head, leaf = dotted.rsplit(".", 1)
            if head in self.classes:
                return self._method_on(head, leaf)
        return None

    def _method_on(self, cls_qual: str, name: str,
                   _seen: frozenset = frozenset()) -> str | None:
        """Resolve a method through the class and its project bases."""
        if cls_qual in _seen:
            return None
        info = self.classes.get(cls_qual)
        if info is None:
            return None
        hit = info["methods"].get(name)
        if hit is not None:
            return hit
        seen = _seen | {cls_qual}
        for base in info["bases"]:
            hit = self._method_on(base, name, seen)
            if hit is not None:
                return hit
        return None

    # -- queries ---------------------------------------------------------
    def callees(self, caller: str) -> list[tuple[CallSite, str]]:
        return self.edges.get(caller, [])

    def nodes(self) -> Iterator[str]:
        yield from self.functions
        for caller in self.edges:
            if caller not in self.functions:
                yield caller  # module bodies

    def adjacency(self) -> dict[str, list[str]]:
        """caller -> callee quals (deduplicated, deterministic order)."""
        adj: dict[str, list[str]] = {}
        for node in self.nodes():
            seen: dict[str, None] = {}
            for _site, callee in self.edges.get(node, ()):
                seen.setdefault(callee)
            adj[node] = list(seen)
        return adj

    def callee_at(self, path: str, line: int, col: int) -> str | None:
        return self.site_index.get((path, line, col))
