"""Zero-copy buffer sanitation (rule family ``buf-*``).

PR 5's wire path threads :class:`WireBuffer` segments — ``memoryview``s
that still alias the caller's arrays — from CDR through GIOP/ESIOP,
transports, MPI staging and GridCCM piece gathers.  The contract those
layers rely on is *publish-then-freeze*: once a buffer has been handed
somewhere by reference, the owner must not mutate it until the matching
delivery completes.  A violation corrupts in-flight messages in a way
no dynamic gate can reliably sample, because the scribble races the
simulated delivery.  Hence:

``buf-mutate-after-publish``
    A buffer is mutated (``+=``, slice-assign, ``extend``/``clear``/
    ``fill``/..., ``pack_into``) after flowing by reference into a
    publish API (``write_bulk``, ``WireBuffer(...)``, MPI ``Send`` /
    ``Isend`` staging, ``_append_segment``) in the same function.
``buf-escape-mutation``
    The interprocedural form: the mutation happens inside a callee the
    published buffer is passed to (directly or through aliases), found
    via per-function mutate/publish summaries over the call graph.

Both findings report the publish site and the mutation site.  Analysis
facts are a small serializable IR (publish / mutate / alias / call
events, nested blocks mirroring the statement structure), so the
``--changed`` cache can skip re-parsing unchanged files.  Conditional
blocks are interpreted with a non-propagating copy of the publish
state — a publish inside an ``if`` never poisons the fall-through
path — while *summaries* use may-semantics, preferring missed reports
over false positives locally but still catching conditional hazards
across calls.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis import dataflow
from repro.analysis.base import (
    ModuleContext,
    ProjectChecker,
    register_project_checker,
)
from repro.analysis.callgraph import (
    MODULE_BODY,
    CallGraph,
    slice_for,
)
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding

#: callables whose first data argument escapes by reference (the seeds;
#: wrappers around them are derived from summaries, not listed here).
#: Blocking round-trips (``Comm.Send``, ``orb.invoke``) are *not*
#: publishes for the caller's straight-line code: they return only once
#: the matching delivery completed, so the buffer is reusable — exactly
#: the WireBuffer validity discipline.  The hazard is the window a
#: reference outlives the publishing call.
_PUBLISH_APIS = {
    "write_bulk",        # CdrOutputStream: zero-copy bulk append
    "_append_segment",   # CdrOutputStream: raw gather-list append
    "WireBuffer",        # direct segment-list construction
    "Isend",             # MPI nonblocking: referenced until wait()
}

#: receiver methods that complete outstanding deliveries — every
#: published buffer becomes reusable again (MPI wait discipline)
_DELIVERY_COMPLETIONS = {"wait", "Wait", "waitall", "Waitall"}

#: method calls that mutate their receiver in place
_MUTATING_METHODS = {
    "append", "extend", "insert", "clear", "pop", "remove", "reverse",
    "sort", "frombytes", "fill", "put", "resize", "byteswap",
    "partition", "itemset",
}

#: free/function calls that mutate one of their arguments (by position)
_MUTATING_ARG_CALLS = {"pack_into": 1, "copyto": 0, "readinto": 0}

#: view-forming wrappers: publishing/aliasing the result aliases the arg
_VIEW_WRAPPERS = {"memoryview", "ascontiguousarray", "asarray",
                  "frombuffer"}


def _expr_key(node: ast.expr) -> str | None:
    """Stable key for a Name or dotted attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _unwrap_view(node: ast.expr) -> ast.expr:
    """Peel view-forming wrappers: ``memoryview(x).cast('B')`` -> x,
    ``x[a:b]`` -> x (numpy slices are views of the same memory)."""
    while True:
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name == "cast" and isinstance(func, ast.Attribute):
                node = func.value
                continue
            if name in _VIEW_WRAPPERS and node.args:
                node = node.args[0]
                continue
            return node
        if isinstance(node, ast.Subscript):
            node = node.value
            continue
        return node


def _calls_in(stmt: ast.stmt):
    """Call nodes in the statement's own expressions (compound-statement
    headers included, nested blocks and lambdas excluded)."""
    stack: list[ast.AST] = [stmt]
    while stack:
        node = stack.pop()
        if node is not stmt and isinstance(node, (ast.stmt, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class _IrBuilder:
    """Reduce one module to per-function event IR."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.imap = ctx.import_map
        slice_ = slice_for(ctx)
        self.module = slice_.module
        self.functions: dict[str, dict] = {}
        self._fn_stack: list[str] = []
        self._cls_stack: list[str] = []

    def run(self, tree: ast.Module) -> dict[str, dict]:
        body = self._build_block(tree.body)
        self.functions[f"{self.module}.{MODULE_BODY}"] = {
            "path": self.ctx.path, "params": [], "body": body}
        return self.functions

    # -- structure -------------------------------------------------------
    def _qual_here(self, name: str) -> str:
        if self._fn_stack:
            return f"{self._fn_stack[-1]}.{name}"
        if self._cls_stack:
            return f"{self._cls_stack[-1]}.{name}"
        return f"{self.module}.{name}"

    def _build_block(self, body: list[ast.stmt]) -> list:
        steps: list = []
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._build_function(stmt)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._cls_stack.append(self._qual_here(stmt.name))
                self._build_block(stmt.body)
                self._cls_stack.pop()
                continue
            steps.extend(self._statement_events(stmt))
            nested = self._nested_blocks(stmt)
            if nested:
                steps.append(["blocks",
                              [self._build_block(b) for b in nested]])
        return steps

    def _build_function(self, fn) -> None:
        qual = self._qual_here(fn.name)
        self._fn_stack.append(qual)
        body = self._build_block(fn.body)
        self._fn_stack.pop()
        params = [a.arg for a in (fn.args.posonlyargs + fn.args.args)]
        self.functions[qual] = {"path": self.ctx.path,
                                "params": params, "body": body}

    @staticmethod
    def _nested_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
        blocks: list[list[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            nested = getattr(stmt, attr, None)
            if isinstance(nested, list) and nested and \
                    isinstance(nested[0], ast.stmt):
                blocks.append(nested)
        for handler in getattr(stmt, "handlers", []) or []:
            blocks.append(handler.body)
        return blocks

    # -- events ----------------------------------------------------------
    def _statement_events(self, stmt: ast.stmt) -> list:
        events: list = []
        for call in _calls_in(stmt):
            events.extend(self._call_events(call))
        events.extend(self._binding_events(stmt))
        return events

    def _call_events(self, call: ast.Call) -> list:
        events: list = []
        func = call.func
        attr_form = isinstance(func, ast.Attribute)
        name = func.attr if attr_form else (
            func.id if isinstance(func, ast.Name) else None)
        qual = self.imap.qualify(func)
        if qual is not None:
            name = qual.rsplit(".", 1)[-1]
        line = call.lineno
        text = self.ctx.line_text(line)

        if name in _PUBLISH_APIS:
            for target in self._published_args(call):
                events.append(["pub", target, line, text, f"{name}()"])
        if name in _MUTATING_ARG_CALLS:
            pos = _MUTATING_ARG_CALLS[name]
            if pos < len(call.args):
                key = _expr_key(_unwrap_view(call.args[pos]))
                if key is not None:
                    events.append(["mut", key, line, text,
                                   f"{name}()"])
        if attr_form and name in _DELIVERY_COMPLETIONS:
            events.append(["clear"])
            return events
        if attr_form and name in _MUTATING_METHODS:
            key = _expr_key(func.value)
            if key is not None:
                events.append(["mut", key, line, text, f".{name}()"])
                return events  # a list method call is not a helper call

        # generic call: argument vars recorded for summary-based effects
        argmap: dict[str, str] = {}
        for pos, arg in enumerate(call.args):
            key = _expr_key(_unwrap_view(arg))
            if key is not None:
                argmap[str(pos)] = key
        if argmap:
            events.append(["call", line, call.col_offset, argmap, text,
                           "attr" if attr_form else "name"])
        return events

    def _published_args(self, call: ast.Call) -> list[str]:
        """Keys escaping by reference through a publish-API call."""
        out: list[str] = []
        for arg in call.args[:1] if call.args else []:
            if isinstance(arg, (ast.List, ast.Tuple)):
                for elt in arg.elts:
                    key = _expr_key(_unwrap_view(elt))
                    if key is not None:
                        out.append(key)
            else:
                key = _expr_key(_unwrap_view(arg))
                if key is not None:
                    out.append(key)
        return out

    def _binding_events(self, stmt: ast.stmt) -> list:
        events: list = []
        if isinstance(stmt, ast.AugAssign):
            key = _expr_key(stmt.target) or _expr_key(
                stmt.target.value
                if isinstance(stmt.target, ast.Subscript) else stmt.target)
            if key is not None:
                op = type(stmt.op).__name__
                events.append(["mut", key, stmt.lineno,
                               self.ctx.line_text(stmt.lineno),
                               f"augmented assignment ({op})"])
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Subscript):
                    key = _expr_key(target.value)
                    if key is not None:
                        events.append(
                            ["mut", key, stmt.lineno,
                             self.ctx.line_text(stmt.lineno),
                             "slice assignment"])
                elif isinstance(target, ast.Name) and value is not None:
                    src = _expr_key(_unwrap_view(value))
                    if src is not None and src != target.id:
                        events.append(["alias", target.id, src])
                    else:
                        events.append(["kill", target.id])
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    key = _expr_key(target.value)
                    if key is not None:
                        events.append(
                            ["mut", key, stmt.lineno,
                             self.ctx.line_text(stmt.lineno),
                             "del item"])
                elif isinstance(target, ast.Name):
                    events.append(["kill", target.id])
        elif isinstance(stmt, ast.For):
            if isinstance(stmt.target, ast.Name):
                events.append(["kill", stmt.target.id])
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    events.append(["kill", item.optional_vars.id])
        return events


class _Interp:
    """Interpret one function's IR under the current summaries."""

    def __init__(self, qual: str, ir: dict, graph: CallGraph,
                 summaries: dict[str, dict],
                 report: list[Finding] | None):
        self.qual = qual
        self.ir = ir
        self.graph = graph
        self.summaries = summaries
        self.report = report
        self.params = {name: i for i, name in enumerate(ir["params"])}
        self.pub_params: set[int] = set()
        self.mut_params: set[int] = set()

    def run(self) -> tuple[set[int], set[int]]:
        self._walk(self.ir["body"], {}, {})
        return self.pub_params, self.mut_params

    # alias resolution: key -> root key
    @staticmethod
    def _find(alias: dict[str, str], key: str) -> str:
        seen = set()
        while key in alias and key not in seen:
            seen.add(key)
            key = alias[key]
        return key

    def _mark_param(self, root: str, kind: str) -> None:
        pos = self.params.get(root)
        if pos is None and "." in root:  # self.attr roots never params
            return
        if pos is not None:
            (self.pub_params if kind == "pub"
             else self.mut_params).add(pos)

    def _walk(self, steps: list, state: dict, alias: dict) -> None:
        for step in steps:
            kind = step[0]
            if kind == "pub":
                _, var, line, text, via = step
                root = self._find(alias, var)
                state[root] = (line, text, via)
                self._mark_param(root, "pub")
            elif kind == "mut":
                _, var, line, text, how = step
                root = self._find(alias, var)
                self._mark_param(root, "mut")
                pub = state.get(root)
                if pub is not None and self.report is not None:
                    self.report.append(Finding(
                        "buf-mutate-after-publish",
                        f"{var!r} is mutated ({how}) after being "
                        f"published by reference via {pub[2]} at line "
                        f"{pub[0]}; a zero-copy payload must stay "
                        f"frozen until the matching delivery completes",
                        self.ir["path"], line, source_line=text))
            elif kind == "alias":
                _, dst, src = step
                alias.pop(dst, None)
                state.pop(dst, None)
                alias[dst] = self._find(alias, src)
            elif kind == "kill":
                _, var = step
                alias.pop(var, None)
                state.pop(var, None)
            elif kind == "clear":
                state.clear()  # wait(): outstanding deliveries done
            elif kind == "call":
                self._apply_call(step, state, alias)
            elif kind == "blocks":
                for block in step[1]:
                    self._walk(block, dict(state), dict(alias))

    def _apply_call(self, step: list, state: dict, alias: dict) -> None:
        _, line, col, argmap, text, form = step
        callee = self.graph.callee_at(self.ir["path"], line, col)
        if callee is None:
            return
        summary = self.summaries.get(callee)
        if summary is None:
            return
        info = self.graph.functions.get(callee)
        offset = 1 if (info is not None and info.cls is not None
                       and (form == "attr" or info.name == "__init__")) \
            else 0
        for pos_str, var in argmap.items():
            pos = int(pos_str) + offset
            root = self._find(alias, var)
            if pos in summary["mut"]:
                self._mark_param(root, "mut")
                pub = state.get(root)
                if pub is not None and self.report is not None:
                    self.report.append(Finding(
                        "buf-escape-mutation",
                        f"{var!r} was published by reference via "
                        f"{pub[2]} at line {pub[0]} and is then passed "
                        f"to {callee}(), which mutates that argument; "
                        f"the callee scribbles on an in-flight "
                        f"zero-copy payload",
                        self.ir["path"], line, col,
                        source_line=text))
            if pos in summary["pub"]:
                state[root] = (line, text, f"{callee}()")
                self._mark_param(root, "pub")


@register_project_checker
class BufferSanChecker(ProjectChecker):
    """Buffer-escape / mutation-after-publish for zero-copy payloads."""

    name = "buffer-san"
    rules = {
        "buf-mutate-after-publish":
            "buffer mutated after escaping by reference into the "
            "zero-copy wire path",
        "buf-escape-mutation":
            "published buffer passed to a callee that mutates it "
            "(interprocedural)",
    }

    def file_facts(self, ctx: ModuleContext,
                   config: AnalysisConfig) -> dict:
        return _IrBuilder(ctx).run(ctx.tree)

    def project_check(self, facts: dict[str, dict], graph: CallGraph,
                      config: AnalysisConfig) -> Iterator[Finding]:
        ir_by_fn: dict[str, dict] = {}
        for blob in facts.values():
            ir_by_fn.update(blob)

        def initial(node: str) -> dict:
            return {"pub": set(), "mut": set()}

        def transfer(node: str, summaries: dict) -> dict:
            ir = ir_by_fn.get(node)
            if ir is None:
                return summaries.get(node) or initial(node)
            pubs, muts = _Interp(node, ir, graph, summaries, None).run()
            return {"pub": pubs, "mut": muts}

        summaries = dataflow.solve(
            list(ir_by_fn), graph.adjacency(), initial, transfer)

        report: list[Finding] = []
        for qual in sorted(ir_by_fn):
            _Interp(qual, ir_by_fn[qual], graph, summaries,
                    report).run()
        yield from report
