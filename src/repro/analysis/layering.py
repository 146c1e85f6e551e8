"""Architecture layering checker (rule family ``lay-*``).

Enforces the paper's layered stack as an import DAG (lowest first)::

    sim -> net -> padicotm.arbitration -> padicotm.abstraction
        -> padicotm.personality -> padicotm (facade) -> soap
        -> {corba, mpi} -> ccm -> core (GridCCM) -> deploy -> tools

A file may import its own layer and anything *below* it.  Importing
upward at module level is always an error (``lay-upward``): it would
make the runtime import graph cyclic and collapse the architecture the
way cross-layer shortcuts did in the middleware systems the paper
compares against.  Upward references inside ``if TYPE_CHECKING:``
blocks or function bodies (lazy imports) are real escape hatches the
codebase needs — but each one must be registered, with a justification,
in ``config.DEFAULT_LAYER_EXCEPTIONS``; an unregistered one is
``lay-escape``.  Files whose dotted name maps to no layer are skipped
(tests, examples — they sit above the whole stack by construction).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.base import Checker, ModuleContext
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.imports import resolve_from

_TOPLEVEL = "toplevel"
_TYPE_CHECKING = "type_checking"
_LAZY = "lazy"


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
        return True
    return False


def _collect_imports(tree: ast.AST):
    """Yield (node, imported module, context) for every import statement,
    where context records how the import is guarded."""

    def walk(node: ast.AST, context: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                yield from walk(child, _LAZY)
            elif isinstance(child, ast.If) and context == _TOPLEVEL \
                    and _is_type_checking_test(child.test):
                yield from walk(child, _TYPE_CHECKING)
            elif isinstance(child, ast.Import):
                for alias in child.names:
                    yield child, alias.name, context
            elif isinstance(child, ast.ImportFrom):
                yield child, child, context  # resolved later (needs ctx)
            else:
                yield from walk(child, context)

    yield from walk(tree, _TOPLEVEL)


class LayeringChecker(Checker):
    name = "layering"
    rules = {
        "lay-upward": "module-level import of a higher architectural layer",
        "lay-escape": "unregistered TYPE_CHECKING/lazy upward reference",
        "lay-unknown": "repro module not assigned to any layer",
    }

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        if ctx.module is None:
            return  # unlayered file (example, test): sits above the stack
        my_layer = config.layer_of(ctx.module)
        if my_layer is None:
            if ctx.module.startswith("repro.") and not ctx.is_package:
                yield ctx.finding(
                    "lay-unknown",
                    f"module {ctx.module!r} maps to no layer; add its "
                    f"package to the layer table in repro.analysis.config",
                    line=1)
            return
        my_rank, my_name = my_layer
        for node, target, context in _collect_imports(ctx.tree):
            if isinstance(target, ast.ImportFrom):
                imported = resolve_from(target, ctx.module, ctx.is_package)
            else:
                imported = target
            if imported is None or not imported.startswith("repro"):
                continue
            their_layer = config.layer_of(imported)
            if their_layer is None:
                if imported not in ("repro",) and imported != ctx.module:
                    yield ctx.finding(
                        "lay-unknown",
                        f"imported module {imported!r} maps to no layer; "
                        f"add it to the layer table in "
                        f"repro.analysis.config", node)
                continue
            their_rank, their_name = their_layer
            if their_rank <= my_rank:
                continue  # downward or same-layer: always fine
            if context == _TOPLEVEL:
                yield ctx.finding(
                    "lay-upward",
                    f"layer {my_name!r} imports {imported!r} from the "
                    f"higher layer {their_name!r} at module level; "
                    f"invert the dependency or move the shared piece "
                    f"down the stack", node)
            elif config.exception_for(ctx.path, imported) is None:
                yield ctx.finding(
                    "lay-escape",
                    f"{context.replace('_', '-')} upward reference from "
                    f"layer {my_name!r} to {imported!r} "
                    f"({their_name!r}) is not registered in "
                    f"DEFAULT_LAYER_EXCEPTIONS; register it with a "
                    f"justification or invert the dependency", node)
