"""Checker plugin model for ``repro-lint``.

A checker is a class with a ``rules`` table and a ``check(ctx, config)``
method yielding :class:`~repro.analysis.findings.Finding` objects for
one file.  Registration is decorator-based so new families plug in
without touching the engine::

    @register_checker
    class MyChecker(Checker):
        name = "my-family"
        rules = {"my-rule": "what it catches"}

        def check(self, ctx, config):
            ...
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.imports import ImportMap
from repro.analysis.suppress import Suppressions


@dataclass
class ModuleContext:
    """Everything a checker may want to know about one source file."""

    path: str                       # project-relative, forward slashes
    source: str
    tree: ast.AST | None            # None for non-Python files (.idl)
    module: str | None = None       # dotted name for files under src/
    is_package: bool = False        # True for __init__.py
    suppressions: Suppressions = field(default_factory=Suppressions)
    _import_map: ImportMap | None = None

    @property
    def import_map(self) -> ImportMap:
        if self._import_map is None:
            assert self.tree is not None
            self._import_map = ImportMap.build(
                self.tree, self.module, self.is_package)
        return self._import_map

    def finding(self, rule: str, message: str, node: ast.AST | None = None,
                line: int = 0, col: int = 0,
                severity: Severity = Severity.ERROR) -> Finding:
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", col)
        return Finding(rule, message, self.path, line, col, severity)


class Checker:
    """Base class: one family of rules over one file at a time."""

    #: short family name, e.g. "determinism"
    name: str = "base"
    #: rule id -> one-line description (drives ``repro-lint --list-rules``)
    rules: dict[str, str] = {}
    #: set to True for checkers that also understand non-Python sources
    handles_idl: bool = False

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def applicable(self, ctx: ModuleContext) -> bool:
        return ctx.tree is not None


_REGISTRY: list[type[Checker]] = []


def register_checker(cls: type[Checker]) -> type[Checker]:
    _REGISTRY.append(cls)
    return cls


def _load_builtin_families() -> None:
    # import for side effect: built-in families self-register
    from repro.analysis import (  # noqa: F401
        blocking,
        determinism,
        idllint,
        layering,
        perf,
    )


def all_checkers() -> list[type[Checker]]:
    """Registered per-file checker classes, in registration order."""
    _load_builtin_families()
    return list(_REGISTRY)


def all_rules() -> dict[str, str]:
    out: dict[str, str] = {}
    for cls in all_checkers():
        out.update(cls.rules)
    return out
