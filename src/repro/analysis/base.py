"""Checker model for ``repro-lint``.

A checker is a class with a ``rules`` table and a ``check(ctx, config)``
method yielding :class:`~repro.analysis.findings.Finding` objects for
one file.  The engine runs the classes listed in
:data:`repro.analysis.engine.CHECKERS`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding
from repro.analysis.imports import ImportMap


@dataclass
class ModuleContext:
    """Everything a checker may want to know about one source file."""

    path: str                       # project-relative, forward slashes
    tree: ast.AST
    module: str | None = None       # dotted name for files under src/
    is_package: bool = False        # True for __init__.py
    _import_map: ImportMap | None = None

    @property
    def import_map(self) -> ImportMap:
        if self._import_map is None:
            self._import_map = ImportMap.build(
                self.tree, self.module, self.is_package)
        return self._import_map

    def finding(self, rule: str, message: str, node: ast.AST | None = None,
                line: int = 0, col: int = 0) -> Finding:
        if node is not None:
            line = getattr(node, "lineno", line)
            col = getattr(node, "col_offset", col)
        return Finding(rule, message, self.path, line, col)


class Checker:
    """Base class: one family of rules over one file at a time."""

    #: short family name, e.g. "determinism"
    name: str = "base"
    #: rule id -> one-line description (drives ``repro-lint --list-rules``)
    rules: dict[str, str] = {}

    def check(self, ctx: ModuleContext,
              config: AnalysisConfig) -> Iterator[Finding]:
        raise NotImplementedError
