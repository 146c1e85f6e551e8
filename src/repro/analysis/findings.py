"""Finding model for ``repro-lint``.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str                 # stable rule id, e.g. "det-wallclock"
    message: str
    path: str                 # project-relative, forward slashes
    line: int                 # 1-based; 0 for whole-file findings
    col: int = 0

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule}: {self.message}")

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)
