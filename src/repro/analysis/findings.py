"""Finding and severity model for ``repro-lint``.

A :class:`Finding` is one rule violation at one source location.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Severity(enum.IntEnum):
    """Ordered severity, for reports; the CLI exits 1 on any finding,
    whatever its severity."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error" in CLI output
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str                 # stable rule id, e.g. "det-wallclock"
    message: str
    path: str                 # project-relative, forward slashes
    line: int                 # 1-based; 0 for whole-file findings
    col: int = 0
    severity: Severity = Severity.ERROR

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.severity}: {self.message}")

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


def sort_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=Finding.sort_key)
