"""``repro-lint --stats``: where does lint wall time actually go?

The engine feeds one :class:`RunStats` per run: per-checker wall time
and finding counts per rule.  The CI lint step prints the report so a slow
rule is visible in the log instead of a mystery.

This module is the one place the analysis reads the host clock — lint
measures its *own* latency, which is tooling wall time, not simulated
time (the same reasoning that keeps ``benchmarks/`` outside the linted
roots).  Hence the single ``det-wallclock`` file-allow for this file in
:mod:`repro.analysis.config`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def clock() -> float:
    """Monotonic seconds; the only sanctioned clock read in the linter."""
    return time.perf_counter()


@dataclass
class RunStats:
    """Accumulated timing/counting for one ``run_analysis`` call."""

    #: checker name -> seconds spent in check() over every file
    file_seconds: dict[str, float] = field(default_factory=dict)
    #: rule id -> surviving finding count (post suppression/allowlist)
    rule_counts: dict[str, int] = field(default_factory=dict)
    files_analyzed: int = 0

    # ------------------------------------------------------------------
    def add_file_time(self, checker: str, seconds: float) -> None:
        self.file_seconds[checker] = \
            self.file_seconds.get(checker, 0.0) + seconds

    def count_findings(self, findings) -> None:
        for finding in findings:
            self.rule_counts[finding.rule] = \
                self.rule_counts.get(finding.rule, 0) + 1

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = ["repro-lint --stats:"]
        lines.append(f"  files analysed: {self.files_analyzed}")
        if self.file_seconds:
            lines.append("  checker wall time:")
            for name, secs in sorted(self.file_seconds.items(),
                                     key=lambda kv: -kv[1]):
                lines.append(f"    {name:16} {secs * 1000:8.1f}ms")
        if self.rule_counts:
            lines.append("  findings per rule:")
            for rule in sorted(self.rule_counts):
                lines.append(f"    {rule:24} {self.rule_counts[rule]}")
        else:
            lines.append("  findings per rule: none")
        return "\n".join(lines)
