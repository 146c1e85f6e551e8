"""``repro-lint --stats``: where does lint wall time actually go?

The engine feeds one :class:`RunStats` per run: per-checker wall time
split by phase (the per-file pass vs the interprocedural pass) and
finding counts per rule.  The CI lint step prints the report so a slow
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

    #: checker name -> seconds spent in the per-file pass (check() +
    #: file_facts() over every file)
    file_seconds: dict[str, float] = field(default_factory=dict)
    #: checker name -> seconds spent in project_check()
    project_seconds: dict[str, float] = field(default_factory=dict)
    #: rule id -> surviving finding count (post suppression/allowlist)
    rule_counts: dict[str, int] = field(default_factory=dict)
    files_analyzed: int = 0

    # ------------------------------------------------------------------
    def add_file_time(self, checker: str, seconds: float) -> None:
        self.file_seconds[checker] = \
            self.file_seconds.get(checker, 0.0) + seconds

    def add_project_time(self, checker: str, seconds: float) -> None:
        self.project_seconds[checker] = \
            self.project_seconds.get(checker, 0.0) + seconds

    def count_findings(self, findings) -> None:
        for finding in findings:
            self.rule_counts[finding.rule] = \
                self.rule_counts.get(finding.rule, 0) + 1

    # ------------------------------------------------------------------
    def render(self) -> str:
        lines = ["repro-lint --stats:"]
        lines.append(f"  files analysed: {self.files_analyzed}")
        merged: dict[str, tuple[float, float]] = {}
        for name, secs in self.file_seconds.items():
            merged[name] = (secs, merged.get(name, (0.0, 0.0))[1])
        for name, secs in self.project_seconds.items():
            merged[name] = (merged.get(name, (0.0, 0.0))[0], secs)
        if merged:
            lines.append("  checker wall time (file-pass / project-pass):")
            by_total = sorted(merged.items(),
                              key=lambda kv: -(kv[1][0] + kv[1][1]))
            for name, (fsec, psec) in by_total:
                lines.append(f"    {name:16} {fsec * 1000:8.1f}ms"
                             f" / {psec * 1000:8.1f}ms")
        if self.rule_counts:
            lines.append("  findings per rule:")
            for rule in sorted(self.rule_counts):
                lines.append(f"    {rule:24} {self.rule_counts[rule]}")
        else:
            lines.append("  findings per rule: none")
        return "\n".join(lines)
