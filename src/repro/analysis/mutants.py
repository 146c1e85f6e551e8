"""Seeded-mutant harness for the ``perf-*`` rule family.

Golden corpora live under ``tests/analysis/corpus/<family>/{bad,good}``.
Every ``bad`` file carries one ``# expect: <rule>`` trailing comment per
seeded defect; the harness demands a finding with exactly that rule on
exactly that line (catch rate must be 100%).  Every ``good`` file
encodes a pattern the family must *not* flag (false-positive rate must
be 0%) — the regression guards for the family's deliberately narrow
matching (a route whose endpoints change per iteration, an
accumulation outside any loop).

Each corpus directory is analysed as its own mini-project through the
full engine, exactly as in a real run.  Findings are scoped to the
family's rule prefixes so unrelated rules (a corpus file is not
simulated kernel code) cannot skew the score.

Run as a gate::

    python -m repro.analysis.mutants            # exit 1 on any miss/FP
    make lint-mutants
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import run_analysis

#: family directory -> rule-id prefixes it is scored on
FAMILIES = {
    "perf": ("perf-",),
}

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Za-z0-9_-]+)")


def expected_findings(path: Path) -> list[tuple[int, str]]:
    """``(line, rule)`` for every ``# expect:`` annotation in a file."""
    out = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        for match in _EXPECT_RE.finditer(text):
            out.append((lineno, match.group(1)))
    return out


def _family_findings(corpus_dir: Path, prefixes: tuple[str, ...]):
    findings = run_analysis([corpus_dir], DEFAULT_CONFIG,
                            project_root=corpus_dir)
    return [f for f in findings
            if any(f.rule.startswith(p) for p in prefixes)]


def run_family(family: str, corpus_root: Path,
               out=sys.stdout) -> list[str]:
    """Score one family; returns a list of failure descriptions."""
    prefixes = FAMILIES[family]
    failures: list[str] = []
    expected_total = 0
    caught_total = 0

    bad_dir = corpus_root / family / "bad"
    bad_found = _family_findings(bad_dir, prefixes)
    by_site = {(f.path, f.line, f.rule) for f in bad_found}
    annotated = 0
    for path in sorted(bad_dir.glob("*.py")):
        expects = expected_findings(path)
        annotated += bool(expects)
        rel = path.name
        for line, rule in expects:
            expected_total += 1
            if (rel, line, rule) in by_site:
                caught_total += 1
            else:
                failures.append(
                    f"{family}: MISSED {rule} at bad/{rel}:{line}")
    if annotated == 0:
        failures.append(f"{family}: bad corpus has no # expect: "
                        f"annotations — nothing to score")

    good_dir = corpus_root / family / "good"
    good_found = _family_findings(good_dir, prefixes)
    for f in good_found:
        failures.append(f"{family}: FALSE POSITIVE {f.rule} at "
                        f"good/{f.path}:{f.line} — {f.message}")

    print(f"{family:10} bad: {caught_total}/{expected_total} seeded "
          f"defects caught, good: {len(good_found)} false positive(s)",
          file=out)
    return failures


def default_corpus_root() -> Path:
    """``tests/analysis/corpus`` relative to the project root."""
    from repro.analysis.engine import find_project_root
    return find_project_root(Path.cwd()) / "tests" / "analysis" / "corpus"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    corpus_root = Path(argv[0]) if argv else default_corpus_root()
    if not corpus_root.is_dir():
        print(f"mutants: no corpus at {corpus_root}", file=sys.stderr)
        return 2
    failures: list[str] = []
    for family in FAMILIES:
        failures.extend(run_family(family, corpus_root))
    for failure in failures:
        print(failure, file=sys.stderr)
    if not failures:
        print("mutants: all seeded defects caught, no false positives")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
