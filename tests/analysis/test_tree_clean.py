"""Tier-1 gate: the committed tree must be clean under repro-lint.

This is the test that makes every future PR pass through the analyzer:
a new wall-clock read, blocking primitive, upward import or broken
IDL/parallelism pairing anywhere under ``src/`` or ``examples/`` fails
the suite unless it is either fixed or inline-suppressed with a
justification.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_and_examples_are_clean():
    findings = run_analysis([REPO_ROOT / "src", REPO_ROOT / "examples"],
                            project_root=REPO_ROOT)
    assert not findings, (
        "repro-lint found findings; fix them (preferred) or suppress "
        "with '# repro-lint: disable=<rule>' plus a reason:\n"
        + "\n".join(f.render() for f in findings))


def test_layer_exceptions_all_exercised():
    """Every registered escape hatch is load-bearing: removing it from
    the config must reintroduce a lay-escape finding.  Guards against
    the exception registry rotting into an allowlist of nothing."""
    from repro.analysis import AnalysisConfig

    bare = AnalysisConfig(layer_exceptions={})
    findings = run_analysis([REPO_ROOT / "src"], bare,
                            project_root=REPO_ROOT)
    escapes = {(f.path, "repro.padicotm.runtime")
               for f in findings if f.rule == "lay-escape"}
    from repro.analysis.config import DEFAULT_LAYER_EXCEPTIONS
    assert escapes == set(DEFAULT_LAYER_EXCEPTIONS)
