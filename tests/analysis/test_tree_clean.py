"""Tier-1 gate: the committed tree must be clean under repro-lint.

This is the test that makes every future PR pass through the analyzer:
a new wall-clock read, blocking primitive, upward import or broken
IDL/parallelism pairing anywhere under ``src/`` or ``examples/`` fails
the suite unless it is either fixed, inline-suppressed with a
justification, or deliberately accepted into the committed baseline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    run_analysis,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def gate() -> tuple[list, set]:
    """``(fresh findings, stale baseline entries)`` of one whole-tree
    run, shared by the two tests that read it (a run takes seconds)."""
    findings = run_analysis([REPO_ROOT / "src", REPO_ROOT / "examples"],
                            project_root=REPO_ROOT)
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE_NAME)
    return apply_baseline(findings, baseline)


def test_src_and_examples_are_clean(gate):
    fresh, _stale = gate
    assert not fresh, (
        "repro-lint found non-baselined findings; fix them (preferred), "
        "suppress with '# repro-lint: disable=<rule>' plus a reason, or "
        "rerun 'repro-lint --update-baseline src examples':\n"
        + "\n".join(f.render() for f in fresh))


def test_baseline_has_no_stale_entries(gate):
    _fresh, stale = gate
    assert not stale, (
        "baseline entries no longer match any finding; regenerate with "
        f"'repro-lint --update-baseline' ({sorted(stale)})")


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
