"""Shared helpers for the analysis-framework tests."""

from __future__ import annotations

import ast
import textwrap

import pytest

from repro.analysis import DEFAULT_CONFIG, ModuleContext, all_checkers
from repro.analysis.suppress import Suppressions


def lint_text(source: str, *, path: str = "src/repro/sim/snippet.py",
              module: str | None = "repro.sim.snippet",
              config=DEFAULT_CONFIG, rules: set[str] | None = None):
    """Run every registered checker over a source snippet.

    Mirrors the engine's per-file pipeline (suppressions + allowlist)
    without touching the filesystem.  ``rules`` filters the result.
    """
    source = textwrap.dedent(source)
    ctx = ModuleContext(path, source, ast.parse(source), module,
                        path.endswith("__init__.py"),
                        Suppressions.scan(source))
    findings = []
    for cls in all_checkers():
        for f in cls().check(ctx, config):
            if ctx.suppressions.is_suppressed(f.rule, f.line):
                continue
            if config.is_allowed(f.path, f.rule):
                continue
            findings.append(f)
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return findings


@pytest.fixture
def lint():
    return lint_text
