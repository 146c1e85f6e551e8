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
        checker = cls()
        if not checker.applicable(ctx):
            continue
        for f in checker.check(ctx, config):
            if ctx.suppressions.is_suppressed(f.rule, f.line):
                continue
            if config.is_allowed(f.path, f.rule):
                continue
            findings.append(f)
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return findings


def lint_tree(tmp_path, files, *, rules: set[str] | None = None,
              config=DEFAULT_CONFIG):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and run
    the *full* engine — per-file checkers plus the call graph and the
    interprocedural project checkers — as one mini-project.

    This is the harness for the ``ker-block-deep`` / ``obs-guard``
    tests: unlike :func:`lint_text`, cross-file resolution, summaries
    and the fixpoint all run for real.
    """
    from repro.analysis.engine import run_analysis
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    findings = run_analysis([tmp_path], config, project_root=tmp_path)
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return findings


@pytest.fixture
def lint():
    return lint_text


@pytest.fixture
def lint_project(tmp_path):
    """``lint_project(files, ...)`` — :func:`lint_tree` bound to this
    test's tmp directory."""
    def _run(files, **kwargs):
        return lint_tree(tmp_path, files, **kwargs)
    _run.root = tmp_path
    return _run
