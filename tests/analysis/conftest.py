"""Shared helpers for the analysis-framework tests."""

from __future__ import annotations

import textwrap

from repro.analysis import DEFAULT_CONFIG, check_source


def lint_text(source: str, *, path: str = "src/repro/sim/snippet.py",
              config=DEFAULT_CONFIG, rules: set[str] | None = None):
    """The engine's findings for a source snippet standing at ``path``
    (project-relative), without touching the filesystem.  ``rules``
    filters the result."""
    findings = check_source(textwrap.dedent(source), path, config)
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return findings

