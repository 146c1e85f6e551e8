"""Analysis engine: file discovery, checker dispatch, filtering.

The engine walks the given roots for ``*.py`` sources and runs every
checker of :data:`CHECKERS` over each file on its own
(:func:`check_source`); a finding survives unless its (file, rule) pair
has a ``DEFAULT_FILE_ALLOW`` entry.  No rule looks across files: what
only a whole run can show (blocking under the run token, unguarded
monitor hooks, hash-seed dependence) is checked at run time by the
tier-1 suite.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.base import Checker, ModuleContext
from repro.analysis.blocking import BlockingChecker
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.findings import Finding
from repro.analysis.layering import LayeringChecker
from repro.analysis.perf import PerfChecker

#: The rule families, in ``--list-rules`` order.
CHECKERS: tuple[Checker, ...] = (
    BlockingChecker(),
    DeterminismChecker(),
    LayeringChecker(),
    PerfChecker(),
)

_SKIP_DIRS = {"__pycache__", ".git", ".hg", "build", "dist", "node_modules"}


def find_project_root(start: Path) -> Path:
    """Nearest ancestor holding pyproject.toml (else ``start`` itself)."""
    start = start.resolve()
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return probe


def collect_files(roots: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix != ".py":
                continue
            parts = set(path.parts)
            if parts & _SKIP_DIRS or any(p.endswith(".egg-info")
                                         for p in path.parts):
                continue
            files.append(path)
    return files


def module_name_for(relpath: str) -> tuple[str | None, bool]:
    """(dotted module, is_package) for a project-relative posix path.

    Only files under ``src/`` get a module name — which is exactly the
    set of files the layering checker applies to.
    """
    if not relpath.startswith("src/") or not relpath.endswith(".py"):
        return None, False
    parts = relpath[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        return ".".join(parts[:-1]), True
    return ".".join(parts), False


def check_source(source: str, relpath: str,
                 config: AnalysisConfig = DEFAULT_CONFIG) -> list[Finding]:
    """One file's surviving findings, in checker order.

    ``relpath`` is the file's project-relative posix path: it names the
    module (files under ``src/``) and keys the ``DEFAULT_FILE_ALLOW``
    entries."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [Finding("parse-error", f"file does not parse: {exc}",
                        relpath, exc.lineno or 0)]
    module, is_package = module_name_for(relpath)
    ctx = ModuleContext(relpath, tree, module, is_package)
    return [finding
            for checker in CHECKERS
            for finding in checker.check(ctx, config)
            if not config.is_allowed(finding.path, finding.rule)]


def run_analysis(roots: list[Path],
                 config: AnalysisConfig = DEFAULT_CONFIG,
                 project_root: Path | None = None) -> list[Finding]:
    """Run every checker over the roots; returns the findings no
    ``DEFAULT_FILE_ALLOW`` entry exempts, sorted by location."""
    if project_root is None:
        project_root = find_project_root(roots[0] if roots else Path("."))
    project_root = project_root.resolve()

    findings: list[Finding] = []
    # a file named twice (a root and a directory holding it) counts once
    for path in dict.fromkeys(p.resolve() for p in collect_files(roots)):
        relpath = path.relative_to(project_root).as_posix()
        source = path.read_text(encoding="utf-8", errors="replace")
        findings.extend(check_source(source, relpath, config))
    return sorted(findings, key=Finding.sort_key)
