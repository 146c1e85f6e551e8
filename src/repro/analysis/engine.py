"""Analysis engine: file discovery, checker dispatch, filtering.

The engine walks the given roots for ``*.py`` sources and runs every
registered checker over each file on its own; a finding
survives if no inline suppression, config allowlist entry or disabled
rule covers it.  No rule looks across files: what only a whole run can
show (blocking under the run token, unguarded monitor hooks, hash-seed
dependence) is checked at run time by the tier-1 suite.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.base import ModuleContext, all_checkers
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.stats import RunStats, clock
from repro.analysis.suppress import Suppressions

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


def _filtered(findings, ctx_suppressions: Suppressions,
              config: AnalysisConfig) -> list[Finding]:
    out: list[Finding] = []
    for finding in findings:
        if ctx_suppressions.is_suppressed(finding.rule, finding.line):
            continue
        if config.is_allowed(finding.path, finding.rule):
            continue
        out.append(finding)
    return out


def _analyze_file(path: Path, project_root: Path,
                  config: AnalysisConfig, checkers,
                  stats: RunStats | None = None) -> list[Finding]:
    """One file's surviving findings."""
    relpath = path.resolve().relative_to(project_root).as_posix()
    source = path.read_text(encoding="utf-8", errors="replace")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding("parse-error", f"file does not parse: {exc}",
                        relpath, exc.lineno or 0)]
    module, is_package = module_name_for(relpath)
    ctx = ModuleContext(relpath, source, tree, module, is_package,
                        Suppressions.scan(source))
    findings: list[Finding] = []
    for checker in checkers:
        start = clock()
        found = checker.check(ctx, config)
        findings.extend(_filtered(found, ctx.suppressions, config))
        if stats is not None:
            stats.add_file_time(checker.name, clock() - start)
    return findings


def run_analysis(roots: list[Path],
                 config: AnalysisConfig = DEFAULT_CONFIG,
                 project_root: Path | None = None,
                 stats: RunStats | None = None) -> list[Finding]:
    """Run every registered checker over the roots; returns findings
    that survive inline suppressions and the config allowlist.

    With ``stats`` set, per-checker wall time and per-rule finding
    counts are accumulated onto it.
    """
    if project_root is None:
        project_root = find_project_root(roots[0] if roots else Path("."))
    project_root = project_root.resolve()
    checkers = [cls() for cls in all_checkers()]

    findings: list[Finding] = []
    # a file named twice (a root and a directory holding it) counts once
    files = list(dict.fromkeys(p.resolve() for p in collect_files(roots)))
    for path in files:
        findings.extend(_analyze_file(path, project_root, config,
                                      checkers, stats))
    findings = sort_findings(findings)
    if stats is not None:
        stats.files_analyzed = len(files)
        stats.count_findings(findings)
    return findings
