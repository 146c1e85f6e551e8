"""``repro-lint`` — the command-line front end.

Examples::

    repro-lint src examples              # gate: exit 1 on any finding
    repro-lint --list-rules              # what can fire and why
    repro-lint --format json src | jq .  # machine-readable output

Exit codes: 0 clean, 1 findings, 2 usage error.  A finding is
exempted only where it stands: by an inline pragma, or by an entry of
``DEFAULT_FILE_ALLOW`` (:mod:`repro.analysis.config`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.base import all_checkers
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import find_project_root, run_analysis
from repro.analysis.stats import RunStats


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism, kernel-safety, layering and IDL "
                    "static analysis for the simulated grid stack.")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyse "
                             "(default: src examples)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--stats", action="store_true",
                        help="print per-checker wall time and per-rule "
                             "finding counts to stderr")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every rule id and exit")
    parser.add_argument("--list-exceptions", action="store_true",
                        help="list registered layering escape hatches "
                             "and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for cls in all_checkers():
            print(f"[{cls.name}]")
            for rule, desc in cls.rules.items():
                print(f"  {rule:24} {desc}")
        return 0
    if args.list_exceptions:
        for (path, module), why in sorted(
                DEFAULT_CONFIG.layer_exceptions.items()):
            print(f"{path} -> {module}\n    {why}")
        return 0

    raw_paths = args.paths or ["src", "examples"]
    roots = [Path(p) for p in raw_paths]
    missing = [str(p) for p in roots if not p.exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    project_root = find_project_root(roots[0])
    stats = RunStats() if args.stats else None
    findings = run_analysis(roots, DEFAULT_CONFIG, project_root,
                            stats=stats)
    if stats is not None:
        print(stats.render(), file=sys.stderr)

    if args.format == "json":
        print(json.dumps([{
            "rule": f.rule, "message": f.message, "path": f.path,
            "line": f.line, "col": f.col, "severity": str(f.severity),
        } for f in findings], indent=2))
    else:
        for f in findings:
            print(f.render())
        if findings:
            print(f"repro-lint: {len(findings)} finding(s)",
                  file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
