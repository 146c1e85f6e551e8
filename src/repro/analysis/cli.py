"""``repro-lint`` — the command-line front end.

Examples::

    repro-lint src examples              # gate: exit 1 on any finding
    repro-lint --list-rules              # what can fire and why
    repro-lint --list-exceptions         # the registered escape hatches

Exit codes: 0 clean, 1 findings, 2 usage error.  A finding is
exempted only by an entry of ``DEFAULT_FILE_ALLOW``
(:mod:`repro.analysis.config`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import CHECKERS, find_project_root, run_analysis


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism, kernel-safety, layering and hot-path "
                    "static analysis for the simulated grid stack.")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to analyse "
                             "(default: src examples)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every rule id and exit")
    parser.add_argument("--list-exceptions", action="store_true",
                        help="list registered layering escape hatches "
                             "and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for checker in CHECKERS:
            print(f"[{checker.name}]")
            for rule, desc in checker.rules.items():
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

    findings = run_analysis(roots, DEFAULT_CONFIG,
                            find_project_root(roots[0]))
    for f in findings:
        print(f.render())
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
