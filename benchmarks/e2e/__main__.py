"""``python -m benchmarks.e2e`` — run the six workloads, or compare two
result documents.

    PYTHONPATH=src python -m benchmarks.e2e [--seed N] [--out FILE] [--smoke]
    PYTHONPATH=src python -m benchmarks.e2e compare A.json B.json
"""

from __future__ import annotations

import argparse
import sys

from benchmarks.e2e import compare, run, suite

DEFAULT_OUT = "benchmarks/e2e/results/e2e.json"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
        parser.add_argument("a", help="result document of the parent")
        parser.add_argument("b", help="result document of the change")
        args = parser.parse_args(argv[1:])
        return compare.main(args.a, args.b)
    parser = argparse.ArgumentParser(prog="benchmarks.e2e",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"result document (default {DEFAULT_OUT})")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at ~1/20 size, fixed reps")
    args = parser.parse_args(argv)
    try:
        doc = suite.run_all(args.seed, args.out, args.smoke)
    except run.BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    failed = suite.total_failed(doc)
    print(f"failed_ops total: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
