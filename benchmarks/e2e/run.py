"""One workload, one measured run — the command ``BENCHMARK.json`` names.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

The parent (this file; stdlib only) generates the inputs from the seed,
starts one fresh child per run with a scrubbed environment
(``PYTHONHASHSEED=0``, malloc pinned, no ``REPRO_*`` switches, ``src`` on
the path),
and prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A per-layer metric that does not apply to the workload,
or whose hook no longer exists, reads ``-1`` on that line (``null`` in
the result document of ``python -m benchmarks.e2e``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
# run as a script, sys.path[0] is this directory: import as the package
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path.insert(0, str(ROOT))

from benchmarks.e2e import inputs, spec  # noqa: E402

#: a child that has not answered by then is killed (the driver allows 180 s)
CHILD_TIMEOUT_S = 170.0
NOT_MEASURED = -1.0
#: glibc malloc pinned like the CPU is.  Left alone it hands each OS
#: thread an arena by race (one seed of bulk_sharing peaked at 560-1040 MB
#: from run to run) and adapts its mmap/trim thresholds to the allocation
#: history (fig8_block flipped between page-faulting on every buffer and
#: reusing the heap, 0.75 s or 0.5 s a repetition, by seed).  One arena —
#: one simulated thread runs at a time anyway — that serves every buffer
#: from the heap and never trims it: freed memory is reused, peak RSS is
#: the heap's high-water mark, and both repeat.
MALLOC_ENV = {"MALLOC_ARENA_MAX": "1",
              "MALLOC_MMAP_THRESHOLD_": str(32 << 20),  # glibc's maximum
              "MALLOC_TRIM_THRESHOLD_": str(16 << 30)}


class BenchmarkError(RuntimeError):
    """The child could not produce a result."""


def launch(workload: str, seed: int, seconds: float, trace: bool,
           size: str = "full", reps: int | None = None,
           fault: str | None = None) -> dict:
    """Run one child and return its result document (``fault``: see
    ``workloads.Workload``)."""
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchmarkError(
            f"no src/repro under {ROOT}: nothing to benchmark")
    const = spec.WORKLOADS[workload][size]
    request = {
        "workload": workload, "constants": const,
        "inputs": inputs.make_inputs(workload, seed, const),
        "seconds": seconds, "trace": trace, "reps": reps,
        "fault": fault,
    }
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(spec.SCRUBBED_ENV_PREFIX)}
    env["PYTHONHASHSEED"] = "0"
    env.update(MALLOC_ENV)
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.child"],
            input=json.dumps(request), stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        raise BenchmarkError(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: child exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: child printed no result")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["size"] = size
    result["constants"] = const
    return result


def contract_line(result: dict, trace: bool) -> dict:
    """The driver's view of a result: numbers only, units attached."""
    metrics = {}
    if trace:
        units = spec.PER_LAYER_UNITS
        for name, value in result["per_layer"].items():
            metrics[name] = {
                "value": NOT_MEASURED if value is None else value,
                "unit": units[name]}
    else:
        for name, unit, _better, _bound, _doc in spec.END_TO_END:
            metrics[name] = {"value": result["end_to_end"][name]["value"],
                             "unit": unit}
    return {"correct": result["failed"] == 0 and result["deterministic"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = launch(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
