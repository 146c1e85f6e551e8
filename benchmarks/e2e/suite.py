"""All six workloads, one result document.

For each workload two children run back to back with the same seed: an
untraced one (end-to-end metrics, tracing off) and a traced one
(per-layer metrics and the ledger table).  Both must reach the same
virtual digest.  The document is what ``compare`` reads.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

from benchmarks.e2e import run, spec

SCHEMA = "padico-e2e/1"


def contract() -> dict:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """One workload's entry of the result document."""
    size = "smoke" if smoke else "full"
    plain = run.launch(name, seed, seconds, False, size,
                       reps=spec.SMOKE_REPS if smoke else None)
    traced = run.launch(name, seed, seconds, True, size,
                        reps=1 if smoke else None)
    same_run = plain["virt_digest"] == traced["virt_digest"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    if not same_run:  # tracing perturbed the simulation
        failed = attempted
    units = spec.PER_LAYER_UNITS
    end_to_end = {}
    for metric, unit, better, bound, _doc in spec.END_TO_END:
        end_to_end[metric] = dict(plain["end_to_end"][metric], unit=unit,
                                  better=better, bound=bound)
    per_layer = {metric: {"value": value, "unit": units[metric]}
                 for metric, value in traced["per_layer"].items()}
    reference = {}
    for metric, (source, paper, note) in spec.MODEL_REFERENCE.items():
        measured = traced["per_layer"].get(metric)
        if source == name and measured is not None:
            reference[metric] = {"paper": paper, "measured": measured,
                                 "error": (measured - paper) / paper,
                                 "note": note}
    return {
        "why": spec.WORKLOADS[name]["why"],
        "clients": spec.WORKLOADS[name]["clients"],
        "constants": plain["constants"], "seed": seed, "size": size,
        "cpu": plain["cpu"], "reps": plain["reps"],
        "ops": plain["attempted"] // max(plain["reps"], 1),
        "attempted": attempted, "failed_ops": failed,
        "errors": sorted(set(plain["errors"] + traced["errors"])),
        "deterministic": plain["deterministic"]
        and traced["deterministic"] and same_run,
        "virt_digest": plain["virt_digest"],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "ledger": traced["ledger"], "model_reference": reference,
    }


def render(name: str, entry: dict) -> str:
    """Every metric by name, with its unit, then the ledger table."""
    lines = [f"== {name}  seed {entry['seed']}  {entry['reps']} reps  "
             f"cpu {entry['cpu']}  ops/rep {entry['ops']}  "
             f"failed_ops {entry['failed_ops']}/{entry['attempted']}  "
             f"virt_digest {entry['virt_digest'][:16]}"]
    lines += [f"   raised: {error}" for error in entry["errors"]]
    for metric, cell in entry["end_to_end"].items():
        text = f"   {metric:<34}{cell['value']:>16.6g} {cell['unit']}"
        if "q1" in cell:
            text += (f"   [q1 {cell['q1']:.4g} .. q3 {cell['q3']:.4g}, "
                     f"n={len(cell['reps'])}]")
        lines.append(text)
    for metric, cell in entry["per_layer"].items():
        value = cell["value"]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"   {metric:<34}{shown:>16} {cell['unit']}")
    for metric, ref in entry["model_reference"].items():
        lines.append(f"   {metric}: paper {ref['paper']:g}, measured "
                     f"{ref['measured']:.4g} ({ref['error']:+.1%})")
    ledger = entry["ledger"]
    lines.append(f"   ledger: traced wall {ledger['traced_wall_s']:.4f} s, "
                 f"buckets sum {ledger['bucket_sum_s']:.4f} s")
    lines.append(f"   {'bucket':<24}{'wall s':>10}{'wall %':>8}"
                 f"{'virt s':>12}{'virt %':>8}")
    for bucket, row in sorted(ledger["buckets"].items(),
                              key=lambda kv: -kv[1]["wall_s"]):
        lines.append(f"   {bucket:<24}{row['wall_s']:>10.4f}"
                     f"{row['wall_share']:>8.1%}{row['virt_s']:>12.5g}"
                     f"{row['virt_share']:>8.1%}")
    return "\n".join(lines)


def run_all(seed: int = 1, out: str | None = None, smoke: bool = False,
            log=print) -> dict:
    """Every workload of ``BENCHMARK.json``, each measured for its
    ``run_seconds`` (``smoke``: a fixed few repetitions instead)."""
    spec_doc = contract()
    seconds = spec_doc["run_seconds"]
    doc = {
        "schema": SCHEMA, "seed": seed,
        "size": "smoke" if smoke else "full",
        "run_seconds": seconds, "command": spec_doc["command"],
        "host": {"python": platform.python_version(),
                 "machine": platform.machine()},
        "interactions": spec.INTERACTIONS,
        "workloads": {},
    }
    for workload in spec_doc["workloads"]:
        name = workload["name"]
        entry = measure(name, seed, seconds, smoke)
        doc["workloads"][name] = entry
        log(render(name, entry))
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        log(f"wrote {path}")
    return doc


def total_failed(doc: dict) -> int:
    return sum(entry["failed_ops"] for entry in doc["workloads"].values())
