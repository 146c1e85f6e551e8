"""``python -m benchmarks.e2e compare A.json B.json`` — A is the parent,
B the change.

Per (workload, end-to-end metric): both medians, how much worse B is
relative to A, the bound, and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``worse`` — it is, and the run-to-run spread is within the bound;
* ``unresolved`` — the spread (inter-quartile range over the median, of
  either side) is wider than the bound, so the difference cannot be
  told from noise — unless every repetition of B reads better than
  every repetition of A, which is ``ok``.

``virt_s`` has bound 0: for one seed it repeats exactly, so any increase
is ``worse``.  The other exact quantities (counts, bytes, virtual-clock
self times, ``virt_digest``) are compared for equality and every
difference is printed.  Exit status 1 on any ``worse`` or any new failed
operation.
"""

from __future__ import annotations

import json

from benchmarks.e2e import spec


def _worsening(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def _spread(cell: dict) -> float:
    if "q1" not in cell or not cell["value"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / abs(cell["value"])


def _all_better(a: dict, b: dict, better: str) -> bool:
    ra, rb = a.get("reps"), b.get("reps")
    if not ra or not rb:
        return False
    return max(rb) < min(ra) if better == "lower" else min(rb) > max(ra)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    worse_by = _worsening(a["value"], b["value"], better)
    if max(_spread(a), _spread(b)) > bound:
        return ("ok" if _all_better(a, b, better) else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def compare(doc_a: dict, doc_b: dict) -> tuple[list[str], int]:
    """(report lines, number of regressions)."""
    lines: list[str] = []
    bad = 0
    same_inputs = (doc_a.get("seed"), doc_a.get("size")) \
        == (doc_b.get("seed"), doc_b.get("size"))
    if not same_inputs:
        lines.append("note: seed or size differ — exact quantities are "
                     "not comparable and are skipped")
    lines.append(f"{'workload':<18}{'metric':<14}{'A':>12}{'B':>12}"
                 f"{'worse by':>10}{'bound':>8}  verdict")
    for name, ea in doc_a["workloads"].items():
        eb = doc_b["workloads"].get(name)
        if eb is None:
            lines.append(f"{name}: missing from B")
            bad += 1
            continue
        for metric, _unit, better, bound, _doc in spec.END_TO_END:
            if not same_inputs:
                bound = spec.ACROSS_SEEDS_BOUND.get(metric, bound)
            a, b = ea["end_to_end"][metric], eb["end_to_end"][metric]
            status, worse_by = verdict(a, b, better, bound)
            bad += status == "worse"
            lines.append(f"{name:<18}{metric:<14}{a['value']:>12.5g}"
                         f"{b['value']:>12.5g}{worse_by:>+10.1%}"
                         f"{bound:>8.0%}  {status}")
        if eb["failed_ops"] > ea["failed_ops"]:
            bad += 1
            lines.append(f"{name:<18}failed_ops {ea['failed_ops']} -> "
                         f"{eb['failed_ops']}  worse")
        if not same_inputs:
            continue
        if ea["virt_digest"] != eb["virt_digest"]:
            lines.append(f"{name:<18}virt_digest differs: simulated "
                         f"statistics changed")
        for metric, cell in ea["per_layer"].items():
            other = eb["per_layer"].get(metric, {}).get("value")
            if spec.is_exact(metric) and cell["value"] != other:
                lines.append(f"{name:<18}{metric} {cell['value']} -> "
                             f"{other} {cell['unit']}")
    return lines, bad


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        doc_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        doc_b = json.load(fh)
    lines, bad = compare(doc_a, doc_b)
    print("\n".join(lines))
    print(f"{bad} regression(s)")
    return 1 if bad else 0
