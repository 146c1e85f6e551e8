"""Seeded inputs, generated in the parent and handed to the workload.

The same ``(workload, seed, constants)`` always gives the same inputs.
Everything seeded is drawn as a *shuffle of a balanced multiset* (or a
small bounded jitter), so the amount of work — operations, bytes,
elements — is the same for every seed and only order and content vary:
run-to-run spread across seeds then measures the machine, not the dice.

Stdlib only: the parent never imports numpy or repro.  Bulk contents
(payload bytes, vector elements) are handed over as integer seeds and
materialised once in the child's set-up.
"""

from __future__ import annotations

import random


def _balanced(rng: random.Random, values: list, n: int) -> list:
    """``n`` draws covering ``values`` evenly, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def make_inputs(workload: str, seed: int, const: dict) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    data_seed = rng.randrange(2 ** 32)
    if workload in ("rpc_small", "bulk_sharing"):
        return {"data_seed": data_seed,
                "sizes_corba": _balanced(rng, const["sizes"],
                                         const["n_corba"]),
                "sizes_mpi": _balanced(rng, const["sizes"], const["n_mpi"])}
    if workload in ("fig8_block", "gridccm_cyclic"):
        # two distinct per-client-rank lengths within +-jitter of the base
        base, jitter = const["base_len"], const["jitter"]
        first = base + rng.randrange(-jitter, jitter + 1)
        second = first
        while second == first:
            second = base + rng.randrange(-jitter, jitter + 1)
        return {"data_seed": data_seed, "lengths": [first, second]}
    if workload == "grid_collectives":
        # one root per round: sites take turns (ranks are site-major),
        # the host within the site is seeded
        per_site = const["hosts_per_site"]
        return {"data_seed": data_seed,
                "roots": [(r % const["sites"]) * per_site
                          + rng.randrange(per_site)
                          for r in range(const["rounds"])]}
    if workload == "flow_churn":
        classes = list(range(1, const["size_classes"] + 1))
        # a cycle of flow sizes in units of ~1 MB (a whole number of
        # bytes within +-0.3 %, so byte totals stay exact in floats):
        # refills walk the cycle round-robin
        return {"size_cycle": _balanced(rng, classes, 64 * len(classes)),
                "size_unit": 1_000_000 + rng.randrange(-3000, 3001)}
    raise ValueError(f"unknown workload {workload!r}")
