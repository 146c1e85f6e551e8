"""Self-test of the benchmark (``python -m pytest benchmarks/e2e -q``;
outside tier-1 ``testpaths``).

Runs every workload at smoke scale (~1/20 size) twice and checks the
instrument, not the system: the result document is complete and
well-named, the ledger accounts for the traced wall time, exact counts
repeat, the oracles notice corrupted data, the sources stay on repro's
public default surface, and ``compare`` tells worse from noise.
"""

from __future__ import annotations

import ast
import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import compare, run, spec, suite

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    return suite.contract()


@pytest.fixture(scope="module")
def smoke_docs() -> tuple[dict, dict]:
    quiet = lambda *_a: None  # noqa: E731
    return (suite.run_all(seed=1, smoke=True, log=quiet),
            suite.run_all(seed=1, smoke=True, log=quiet))


# -- BENCHMARK.json <-> spec ------------------------------------------------

def test_contract_matches_spec(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == \
        [(n, w["why"]) for n, w in spec.WORKLOADS.items()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == \
        [(n, u, b, spec.ACROSS_SEEDS_BOUND.get(n, bound))
         for n, u, b, bound, _doc in spec.END_TO_END]
    # under compare (one seed) virtual time is held exactly
    assert next(bound for n, _u, _b, bound, _doc in spec.END_TO_END
                if n == "virt_s") == 0
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == \
        [(n, u, b) for n, u, b, _src in spec.PER_LAYER]
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_limits(contract):
    names = [w["name"] for w in contract["workloads"]] \
        + [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"])
               for m in contract["end_to_end"] + contract["per_layer"])
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert all(0 <= m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in contract["workloads"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in contract["per_layer"])
    # every README glossary row exists: the name appears in the README
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    assert all(n in readme for n in names)


# -- the smoke document -----------------------------------------------------

def test_document_is_complete(contract, smoke_docs):
    doc = smoke_docs[0]
    assert list(doc["workloads"]) == [w["name"] for w in contract["workloads"]]
    for name, entry in doc["workloads"].items():
        assert entry["failed_ops"] == 0, name
        assert entry["deterministic"], name
        assert entry["attempted"] >= 1
        for m in contract["end_to_end"]:
            cell = entry["end_to_end"][m["name"]]
            assert cell["unit"] == m["unit"] and cell["value"] > 0, \
                (name, m["name"])
        for m in contract["per_layer"]:
            cell = entry["per_layer"][m["name"]]  # value or explicit null
            assert cell["unit"] == m["unit"]
            assert cell["value"] is None \
                or isinstance(cell["value"], (int, float)), (name, m["name"])


def test_model_metrics_apply_where_derived(smoke_docs):
    doc = smoke_docs[0]
    for metric, (source, _paper, _note) in spec.MODEL_REFERENCE.items():
        for name, entry in doc["workloads"].items():
            value = entry["per_layer"][metric]["value"]
            assert (value is not None) == (name == source), (metric, name)


def test_ledger_accounts_for_the_traced_wall(smoke_docs):
    for name, entry in smoke_docs[0]["workloads"].items():
        ledger = entry["ledger"]
        assert ledger["bucket_sum_s"] == pytest.approx(
            ledger["traced_wall_s"], rel=0.01), name
        shares = {b: row["wall_share"]
                  for b, row in ledger["buckets"].items()}
        assert shares.get("app", 0.0) <= 0.05, (name, shares)
        assert shares.get("unmapped", 0.0) <= 0.01, (name, shares)
        assert entry["per_layer"]["sim.threads_leaked"]["value"] == 0


def test_exact_counts_repeat(smoke_docs):
    a, b = smoke_docs
    for name in a["workloads"]:
        ea, eb = a["workloads"][name], b["workloads"][name]
        assert ea["virt_digest"] == eb["virt_digest"], name
        assert ea["end_to_end"]["virt_s"]["value"] == \
            eb["end_to_end"]["virt_s"]["value"]
        assert ea["ledger"]["counts_repeat"] and eb["ledger"]["counts_repeat"]
        for metric, cell in ea["per_layer"].items():
            if spec.is_exact(metric):
                assert cell["value"] == eb["per_layer"][metric]["value"], \
                    (name, metric)
    lines, _bad = compare.compare(a, b)
    assert not [l for l in lines if "->" in l or "virt_digest" in l], lines


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_corrupted_data_is_a_failed_op(name):
    result = run.launch(name, 1, 1.0, False, size="smoke", reps=1,
                        fault="corrupt")
    assert 1 <= result["failed"] < result["attempted"]
    assert run.contract_line(result, False)["correct"] is False


@pytest.mark.parametrize("trace", [False, True])
def test_raising_operation_is_failed_ops_not_a_crash(trace):
    """A servant that raises: the run still ends with a full result, all
    operations of the raising repetitions failed, no thread left over."""
    result = run.launch("rpc_small", 1, 1.0, trace, size="smoke", reps=1,
                        fault="raise")
    assert result["failed"] == result["attempted"] >= 1
    assert any("injected servant fault" in e for e in result["errors"])
    line = run.contract_line(result, trace)
    assert line["correct"] is False and line["failed"] == line["attempted"]
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(line["metrics"]) == {m[0] for m in expected}
    if trace:
        assert result["per_layer"]["sim.threads_leaked"] == 0


def test_contract_line(smoke_docs):
    result = run.launch("rpc_small", 3, 1.0, True, size="smoke", reps=1)
    line = run.contract_line(result, True)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == {n for n, _u, _b, _s in spec.PER_LAYER}
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())
    assert line["metrics"]["model.fig8_agg_mbps"]["value"] == run.NOT_MEASURED


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero exit,
    no result line."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "rpc_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# -- API-surface guard ------------------------------------------------------

# knobs, environment switches and old bench modules the benchmark must
# not depend on, so later PRs can delete them without touching it
_FORBIDDEN = [
    r"\bincremental\s*=", r"\bsharded\s*=", r"\bshard_threshold\s*=",
    r"\bvec_threshold\s*=", r"\bCollTuning\b", r"\bbackend\s*=",
    r"REPRO_SIM_BACKEND", r"REPRO_MPI_COLL",
    r"benchmarks\.harness", r"benchmarks\.wallclock", r"benchmarks\.run\b",
    r"from\s+benchmarks\s+import\s+(harness|wallclock|run)\b",
]

#: private attributes of repro objects the benchmark may read, each with
#: its reason.  Empty today: the scheduling-layer rule (a fired timer is
#: charged to the layer that scheduled it) has not needed the timer's
#: callback.
_PRIVATE_ALLOWED: dict[str, str] = {}

#: names that refer to the benchmark's own objects
_OWN_OBJECTS = {"self", "ledger", "cls"}


def _sources() -> list[Path]:
    return sorted(p for p in HERE.glob("*.py") if p.name != "test_e2e.py")


def test_no_knobs_env_switches_or_old_bench_imports():
    for path in _sources():
        text = path.read_text(encoding="utf-8")
        for pattern in _FORBIDDEN:
            assert not re.search(pattern, text), (path.name, pattern)


def test_no_private_attributes_of_repro_objects():
    for path in _sources():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in _OWN_OBJECTS:
                continue
            assert attr in _PRIVATE_ALLOWED, \
                f"{path.name}:{node.lineno} reaches .{attr}"


# -- compare ----------------------------------------------------------------

def _scaled(doc: dict, workload: str, metric: str, factor: float) -> dict:
    out = copy.deepcopy(doc)
    cell = out["workloads"][workload]["end_to_end"][metric]
    for key in ("value", "q1", "q3"):
        if key in cell:
            cell[key] *= factor
    if "reps" in cell:
        cell["reps"] = [v * factor for v in cell["reps"]]
    return out


def _tight(doc: dict) -> dict:
    """The document with every spread collapsed onto its median."""
    out = copy.deepcopy(doc)
    for entry in out["workloads"].values():
        for cell in entry["end_to_end"].values():
            if "q1" in cell:
                cell["q1"] = cell["q3"] = cell["value"]
                cell["reps"] = [cell["value"]] * len(cell["reps"])
    return out


def test_compare_verdicts(smoke_docs, tmp_path):
    base = _tight(smoke_docs[0])
    _lines, bad = compare.compare(base, base)
    assert bad == 0
    slower = _scaled(base, "rpc_small", "wall_s", 1.5)
    lines, bad = compare.compare(base, slower)
    assert bad == 1
    assert any("rpc_small" in l and "wall_s" in l and l.endswith("worse")
               for l in lines)
    faster = _scaled(base, "rpc_small", "wall_s", 0.5)
    assert compare.compare(base, faster)[1] == 0
    # virtual time is exact for one seed: 1 % more is a regression ...
    later = _scaled(base, "grid_collectives", "virt_s", 1.01)
    lines, bad = compare.compare(base, later)
    assert bad == 1
    assert any("grid_collectives" in l and "virt_s" in l
               and l.endswith("worse") for l in lines)
    assert compare.compare(base, _scaled(
        base, "grid_collectives", "virt_s", 0.99))[1] == 0
    # ... and within the seed-to-seed bound when the seeds differ
    other_seed = dict(later, seed=2)
    assert compare.compare(base, other_seed)[1] == 0
    # a spread wider than the bound hides the slowdown: unresolved
    noisy = copy.deepcopy(slower)
    cell = noisy["workloads"]["rpc_small"]["end_to_end"]["wall_s"]
    cell["q1"], cell["q3"] = cell["value"] * 0.8, cell["value"] * 1.2
    lines, bad = compare.compare(base, noisy)
    assert bad == 0
    assert any("rpc_small" in l and l.endswith("unresolved") for l in lines)
    # the command-line form exits non-zero on a regression
    for name, doc in (("a.json", base), ("b.json", slower)):
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    assert compare.main(str(tmp_path / "a.json"),
                        str(tmp_path / "a.json")) == 0
    assert compare.main(str(tmp_path / "a.json"),
                        str(tmp_path / "b.json")) == 1
