"""The seeded-mutant harness and the committed golden corpora."""

from __future__ import annotations

import io
from pathlib import Path

from repro.analysis import mutants

CORPUS = Path(__file__).parent / "corpus"

#: a seeded transitive blocking call, as in corpus/blockdeep/bad
_WRAPPED_SLEEP = ("import time\n"
                  "\n"
                  "def backoff(delay):\n"
                  "    time.sleep(delay)\n"
                  "\n"
                  "def retry(task):\n"
                  "    task()\n"
                  "    backoff(0.1){expect}\n")


def test_committed_corpora_score_perfectly():
    # the acceptance bar: 100% of seeded defects caught, zero false
    # positives, for every family
    failures = []
    for family in mutants.FAMILIES:
        failures.extend(mutants.run_family(family, CORPUS,
                                           out=io.StringIO()))
    assert failures == []


def test_main_is_a_usable_gate():
    assert mutants.main([str(CORPUS)]) == 0


def test_every_bad_file_is_annotated():
    for family in mutants.FAMILIES:
        for path in sorted((CORPUS / family / "bad").glob("*.py")):
            assert mutants.expected_findings(path), \
                f"{family}/bad/{path.name} has no # expect: annotation"


def _family(tmp_path):
    bad = tmp_path / "blockdeep" / "bad"
    good = tmp_path / "blockdeep" / "good"
    bad.mkdir(parents=True)
    good.mkdir(parents=True)
    return bad, good


def test_harness_reports_missed_defects(tmp_path):
    # a bad file whose expectation nothing matches must fail the gate
    bad, _good = _family(tmp_path)
    (bad / "nothing.py").write_text(
        "def f(x):\n"
        "    return x  # expect: ker-block-deep\n")
    failures = mutants.run_family("blockdeep", tmp_path, out=io.StringIO())
    assert any("MISSED" in f for f in failures)


def test_harness_reports_false_positives(tmp_path):
    # a seeded defect placed in the good corpus must fail the gate
    bad, good = _family(tmp_path)
    (bad / "seed.py").write_text(
        _WRAPPED_SLEEP.format(expect="  # expect: ker-block-deep"))
    (good / "oops.py").write_text(_WRAPPED_SLEEP.format(expect=""))
    failures = mutants.run_family("blockdeep", tmp_path, out=io.StringIO())
    assert any("FALSE POSITIVE" in f for f in failures)
    assert not any("MISSED" in f for f in failures)
