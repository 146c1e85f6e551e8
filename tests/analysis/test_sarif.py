"""SARIF 2.1.0 serialisation of repro-lint findings."""

import json

from repro.analysis.findings import Finding, Severity
from repro.analysis.sarif import SARIF_VERSION, to_sarif


def _sample_findings():
    return [
        Finding("det-wallclock", "time.time() is nondeterministic",
                "src/repro/net/flows.py", 42, 8, Severity.ERROR,
                "t = time.time()"),
        Finding("perf-list-pop0", "list.pop(0) is O(n) per pop",
                "src/repro/sim/sync.py", 7, 0, Severity.WARNING,
                "entry = self._waiters.pop(0)"),
    ]


def test_sarif_log_shape():
    log = to_sarif(_sample_findings())
    assert log["version"] == SARIF_VERSION
    assert len(log["runs"]) == 1
    run = log["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert len(run["results"]) == 2


def test_results_carry_location_level_and_fingerprint():
    findings = _sample_findings()
    results = to_sarif(findings)["runs"][0]["results"]
    first = results[0]
    assert first["ruleId"] == "det-wallclock"
    assert first["level"] == "error"
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/net/flows.py"
    assert loc["region"]["startLine"] == 42
    assert loc["region"]["startColumn"] == 9  # SARIF columns are 1-based
    assert loc["region"]["snippet"]["text"] == "t = time.time()"
    assert first["partialFingerprints"]["reproLintFingerprint/v1"] == \
        findings[0].fingerprint
    assert results[1]["level"] == "warning"


def test_rule_descriptors_are_deduplicated_and_indexed():
    findings = _sample_findings() + _sample_findings()
    run = to_sarif(findings)["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == sorted({f.rule for f in findings})
    for result in run["results"]:
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]


def test_whole_file_finding_has_no_region():
    finding = Finding("lay-unknown", "module maps to no layer",
                      "src/repro/new/mod.py", 0)
    result = to_sarif([finding])["runs"][0]["results"][0]
    assert "region" not in result["locations"][0]["physicalLocation"]


def test_empty_run_is_valid():
    log = to_sarif([])
    assert log["runs"][0]["results"] == []
    assert log["runs"][0]["tool"]["driver"]["rules"] == []


def test_sarif_is_json_serialisable():
    blob = json.dumps(to_sarif(_sample_findings()))
    assert json.loads(blob)["version"] == SARIF_VERSION


def test_cli_format_sarif(tmp_path, capsys):
    from repro.analysis.cli import main

    bad = tmp_path / "snippet.py"
    bad.write_text("import time\n\ndef f():\n    time.sleep(1)\n")
    exit_code = main(["--format", "sarif", "--no-baseline", str(bad)])
    out = capsys.readouterr().out
    log = json.loads(out)
    assert exit_code == 1
    assert any(r["ruleId"] == "ker-sleep"
               for r in log["runs"][0]["results"])
