"""Suppression comments and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import main as cli_main
from tests.analysis.conftest import lint_text


# ---------------------------------------------------------------------------
# inline suppressions
# ---------------------------------------------------------------------------
def test_line_suppression_silences_only_that_line():
    findings = lint_text("""
        import time
        a = time.time()  # repro-lint: disable=det-wallclock
        b = time.time()
    """)
    assert [f.rule for f in findings] == ["det-wallclock"]
    assert findings[0].line == 4


def test_suppression_is_per_rule():
    findings = lint_text(
        "import time\n"
        "time.sleep(time.time())  # repro-lint: disable=ker-sleep\n")
    assert [f.rule for f in findings] == ["det-wallclock"]


def test_multi_rule_and_all_suppressions():
    assert lint_text(
        "import time\n"
        "time.sleep(time.time())"
        "  # repro-lint: disable=ker-sleep,det-wallclock\n") == []
    assert lint_text(
        "import time\n"
        "time.sleep(time.time())  # repro-lint: disable=all\n") == []


def test_file_wide_suppression():
    findings = lint_text("""
        # Real wall-clock use is this file's whole point.
        # repro-lint: disable-file=det-wallclock
        import time
        a = time.time()
        b = time.time()
        time.sleep(1)
    """)
    assert [f.rule for f in findings] == ["ker-sleep"]


def test_pragma_inside_string_literal_is_not_a_suppression():
    findings = lint_text(
        'import time\n'
        'x = "# repro-lint: disable-file=det-wallclock"\n'
        't = time.time()\n')
    assert [f.rule for f in findings] == ["det-wallclock"]


def test_pragma_on_last_line_covers_the_whole_statement():
    # the finding is reported at the statement's first line; the pragma
    # sits where a human writes it — after the closing paren
    findings = lint_text("""
        import time
        stamps = dict(
            t0=time.time(),
            t1=time.time(),
        )  # repro-lint: disable=det-wallclock
    """)
    assert findings == []


def test_pragma_on_first_line_covers_the_whole_statement():
    findings = lint_text("""
        import time
        stamps = dict(  # repro-lint: disable=det-wallclock
            t0=time.time(),
        )
    """)
    assert findings == []


def test_multiline_suppression_does_not_leak_to_neighbours():
    findings = lint_text("""
        import time
        a = dict(
            t=time.time(),
        )  # repro-lint: disable=det-wallclock
        b = time.time()
    """)
    assert [(f.rule, f.line) for f in findings] == [("det-wallclock", 6)]


def test_standalone_comment_pragma_covers_only_its_own_line():
    # a pragma on a comment line between statements is not attached to
    # the statement below it — trailing placement is the contract
    findings = lint_text("""
        import time
        # repro-lint: disable=det-wallclock
        t = time.time()
    """)
    assert [f.rule for f in findings] == ["det-wallclock"]


# ---------------------------------------------------------------------------
# CLI end to end (against a synthetic project)
# ---------------------------------------------------------------------------
@pytest.fixture
def project(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    pkg = tmp_path / "src" / "repro" / "sim"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "app.py").write_text(
        "import time\n\n\ndef tick():\n    return time.time()\n")
    return tmp_path


def test_cli_exit_codes_and_baseline_cycle(project, capsys, monkeypatch):
    monkeypatch.chdir(project)
    # dirty tree -> exit 1, finding on stdout
    assert cli_main(["src"]) == 1
    out = capsys.readouterr().out
    assert "det-wallclock" in out and "app.py:5" in out
    # fixing the file makes the tree clean
    (project / "src" / "repro" / "sim" / "app.py").write_text(
        "def tick(proc):\n    return proc.kernel.now\n")
    assert cli_main(["src"]) == 0


def test_cli_json_output(project, monkeypatch, capsys):
    monkeypatch.chdir(project)
    assert cli_main(["--format", "json", "src"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "det-wallclock"
    assert payload[0]["path"] == "src/repro/sim/app.py"


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("det-wallclock", "ker-thread", "lay-upward", "idl-dup-op"):
        assert rule in out


def test_cli_missing_path(capsys):
    assert cli_main(["definitely/not/here"]) == 2
