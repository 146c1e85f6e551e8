"""The ``repro-lint`` command line, end to end."""

from __future__ import annotations

import pytest

from repro.analysis.cli import _build_parser, main as cli_main


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


def test_cli_exit_codes(project, capsys, monkeypatch):
    monkeypatch.chdir(project)
    # dirty tree -> exit 1, finding on stdout
    assert cli_main(["src"]) == 1
    out = capsys.readouterr().out
    assert "det-wallclock" in out and "app.py:5" in out
    # fixing the file makes the tree clean
    (project / "src" / "repro" / "sim" / "app.py").write_text(
        "def tick(proc):\n    return proc.kernel.now\n")
    assert cli_main(["src"]) == 0


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ("det-wallclock", "ker-thread", "lay-upward",
                 "perf-list-pop0"):
        assert rule in out
    assert "idl-" not in out


def test_cli_takes_paths_and_two_listings():
    # no output format, no timing mode: paths and the two listings
    dests = {action.dest for action in _build_parser()._actions}
    assert dests == {"help", "paths", "list_rules", "list_exceptions"}


def test_cli_missing_path(capsys):
    assert cli_main(["definitely/not/here"]) == 2
