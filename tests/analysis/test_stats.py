"""``--stats``: per-checker wall time and per-rule counts."""

from __future__ import annotations

import textwrap

from repro.analysis.cli import main as cli_main
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.engine import run_analysis
from repro.analysis.stats import RunStats

RACY = """\
import time

def poll(process):
    t = time.time()
    return t
"""


def _project(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def test_stats_accumulate_times_and_rule_counts(tmp_path):
    root = _project(tmp_path, {"prog.py": RACY})
    stats = RunStats()
    findings = run_analysis([root], DEFAULT_CONFIG, project_root=root,
                            stats=stats)
    assert stats.files_analyzed == 1
    assert stats.rule_counts.get("det-wallclock") == 1
    assert sum(stats.rule_counts.values()) == len(findings)
    # both phases measured: per-file checkers and project checkers
    assert "determinism" in stats.file_seconds
    assert "obs-guard" in stats.project_seconds
    assert all(t >= 0 for t in stats.file_seconds.values())


def test_cli_stats_flag_prints_the_report(tmp_path, capsys, monkeypatch):
    root = _project(tmp_path, {"prog.py": RACY,
                               "pyproject.toml": "[project]\n"})
    monkeypatch.chdir(root)
    rc = cli_main(["--stats", "prog.py"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "repro-lint --stats:" in err
    assert "checker wall time" in err
    assert "det-wallclock" in err


def test_cli_without_stats_is_silent_about_them(tmp_path, capsys,
                                                monkeypatch):
    root = _project(tmp_path, {"prog.py": "x = 1\n",
                               "pyproject.toml": "[project]\n"})
    monkeypatch.chdir(root)
    rc = cli_main(["prog.py"])
    assert rc == 0
    assert "--stats" not in capsys.readouterr().err
