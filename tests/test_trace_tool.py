"""``padico-trace``: demo, summary and bench."""

import argparse
import json

import pytest

from benchmarks.run import BENCH_PATH
from repro.tools import trace


def test_parse_size():
    assert trace.parse_size("100") == 100
    assert trace.parse_size("32K") == 32 * 1024
    assert trace.parse_size("8M") == 8 * 1024 * 1024
    assert trace.parse_size("1.5k") == 1536
    with pytest.raises(argparse.ArgumentTypeError):
        trace.parse_size("lots")


def test_demo_then_summary(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert trace.main(["demo", "--out", str(out), "--size", "1K",
                       "--rounds", "2"]) == 0
    printed = capsys.readouterr().out
    assert f"wrote {out}" in printed
    assert "2x 1K ping-pong, omniORB4, Myrinet-2000" in printed
    doc = json.loads(out.read_text())
    assert doc["otherData"]["schema"] == "padico-trace/1"
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert spans

    assert trace.main(["summary", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"({len(spans)} spans)" in captured.out
    assert "spans (count, total virtual s):" in captured.out
    assert captured.err == ""


def test_bench_accepts_the_committed_document(capsys):
    assert trace.main(["bench", str(BENCH_PATH)]) == 0
    out = capsys.readouterr().out
    assert "valid padico-bench/1 document" in out
    assert "  concurrent.sharing" in out


def test_bench_rejects_a_corrupted_document(tmp_path, capsys):
    doc = json.loads(BENCH_PATH.read_text(encoding="utf-8"))
    doc["results"][0]["points"][0][1] = "fast"
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text(json.dumps(doc))
    assert trace.main(["bench", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err
