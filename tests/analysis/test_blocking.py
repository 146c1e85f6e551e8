"""Cooperative-kernel safety family: true positives and negatives."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.analysis
from repro.analysis.config import DEFAULT_FILE_ALLOW
from tests.analysis.conftest import lint_text

KER_RULES = {"ker-thread", "ker-sleep", "ker-socket", "ker-subprocess"}


def ker(source: str, **kw) -> list[str]:
    return [f.rule for f in lint_text(source, rules=KER_RULES, **kw)]


@pytest.mark.parametrize("source,rule", [
    ("import threading\nlock = threading.Lock()", "ker-thread"),
    ("import threading\nev = threading.Event()", "ker-thread"),
    ("import threading\ncv = threading.Condition()", "ker-thread"),
    ("import threading as th\nt = th.Thread(target=print)", "ker-thread"),
    ("from threading import Lock\nlock = Lock()", "ker-thread"),
    ("import time\ntime.sleep(0.1)", "ker-sleep"),
    ("from time import sleep\nsleep(1)", "ker-sleep"),
    ("import socket", "ker-socket"),
    ("from socket import create_connection", "ker-socket"),
    ("import select", "ker-socket"),
    ("import subprocess", "ker-subprocess"),
    ("import os\nos.system('ls')", "ker-subprocess"),
    ("import os\npid = os.fork()", "ker-subprocess"),
], ids=lambda v: v.replace("\n", "; ") if isinstance(v, str) else v)
def test_true_positive(source, rule):
    assert rule in ker(source)


@pytest.mark.parametrize("source", [
    # the simulated equivalents are exactly what the rules point to
    "def f(proc):\n    proc.sleep(1.0)",
    "from repro.sim.sync import SimLock\n",
    # time/os modules are fine for their deterministic parts
    "import os\np = os.path.join('a', 'b')",
    "import time\nfmt = time.strftime",
], ids=["sim-sleep", "sim-lock", "os-path", "time-attr"])
def test_true_negative(source):
    assert ker(source) == []


def test_backend_file_is_allowlisted():
    """backends.py holds one class, ThreadBackend — the lock hand-off
    (baton passing) every simulated process yields through.  It is
    exempt in that file only, and only for ker-thread: the single
    ``DEFAULT_FILE_ALLOW`` entry, the one way to exempt a finding."""
    source = """
        import threading
        sem = threading.Semaphore(0)
    """
    assert ker(source) == ["ker-thread"]
    assert ker(source, path="src/repro/sim/backends.py") == []
    # kernel.py is threading-free and not exempt
    assert ker(source, path="src/repro/sim/kernel.py") == ["ker-thread"]
    # the exemption is per-rule: a time.sleep in backends.py still fires
    assert ker("import time\ntime.sleep(1)",
               path="src/repro/sim/backends.py") == ["ker-sleep"]
    assert set(DEFAULT_FILE_ALLOW) == {("src/repro/sim/backends.py",
                                        "ker-thread")}
    assert DEFAULT_FILE_ALLOW[("src/repro/sim/backends.py", "ker-thread")]
    # the analyser itself reads no host clock
    package = Path(repro.analysis.__file__).parent
    for path in sorted(package.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
        assert "time" not in imported, path.name
