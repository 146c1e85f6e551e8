"""Every example runs to completion.

Each ``examples/*.py`` runs as its own interpreter, with ``src`` on the
path and a temporary working directory (``trace_demo.py`` writes its
trace there), and must exit 0.  Several surfaces — deployment planning,
SOAP, assembly deployment, trace export — are reached by no paper
experiment and no benchmark workload, only by these scripts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
