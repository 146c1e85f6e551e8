"""Layering checker: the import DAG of the PadicoTM stack."""

from __future__ import annotations

import pytest

from repro.analysis import DEFAULT_CONFIG, AnalysisConfig
from tests.analysis.conftest import lint_text

LAY_RULES = {"lay-upward", "lay-escape", "lay-unknown"}


def lay(source: str, *, path: str, config=DEFAULT_CONFIG) -> list[str]:
    return [f.rule for f in lint_text(source, path=path, rules=LAY_RULES,
                                      config=config)]


# ---------------------------------------------------------------------------
# upward imports are rejected
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("path,source", [
    ("src/repro/sim/evil.py", "from repro.ccm.container import Container"),
    ("src/repro/sim/evil.py", "import repro.ccm.container"),
    ("src/repro/net/evil.py",
     "from repro.padicotm.runtime import PadicoRuntime"),
    ("src/repro/padicotm/arbitration/evil.py",
     "from repro.padicotm.abstraction.vlink import VLink"),
    ("src/repro/padicotm/abstraction/evil.py",
     "from repro.padicotm.personality.bsd import BsdSocket"),
    ("src/repro/corba/evil.py",
     "from repro.ccm.component import ComponentImpl"),
    ("src/repro/ccm/evil.py",
     "from repro.deploy.planner import DeploymentPlanner"),
], ids=["sim->ccm", "sim->ccm-import", "net->padicotm", "arb->abs",
        "abs->personality", "corba->ccm", "ccm->deploy"])
def test_upward_import_rejected(path, source):
    assert lay(source, path=path) == ["lay-upward"]


@pytest.mark.parametrize("path,source", [
    # downward and same-layer imports are the architecture working
    ("src/repro/ccm/ok.py", "from repro.corba.orb import Orb"),
    ("src/repro/padicotm/personality/ok.py",
     "from repro.padicotm.abstraction.vlink import VLink"),
    ("src/repro/net/ok.py", "from repro.sim.kernel import SimKernel"),
    ("src/repro/sim/ok.py", "from repro.sim.sync import SimLock"),
    ("src/repro/corba/ok.py",
     "from repro.mpi.world import World"),  # same layer: corba <-> mpi
], ids=["ccm->corba", "personality->abs", "net->sim", "sim->sim",
        "corba<->mpi"])
def test_downward_import_allowed(path, source):
    assert lay(source, path=path) == []


def test_stdlib_and_unlayered_files_ignored():
    assert lay("import heapq\nimport numpy", path="src/repro/sim/x.py") == []
    # examples/tests have no module name: they sit above the stack
    assert lint_text("from repro.ccm.container import Container",
                     path="examples/demo.py", rules=LAY_RULES) == []


# ---------------------------------------------------------------------------
# escape hatches: TYPE_CHECKING and lazy imports
# ---------------------------------------------------------------------------
_TYPE_CHECKING_SRC = """
    from typing import TYPE_CHECKING
    if TYPE_CHECKING:
        from repro.padicotm.runtime import PadicoProcess
"""

_LAZY_SRC = """
    def wire_up():
        from repro.padicotm.runtime import PadicoRuntime
        return PadicoRuntime
"""


@pytest.mark.parametrize("source", [_TYPE_CHECKING_SRC, _LAZY_SRC],
                         ids=["type-checking", "lazy"])
def test_unregistered_escape_hatch_rejected(source):
    empty = AnalysisConfig(layer_exceptions={})
    assert lay(source, path="src/repro/padicotm/arbitration/new.py",
               config=empty) == ["lay-escape"]


def test_registered_escape_hatch_accepted():
    cfg = AnalysisConfig(layer_exceptions={
        ("src/repro/padicotm/arbitration/new.py", "repro.padicotm.runtime"):
            "test fixture",
    })
    for source in (_TYPE_CHECKING_SRC, _LAZY_SRC):
        assert lay(source, path="src/repro/padicotm/arbitration/new.py",
                   config=cfg) == []


def test_escape_hatch_never_covers_module_level():
    """A registered exception must not quietly bless a module-level
    upward import of the same module."""
    cfg = AnalysisConfig(layer_exceptions={
        ("src/repro/padicotm/arbitration/new.py", "repro.padicotm.runtime"):
            "test fixture",
    })
    assert lay("from repro.padicotm.runtime import PadicoRuntime",
               path="src/repro/padicotm/arbitration/new.py",
               config=cfg) == ["lay-upward"]


def test_existing_hatches_are_registered_and_real():
    """Every committed exception refers to a file that exists and that
    still contains the guarded import (no stale registry entries)."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[2]
    for (path, imported), why in DEFAULT_CONFIG.layer_exceptions.items():
        assert why.strip(), f"{path}: exception without justification"
        text = (root / path).read_text()
        assert "TYPE_CHECKING" in text
        assert imported in text, f"{path} no longer imports {imported}"


def test_unknown_layer_warns():
    assert lay("from repro.newpkg.thing import X",
               path="src/repro/sim/x.py") == ["lay-unknown"]
