"""``repro.analysis`` — AST-based static analysis for the grid stack.

Turns the reproduction's two load-bearing conventions into machine-
checked rules (see ``docs/ANALYSIS.md``):

* the simulation kernel's *exact reproducibility* promise
  (``det-*`` and ``ker-*`` rule families), and
* the paper's layered PadicoTM architecture as an import DAG
  (``lay-*``), plus hot-path idioms (``perf-*``).

Every rule looks at one file at a time.  What only a whole run can
show is checked at run time: races, the VLink/Circuit lifecycle and
zero-copy publish windows by sim-san (:mod:`repro.sanitizer`); blocking
calls under the run token, monitor hooks reached with no monitor and
hash-seed dependence by the tier-1 suite.  The family audit in
``docs/ANALYSIS.md`` says why each family here stays.

Entry points: the ``repro-lint`` console script
(:func:`repro.analysis.cli.main`), :func:`run_analysis` over files (the
tier-1 gate test in ``tests/analysis``) and :func:`check_source` over
one file's text.
"""

from repro.analysis.base import Checker, ModuleContext
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.engine import (
    CHECKERS,
    check_source,
    find_project_root,
    run_analysis,
)
from repro.analysis.findings import Finding

__all__ = [
    "AnalysisConfig",
    "CHECKERS",
    "Checker",
    "DEFAULT_CONFIG",
    "Finding",
    "ModuleContext",
    "check_source",
    "find_project_root",
    "run_analysis",
]
