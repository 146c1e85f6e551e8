"""``repro.analysis`` — AST-based static analysis for the grid stack.

Turns the reproduction's two load-bearing conventions into machine-
checked rules (see ``docs/ANALYSIS.md``):

* the simulation kernel's *exact reproducibility* promise
  (``det-*`` and ``ker-*`` rule families), and
* the paper's layered PadicoTM architecture as an import DAG
  (``lay-*``), plus semantic lint for IDL/parallelism specs
  (``idl-*``) and hot-path idioms (``perf-*``).

Every rule looks at one file at a time.  What only a whole run can
show is checked at run time: races, the VLink/Circuit lifecycle and
zero-copy publish windows by sim-san (:mod:`repro.sanitizer`); blocking
calls under the run token, monitor hooks reached with no monitor and
hash-seed dependence by the tier-1 suite.  The family audit in
``docs/ANALYSIS.md`` says why each family here stays.

Entry points: the ``repro-lint`` console script
(:func:`repro.analysis.cli.main`) and :func:`run_analysis` for
programmatic use (the tier-1 gate test in ``tests/analysis``).
"""

from repro.analysis.base import (
    Checker,
    ModuleContext,
    all_checkers,
    all_rules,
    register_checker,
)
from repro.analysis.config import DEFAULT_CONFIG, AnalysisConfig
from repro.analysis.engine import find_project_root, run_analysis
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.idllint import (
    lint_compiled_idl,
    lint_parallelism_element,
)
from repro.analysis.suppress import Suppressions

__all__ = [
    "AnalysisConfig",
    "Checker",
    "DEFAULT_CONFIG",
    "Finding",
    "ModuleContext",
    "Severity",
    "Suppressions",
    "all_checkers",
    "all_rules",
    "find_project_root",
    "lint_compiled_idl",
    "lint_parallelism_element",
    "register_checker",
    "run_analysis",
    "sort_findings",
]
