"""``repro.analysis`` — AST-based static analysis for the grid stack.

Turns the reproduction's two load-bearing conventions into machine-
checked rules (see ``docs/ANALYSIS.md``):

* the simulation kernel's *exact reproducibility* promise
  (``det-*`` and ``ker-*`` rule families), and
* the paper's layered PadicoTM architecture as an import DAG
  (``lay-*``), plus semantic lint for IDL/parallelism specs
  (``idl-*``) and hot-path idioms (``perf-*``).

The per-file families are complemented by an *interprocedural* engine
— a project call graph (:mod:`repro.analysis.callgraph`) plus a
summary fixpoint framework (:mod:`repro.analysis.dataflow`) — with
two whole-program clients: ``ker-block-deep`` (transitive
blocking-call reachability) and ``obs-guard`` (instrumentation
dominated by non-None guards).

Races, the VLink/Circuit lifecycle and zero-copy publish windows are
checked at run time only, by sim-san (:mod:`repro.sanitizer`); the
family audit in ``docs/ANALYSIS.md`` says why each family here stays.

Entry points: the ``repro-lint`` console script
(:func:`repro.analysis.cli.main`) and :func:`run_analysis` for
programmatic use (the tier-1 gate test in ``tests/analysis``).
"""

from repro.analysis.base import (
    Checker,
    ModuleContext,
    ProjectChecker,
    all_checkers,
    all_project_checkers,
    all_rules,
    register_checker,
    register_project_checker,
)
from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    format_baseline,
    load_baseline,
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
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_CONFIG",
    "Finding",
    "ModuleContext",
    "ProjectChecker",
    "Severity",
    "Suppressions",
    "all_checkers",
    "all_project_checkers",
    "all_rules",
    "apply_baseline",
    "find_project_root",
    "format_baseline",
    "lint_compiled_idl",
    "lint_parallelism_element",
    "load_baseline",
    "register_checker",
    "register_project_checker",
    "run_analysis",
    "sort_findings",
]
