# Developer gates.  `make check` is what CI runs: the static lint, the
# tier-1 test suite (which regenerates BENCH_padico.json and
# EXPERIMENTS.md's tables in memory and byte-compares them), the seeded
# schedule-exploration smoke, and the repo benchmark smoke.
# Everything goes through PYTHONPATH=src so no install step is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: check lint lint-full lint-mutants test copy-budget \
	schedule-smoke bench-e2e sarif

check: lint lint-mutants test copy-budget schedule-smoke bench-e2e

# Incremental: per-file results and call-graph summaries are cached by
# content hash in .repro-lint-cache.json; the interprocedural phase
# always re-runs, so a callee change re-derives its cached callers.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.cli --changed \
		--stats src examples

# Full run, no cache — what CI gates on (cold containers have no cache
# to trust anyway).  --stats prints per-checker wall time and per-rule
# finding counts into the CI log.
lint-full:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.cli --stats \
		src examples

# Seeded-mutant gate: every buf-*/ker-block-deep/obs-guard/perf-*
# corpus defect must be caught, every good-corpus pattern must stay
# clean (races and typestate are sim-san's: tests/sanitizer)
lint-mutants:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.mutants

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# Deterministic copy-budget gate: replays the §4.4 CORBA+MPI workload
# and a 16 MiB GridCCM scatter and pins the wire.copied_bytes.* totals
# to committed expected values (runs inside `test` too; the named
# target keeps the gate visible and re-runnable on its own)
copy-budget:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q \
		tests/obs/test_copy_budget.py

schedule-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.sanitizer --seeds 5

# The repo benchmark (BENCHMARK.json) at ~1/20 size — all six workloads,
# plain and ledger-traced — then its self-test.  The result document
# goes to a scratch path; nothing under benchmarks/e2e/ is written.
bench-e2e:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.e2e --smoke \
		--out BENCH_e2e_smoke.json
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/e2e -q

# SARIF findings for CI/PR annotation (exit status intentionally ignored:
# the gating run is `lint`, this one only produces the report artifact)
sarif:
	-PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.cli \
		--format sarif src examples > repro-lint.sarif
