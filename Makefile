# Developer gates.  `make check` is what CI runs: the static lint, the
# tier-1 test suite (which regenerates BENCH_padico.json and
# EXPERIMENTS.md's tables in memory and byte-compares them), the seeded
# schedule-exploration smoke, the repo benchmark smoke, and the census.
# Everything goes through PYTHONPATH=src so no install step is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: check lint lint-mutants test copy-budget \
	schedule-smoke bench-e2e census

check: lint lint-mutants test copy-budget schedule-smoke bench-e2e census

# The full run CI gates on; --stats prints per-checker wall time and
# per-rule finding counts into the log.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.analysis.cli --stats \
		src examples

# Seeded-mutant gate: it scores perf-* only.  Every bad-corpus defect
# must be caught, every good-corpus pattern must stay clean (races,
# typestate and publish windows are sim-san's: tests/sanitizer; blocking
# behind helpers is the tier-1 guard's: tests/conftest.py; hook guards
# are the census's)
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

# The census behind DESIGN.md §8's tables and §5's constant sweep:
# which library functions the experiments, workloads and examples
# enter, which defaulted parameters they ever set, which hook guards
# they pass unmonitored, what each workload costs the scheduler, and
# which series each cost constant moves.  It writes those tables into
# the generated blocks of DESIGN.md and docs/PERFORMANCE.md (census A
# at full size); `git diff` on the two files shows what moved.
census:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m benchmarks.census
