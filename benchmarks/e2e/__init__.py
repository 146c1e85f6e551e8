"""The repo benchmark: six whole-run workloads, their end-to-end metrics
and a per-layer wall/virtual ledger.

``BENCHMARK.json`` at the repo root is the contract; ``spec.py`` holds
the constants and the metric definitions it names; ``README.md`` is the
glossary.  Everything here observes :mod:`repro` from outside — default
constructor arguments, public API, the ``runtime.observe()`` /
``kernel.attach_tracer()`` hook protocol and wrappers around public
functions — so that later PRs can delete knobs and old bench files
without touching the benchmark.
"""
