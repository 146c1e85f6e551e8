"""Seeded schedule exploration: turn latent races into reproducible bugs.

The kernel's event order is a total order over ``(time, seq)``; a
*seeded* kernel (``SimKernel(seed=N)``) deterministically permutes the
pop order of same-instant events, which is exactly the freedom a real
scheduler has.  A correctly synchronised scenario produces bit-identical
results under every seed; a racy one diverges — and because each seed is
deterministic, the divergent schedule replays perfectly.

Usage (as a pytest helper)::

    def scenario(kernel):
        ... spawn processes on kernel, kernel.run() ...
        return result            # anything with a stable repr

    assert_schedule_deterministic(scenario, seeds=5)

The fingerprint compared across seeds is ``(repr(result), final
simulated time)`` — bit-for-bit, as the determinism contract demands.
(The raw event count is reported but not compared: a correctly
synchronised scenario may block and wake a different number of times
under different interleavings without its *result* changing.)  A
scenario that *raises* under some seed fingerprints the exception
instead, so crashes are first-class divergences with the seed stamped
on the failure.

``python -m repro.sanitizer --seeds 5`` runs a built-in
producer/consumer smoke scenario (the ``make check`` schedule gate).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.sim.kernel import SimKernel

Scenario = Callable[[SimKernel], Any]


@dataclass(frozen=True)
class ScheduleRun:
    """Outcome of one scenario execution under one seed."""

    seed: int | None
    fingerprint: tuple[str, float]  # (repr of result or exc, final time)
    events: int = 0
    error: BaseException | None = None

    def render(self) -> str:
        result, now = self.fingerprint
        return (f"seed={self.seed}: events={self.events} t={now!r} "
                f"result={result}")


@dataclass(frozen=True)
class ScheduleReport:
    """All runs of one exploration plus the divergence verdict."""

    runs: tuple[ScheduleRun, ...]
    baseline: ScheduleRun

    @property
    def divergent(self) -> tuple[ScheduleRun, ...]:
        return tuple(r for r in self.runs
                     if r.fingerprint != self.baseline.fingerprint)

    @property
    def deterministic(self) -> bool:
        return not self.divergent

    def render(self) -> str:
        lines = [self.baseline.render() + "  (baseline)"]
        for run in self.runs:
            marker = "" if run.fingerprint == self.baseline.fingerprint \
                else "  << DIVERGES"
            lines.append(run.render() + marker)
        return "\n".join(lines)


class ScheduleDivergenceError(AssertionError):
    """A scenario produced different results under different schedules.

    Carries the first divergent seed so the failure replays exactly:
    rerun the scenario on ``SimKernel(seed=...)``.
    """

    def __init__(self, report: ScheduleReport):
        self.report = report
        first = report.divergent[0]
        super().__init__(
            f"schedule divergence: seed {first.seed} does not reproduce "
            f"the baseline (replay with SimKernel(seed={first.seed}))\n"
            + report.render())


def run_scenario(scenario: Scenario, seed: int | None = None
                 ) -> ScheduleRun:
    """Run ``scenario`` on a fresh (optionally seeded) kernel."""
    kernel = SimKernel(seed=seed)
    error: BaseException | None = None
    try:
        with kernel:
            result = scenario(kernel)
        outcome = repr(result)
    except Exception as exc:  # noqa: BLE001 - a crash IS the fingerprint
        error = exc
        outcome = f"raised {type(exc).__name__}: {exc}"
    return ScheduleRun(seed, (outcome, kernel.now),
                       kernel.events_processed, error)


def explore_schedules(scenario: Scenario,
                      seeds: int | Sequence[int] = 5) -> ScheduleReport:
    """Run ``scenario`` under the canonical order plus ``seeds`` seeded
    permutations; diff the fingerprints bit-for-bit.

    ``seeds`` is either a count (seeds ``1..N``) or an explicit seed
    sequence.  The unseeded run is always the baseline.
    """
    if isinstance(seeds, int):
        seed_list: Sequence[int] = range(1, seeds + 1)
    else:
        seed_list = seeds
    baseline = run_scenario(scenario, None)
    runs = tuple(run_scenario(scenario, s) for s in seed_list)
    return ScheduleReport(runs, baseline)


def assert_schedule_deterministic(scenario: Scenario,
                                  seeds: int | Sequence[int] = 5
                                  ) -> ScheduleReport:
    """Pytest helper: raise :class:`ScheduleDivergenceError` unless every
    seed reproduces the baseline bit-for-bit; returns the report."""
    report = explore_schedules(scenario, seeds)
    if not report.deterministic:
        raise ScheduleDivergenceError(report)
    return report


# ----------------------------------------------------------------------
# built-in smoke scenario (the `make check` schedule gate)
# ----------------------------------------------------------------------
def smoke_scenario(kernel: SimKernel) -> tuple:
    """Producer/consumer pipeline: correctly synchronised, so its result
    must be schedule-invariant.  Three producers stamp distinct items at
    distinct instants into a shared mailbox; a consumer drains them."""
    from repro.sim.sync import Mailbox

    box = Mailbox(kernel)
    collected: list = []

    def producer(p, ident: int):
        for i in range(4):
            p.sleep(0.001 * (ident + 1))
            box.put((ident, i))

    def consumer(p):
        for _ in range(12):
            collected.append(box.get(p))

    for ident in range(3):
        kernel.spawn(producer, ident, name=f"producer-{ident}")
    kernel.spawn(consumer, name="consumer")
    kernel.run()
    return (tuple(sorted(collected)), round(kernel.now, 9))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sanitizer",
        description="Seeded schedule-exploration smoke: run the built-in "
                    "producer/consumer scenario under N seeds and diff "
                    "the results bit-for-bit.")
    parser.add_argument("--seeds", type=int, default=5,
                        help="number of seeded permutations (default 5)")
    args = parser.parse_args(argv)
    report = explore_schedules(smoke_scenario, seeds=args.seeds)
    print(report.render())
    if not report.deterministic:
        print(f"schedule exploration: {len(report.divergent)} divergent "
              f"seed(s)")
        return 1
    print(f"schedule exploration: {len(report.runs)} seed(s) "
          f"bit-identical to baseline")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
