"""The observability contract: recording never changes what runs.

A run with a recorder attached must be bit-for-bit identical (result,
final virtual time, event count) to the same run without one, and both
must survive seeded schedule permutation — the same gate sim-san uses.
The recorder must also compose with the sanitizer: both attached at
once, deterministic hook order, neither perturbing the other.
"""

import json

from repro.obs import TraceRecorder, chrome_trace
from repro.sanitizer import Sanitizer
from repro.sanitizer.explore import assert_schedule_deterministic
from repro.sim import SimKernel
from tests.obs._workload import pingpong


def _run(monitors=(), setup=None):
    kernel = SimKernel()
    with kernel:
        result = pingpong(kernel, monitors=monitors, setup=setup)
    return result, kernel.now, kernel.events_processed


def test_recorder_does_not_perturb_the_schedule():
    plain = _run()
    rec = TraceRecorder()
    recorded = _run(monitors=[rec])
    # same echoes, same final virtual time, same event count
    assert recorded == plain
    assert rec.spans, "the recorder should still have observed the run"


def test_unobserved_run_is_schedule_deterministic():
    # the acceptance gate: no recorder attached, 5 seeded permutations,
    # every fingerprint identical to the canonical order
    report = assert_schedule_deterministic(lambda k: pingpong(k), seeds=5)
    assert report.deterministic


def test_observed_run_is_schedule_deterministic():
    report = assert_schedule_deterministic(
        lambda k: pingpong(k, monitors=[TraceRecorder()]), seeds=3)
    assert report.deterministic


def test_obs_composes_with_sanitizer():
    plain = _run()
    rec = TraceRecorder()
    installed = []
    recorded = _run(monitors=[rec],
                    setup=lambda rt: installed.append(Sanitizer(runtime=rt)))
    assert recorded == plain
    san = installed[0]
    assert san.races == []
    # both observers were live on the same runtime at once
    assert any(s.name == "corba.invoke" for s in rec.spans)
    assert san.monitor is not None


def test_sanitizer_uninstall_leaves_recorder_attached():
    kernel = SimKernel()
    rec = TraceRecorder()
    sans = []

    def setup(rt):
        sans.append(Sanitizer(runtime=rt))
        sans[0].uninstall()
        # the monitor fan collapses back to the lone recorder, not to
        # None; the detector was the only kernel tracer
        assert rt.monitor is not None
        assert rt.kernel.tracer is None

    with kernel:
        pingpong(kernel, monitors=[rec], setup=setup)
    assert any(s.name == "corba.invoke" for s in rec.spans)


def test_recorder_and_sanitizer_each_see_what_they_see_alone():
    """sim-san is a kernel tracer (``hb_*`` edges), the recorder is not
    (no hooks): together they report the same races and the same trace
    bytes as each alone."""
    def run(record, sanitize):
        rec = TraceRecorder()
        sans = []

        def setup(rt):
            shared = {"x": 0}
            if sanitize:
                sans.append(Sanitizer(runtime=rt))
                shared = sans[0].tracked(shared, label="shared")

            def bump(p):  # unsynchronised read-modify-write across a yield
                tmp = shared["x"]
                p.yield_()
                shared["x"] = tmp + 1

            for name in "ab":
                rt.kernel.spawn(bump, name=name)

        with SimKernel() as kernel:
            pingpong(kernel, monitors=[rec] if record else [], setup=setup)
        races = [r.render() for r in sans[0].races] if sanitize else None
        return races, json.dumps(chrome_trace(rec), sort_keys=True)

    races_alone, _ = run(record=False, sanitize=True)
    _, trace_alone = run(record=True, sanitize=False)
    races, trace = run(record=True, sanitize=True)
    assert races == races_alone and races
    assert trace == trace_alone and "corba.invoke" in trace
