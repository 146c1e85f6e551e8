"""The runtime attach/detach protocol: observe, unobserve, trace()."""

import pytest

from repro.net import Topology, build_cluster
from repro.obs import TraceRecorder
from repro.padicotm import PadicoRuntime


@pytest.fixture()
def runtime():
    topo = Topology()
    build_cluster(topo, "n", 2)
    rt = PadicoRuntime(topo)
    yield rt
    rt.shutdown()


class _Probe:
    """Minimal monitor: records which hooks fired."""

    def __init__(self, label):
        self.label = label
        self.calls = []
        self.attached_to = None

    def on_attach(self, runtime):
        self.attached_to = runtime

    def on_detach(self, runtime):
        self.attached_to = None

    def on_span_start(self, name, cat="", **attrs):
        self.calls.append(("start", name))

    def on_span_end(self, name, **attrs):
        self.calls.append(("end", name))


def test_no_monitor_by_default(runtime):
    assert runtime.monitor is None
    assert runtime.network.monitor is None
    assert runtime.kernel.tracer is None


def test_observe_and_unobserve(runtime):
    probe = _Probe("a")
    runtime.observe(probe)
    assert runtime.monitor is not None
    assert runtime.network.monitor is runtime.monitor
    assert probe.attached_to is runtime
    runtime.monitor.on_span_start("x")
    runtime.monitor.on_span_end("x")
    assert probe.calls == [("start", "x"), ("end", "x")]

    runtime.unobserve(probe)
    assert runtime.monitor is None
    assert runtime.network.monitor is None
    assert probe.attached_to is None
    runtime.unobserve(probe)  # idempotent


def test_duplicate_observe_rejected(runtime):
    probe = _Probe("a")
    runtime.observe(probe)
    with pytest.raises(ValueError):
        runtime.observe(probe)


def test_fan_dispatches_to_all_monitors_in_order(runtime):
    first, second = _Probe("first"), _Probe("second")
    runtime.observe(first)
    runtime.observe(second)
    runtime.monitor.on_span_start("op")
    assert first.calls == [("start", "op")]
    assert second.calls == [("start", "op")]

    # a monitor lacking a hook is skipped, others still fire
    class Partial:
        pass

    runtime.observe(Partial())
    runtime.monitor.on_span_end("op")
    assert first.calls[-1] == ("end", "op")
    assert second.calls[-1] == ("end", "op")

    runtime.unobserve(first)
    runtime.monitor.on_span_start("op2")
    assert first.calls[-1] == ("end", "op")  # detached: no new calls
    assert second.calls[-1] == ("start", "op2")


def test_monitor_is_read_only(runtime):
    """observe()/unobserve() are the one way in."""
    with pytest.raises(AttributeError):
        runtime.monitor = _Probe("straggler")
    assert runtime.monitor is None


def test_recorder_attach_installs_no_kernel_tracer(runtime):
    """The recorder is a runtime monitor only: it reads the kernel's
    clock and two counts, and the kernel reports nothing to it."""
    recorder = TraceRecorder()
    runtime.observe(recorder)
    assert runtime.kernel.tracer is None
    assert recorder.now == runtime.kernel.now
    runtime.unobserve(recorder)
    assert runtime.kernel.tracer is None


def test_trace_context_manager(runtime):
    with runtime.trace() as recorder:
        assert isinstance(recorder, TraceRecorder)
        assert runtime.monitor is not None
        assert runtime.kernel.tracer is None
    # detached on exit, recorder still usable
    assert runtime.monitor is None
    assert runtime.kernel.tracer is None
    assert recorder.spans == []
