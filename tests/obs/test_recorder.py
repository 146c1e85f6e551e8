"""TraceRecorder unit behaviour: spans, counters, flows, driver I/O."""

import pytest

from repro.net import FlowNetwork, Topology, build_cluster
from repro.obs import TraceRecorder
from repro.sim import SimKernel


@pytest.fixture()
def kernel():
    k = SimKernel()
    yield k
    k.shutdown()


def test_spans_nest_per_thread(kernel):
    rec = TraceRecorder().bind(kernel)

    def main(p):
        with rec.span("outer"):
            p.sleep(0.001)
            with rec.span("inner", cat="test", detail=42):
                p.sleep(0.002)

    kernel.spawn(main, name="worker")
    kernel.run()

    outer, inner = rec.spans
    assert (outer.name, outer.depth, outer.parent) == ("outer", 0, None)
    assert (inner.name, inner.depth, inner.parent) == ("inner", 1, 0)
    assert inner.attrs == {"detail": 42}
    assert inner.start == pytest.approx(0.001)
    assert inner.duration == pytest.approx(0.002)
    assert outer.duration == pytest.approx(0.003)
    assert all(s.closed for s in rec.spans)
    assert rec.children(outer) == [inner]
    assert rec.roots() == [outer]
    tree = rec.render_tree()
    assert tree.splitlines()[0].startswith("outer")
    assert tree.splitlines()[1].startswith("  inner")


def test_sibling_threads_get_separate_stacks(kernel):
    rec = TraceRecorder().bind(kernel)

    def worker(p, label):
        with rec.span(label):
            p.sleep(0.001)

    kernel.spawn(worker, "a", name="a")
    kernel.spawn(worker, "b", name="b")
    kernel.run()
    assert sorted(s.name for s in rec.roots()) == ["a", "b"]
    # two roots, not one nested under the other
    assert all(s.parent is None for s in rec.spans)
    assert {s.tid for s in rec.spans} == {"a", "b"}


def test_span_end_tolerates_skipped_frames(kernel):
    rec = TraceRecorder().bind(kernel)

    def main(p):
        rec.on_span_start("outer")
        rec.on_span_start("middle")
        rec.on_span_start("leaf")
        p.sleep(0.001)
        rec.on_span_end("outer")  # leaf/middle never ended explicitly

    kernel.spawn(main)
    kernel.run()
    assert all(s.closed for s in rec.spans)
    assert all(s.end == pytest.approx(0.001) for s in rec.spans)


def test_counters_and_gauges(kernel):
    rec = TraceRecorder().bind(kernel)
    assert rec.counter("hits") == 1.0
    assert rec.counter("hits", 2.0) == 3.0
    rec.gauge("depth", 5.0)
    rec.gauge("depth", 2.0)
    assert rec.counters == {"hits": 3.0}
    assert rec.gauges == {"depth": 2.0}
    assert [s.value for s in rec.counter_series] == [1.0, 3.0]
    assert [s.value for s in rec.gauge_series] == [5.0, 2.0]


def test_flow_accounting(kernel):
    rec = TraceRecorder().bind(kernel)
    rec.on_flow_start(1, "a0", "a1", 1000.0, "san")
    rec.on_flow_start(2, "a0", "a2", 500.0, "san")
    rec.on_flow_end(1, ok=True)
    rec.on_flow_end(2, ok=False)
    rec.on_flow_end(99)  # unknown fid: ignored
    records = rec.flow_records()
    assert [r.fid for r in records] == [1, 2]
    assert records[0].ok is True and records[1].ok is False
    # only successful flows add to the fabric roll-up
    assert rec.fabric_bytes == {"san": 1000.0}


def test_driver_io_totals(kernel):
    rec = TraceRecorder().bind(kernel)
    rec.on_driver_io("madeleine", "send", 100.0)
    rec.on_driver_io("madeleine", "send", 50.0)
    rec.on_driver_io("tcp", "recv", 10.0)
    assert rec.driver_io[("madeleine", "send")] == [2.0, 150.0]
    assert rec.driver_io[("tcp", "recv")] == [1.0, 10.0]


def test_unbound_recorder_stamps_time_zero():
    rec = TraceRecorder()
    with rec.span("setup"):
        pass
    span = rec.spans[0]
    assert (span.start, span.end) == (0.0, 0.0)
    assert (span.pid, span.tid) == ("sim", "main")


def test_bare_kernel_attach_sequence(kernel):
    """``bind`` + ``attach_tracer`` + ``network.monitor =`` — what the
    repo benchmark does on its runtime-less workload.  The recorder has
    no tracer hook, so the kernel installs nothing; its two scheduler
    counts start at ``bind``.  A lone tracer with only *some* of the
    hooks is installed and called for exactly those."""
    topo = Topology()
    build_cluster(topo, "n", 2)
    network = FlowNetwork(kernel, topo)

    def ticker(p):
        for _ in range(5):
            p.sleep(0.001)

    kernel.spawn(ticker, name="before")
    kernel.run()
    assert (kernel.events_processed, kernel.context_switches) == (6, 6)

    class SwitchesOnly:
        def __init__(self):
            self.switched = []

        def on_switch(self, proc):
            self.switched.append(proc.name)

    rec = TraceRecorder()
    rec.bind(kernel)
    kernel.attach_tracer(rec)
    network.monitor = rec
    assert kernel.tracer is None
    lone = SwitchesOnly()
    kernel.attach_tracer(lone)
    assert kernel.tracer is lone

    def sender(p):
        network.transfer(p, "n0", "n1", 1e6, "n-san")

    kernel.spawn(sender, name="sender")
    kernel.spawn(ticker, name="after")
    kernel.run()
    assert (rec.events_fired, rec.context_switches) \
        == (kernel.events_processed - 6, kernel.context_switches - 6)
    assert rec.context_switches == len(lone.switched) > 6
    assert set(lone.switched) == {"sender", "after"}
    assert [f.ok for f in rec.flow_records()] == [True]
    kernel.detach_tracer(rec)  # never installed: a no-op
    kernel.detach_tracer(lone)
    assert kernel.tracer is None
