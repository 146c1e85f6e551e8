"""The three kinds of repetition: plain, recorder, ledger.

A tracer is handed to ``Workload.build()`` as its ``observe`` callback
(so observers are attached before anything spawns), told when the timed
region is ``ready()`` to start and when it is ``done()``, and asked for
its ``results()``.  The plain tracer does nothing: end-to-end metrics
are measured with tracing off.
"""

from __future__ import annotations

from typing import Any

from benchmarks.e2e.ledger import Ledger, layer_of_span, virtual_self_times


class PlainTracer:
    def observe(self, kernel: Any, runtime: Any, network: Any) -> None:
        pass

    def ready(self, rep: Any) -> None:
        pass

    def done(self) -> None:
        pass

    def results(self, rep: Any) -> dict:
        return {}


def _attach(observer: Any, kernel: Any, runtime: Any, network: Any) -> None:
    if runtime is not None:
        runtime.observe(observer)
    else:  # bare kernel + flow network: the same two hook surfaces
        observer.bind(kernel)
        kernel.attach_tracer(observer)
        network.monitor = observer


class RecorderTracer(PlainTracer):
    """``repro.obs.TraceRecorder`` per stage: exact counts and the
    virtual-clock self time of every layer."""

    def __init__(self) -> None:
        self.recorders: list[Any] = []

    def observe(self, kernel: Any, runtime: Any, network: Any) -> None:
        from repro.obs import TraceRecorder

        recorder = TraceRecorder()
        _attach(recorder, kernel, runtime, network)
        self.recorders.append(recorder)

    def results(self, rep: Any) -> dict:
        span_names: dict[str, int] = {}
        span_layers: dict[str, int] = {}
        counters: dict[str, float] = {}
        virt: dict[str, float] = {}
        switches = 0
        for recorder in self.recorders:
            switches += recorder.context_switches
            for span in recorder.closed_spans():
                span_names[span.name] = span_names.get(span.name, 0) + 1
                layer = layer_of_span(span.name, span.cat)
                span_layers[layer] = span_layers.get(layer, 0) + 1
            for name, value in recorder.counters.items():
                counters[name] = counters.get(name, 0.0) + value
            for layer, seconds in virtual_self_times(recorder).items():
                virt[layer] = virt.get(layer, 0.0) + seconds
        hits = misses = 0
        for stage in rep.stages:
            h, m = stage.topology.route_cache_stats()
            hits, misses = hits + h, misses + m
        networks = [s.network for s in rep.stages]
        kernels = [s.kernel for s in rep.stages]
        counts = {
            "sim.events": sum(k.events_processed for k in kernels),
            "sim.events_skipped": sum(k.events_skipped for k in kernels),
            "sim.switches": switches,
            "net.flows_completed": sum(n.completed_flows for n in networks),
            "net.solver_iterations": sum(n.solver_iterations
                                         for n in networks),
            "net.timer_reuses": sum(n.timer_reuses for n in networks),
            "net.route_cache_hit_ratio":
                hits / (hits + misses) if hits + misses else 0.0,
            "net.bytes": sum(entry[2] for n in networks
                             for entry in n.flow_log if entry[4]),
            "net.virt_self_s": virt.get("net", 0.0),
            "padicotm.arbitration_calls":
                span_layers.get("padicotm.arbitration", 0),
            "padicotm.abstraction_calls":
                span_layers.get("padicotm.abstraction", 0),
            "padicotm.virt_self_s": sum(
                v for layer, v in virt.items()
                if layer.startswith("padicotm.")),
            "corba.invocations": span_names.get("corba.invoke", 0),
            "corba.copied_bytes": counters.get("wire.copied_bytes.corba", 0.0),
            "corba.referenced_bytes":
                counters.get("wire.referenced_bytes.corba", 0.0),
            "corba.virt_self_s": virt.get("corba", 0.0),
            "mpi.collective_calls": sum(
                n for name, n in span_names.items()
                if name.startswith("mpi.")),
            "mpi.wan_crossings": counters.get("mpi.wan_crossings", 0.0),
            "mpi.wan_bytes": sum(v for name, v in counters.items()
                                 if name.startswith("mpi.wan_bytes.")),
            "mpi.copied_bytes": counters.get("wire.copied_bytes.mpi", 0.0),
            "mpi.referenced_bytes":
                counters.get("wire.referenced_bytes.mpi", 0.0),
            "mpi.virt_self_s": virt.get("mpi", 0.0),
            "core.gridccm_calls": span_names.get("gridccm.call", 0),
            "core.redistribution_bytes":
                counters.get("gridccm.redistribution_bytes", 0.0),
            "core.copied_bytes":
                counters.get("wire.copied_bytes.gridccm", 0.0),
            "core.virt_self_s": virt.get("core", 0.0),
        }
        return {"counts": counts, "virt_by_layer": virt}


#: (module, attribute holding the owner or None for the module itself,
#: function, bucket, counter) — public entry points of layers that emit
#: no spans of their own.  Looked up by name at run time: one a later PR
#: removes is skipped and its metric reads null.
_BRACKETS = [
    # the planner, as bound where the GridCCM runtime calls it
    ("repro.core.runtime", None, "redistribute_schedule",
     "core.plan", "core.plans_built"),
    # CDR marshalling, as bound where the ORB calls it
    ("repro.corba.orb", None, "encode_value", "corba.cdr", "cdr.encode"),
    ("repro.corba.orb", None, "decode_value", "corba.cdr", "cdr.decode"),
    ("repro.mpi", "Comm", "Send", "mpi", "mpi.pt2pt_calls"),
    ("repro.mpi", "Comm", "Recv", "mpi", "mpi.pt2pt_calls"),
    ("repro.mpi", "Comm", "send", "mpi", "mpi.pt2pt_calls"),
    ("repro.mpi", "Comm", "recv", "mpi", "mpi.pt2pt_calls"),
    ("repro.mpi", "Comm", "Isend", "mpi", "mpi.pt2pt_calls"),
    ("repro.mpi", "Comm", "Irecv", "mpi", "mpi.pt2pt_calls"),
    ("repro.net.flows", "FlowNetwork", "start_flow", "net", "net.start"),
    ("repro.net.flows", "FlowNetwork", "start_flows", "net", "net.start"),
]


class LedgerTracer(PlainTracer):
    """The wall-clock ledger (see :mod:`benchmarks.e2e.ledger`)."""

    def __init__(self) -> None:
        import importlib

        self.ledger = Ledger()
        #: bucket -> whether any of its entry points could be bracketed
        self.bracketed: dict[str, bool] = {}
        for module, holder, name, bucket, counter in _BRACKETS:
            owner = importlib.import_module(module)
            if holder is not None:
                owner = getattr(owner, holder, None)
            found = owner is not None and self.ledger.bracket(
                owner, name, bucket, count_as=counter)
            self.bracketed[bucket] = self.bracketed.get(bucket, False) \
                or found

    def observe(self, kernel: Any, runtime: Any, network: Any) -> None:
        _attach(self.ledger, kernel, runtime, network)

    def ready(self, rep: Any) -> None:
        for owner, name in rep.app_hooks:
            self.ledger.bracket(owner, name, "app")
        self.ledger.start()

    def done(self) -> None:
        self.ledger.stop()
        self.ledger.restore()

    def results(self, rep: Any) -> dict:
        ledger = self.ledger
        calls = ledger.calls
        built = calls.get("core.plans_built")
        # every client call and every piece a server gathers looks a
        # plan up; built / looked-up is the share that missed the cache
        needed = calls.get("gridccm.call", 0) + calls.get("gridccm.gather", 0)
        counts = {
            "mpi.pt2pt_calls": calls.get("mpi.pt2pt_calls"),
            "core.plans_built": built,
            "core.plan_reuse_ratio":
                (1.0 - built / needed if needed else 0.0)
                if built is not None else None,
        }
        self.bracketed["sim.switch"] = ledger.sees_switches
        return {"ledger_wall_s": ledger.wall,
                "buckets": dict(ledger.buckets),
                "counts": counts, "bracketed": dict(self.bracketed)}


def make(kind: str) -> PlainTracer:
    return {"plain": PlainTracer, "recorder": RecorderTracer,
            "ledger": LedgerTracer}[kind]()
