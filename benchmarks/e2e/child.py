"""The measuring child: one workload, one fresh process, one CPU.

Reads a request (workload, constants, seeded inputs, how long to
measure, whether to trace) as JSON on stdin, runs the protocol and
writes one JSON result on stdout:

    pin to one CPU -> import repro (timed) -> prepare payloads ->
    one untimed warm-up repetition -> repetitions until the time is up

Untraced mode runs plain repetitions (build, timed drive, oracle check).
Traced mode cycles plain / recorder / ledger repetitions, so the
per-layer numbers and the overhead ratios come from the same minutes of
machine state.  Every repetition of every kind must reach the same
virtual time and digest, or all operations of the workload count as
failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import time

from benchmarks.e2e import spec, tracing


def pin_to_one_cpu() -> int | None:
    """The simulator is one-at-a-time cooperative, so one core is the
    honest resource — and unpinned thread hand-offs between two cores
    made identical repetitions take 0.87-2.87 s here (ISSUE 11)."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
        cpu = allowed[-1]
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (AttributeError, OSError):
        return None


def _digest(virt_s: float, events: int, op_times: list[float]) -> str:
    h = hashlib.sha256()
    h.update(repr((virt_s, events)).encode())
    h.update(repr(op_times).encode())
    return h.hexdigest()


def _settled_thread_count(baseline: int) -> int:
    """Simulated threads end just after ``shutdown()`` hands control
    back; give them a moment before calling one leaked."""
    deadline = time.perf_counter() + 0.2
    while threading.active_count() > baseline \
            and time.perf_counter() < deadline:
        time.sleep(0.001)
    return threading.active_count() - baseline


class Measurement:
    """Runs repetitions of one prepared workload and keeps the samples."""

    def __init__(self, workload, import_s: float) -> None:
        self.workload = workload
        #: the one-off import of repro in this child (part of ``setup_s``)
        self.import_s = import_s
        self.plain: list[dict] = []
        self.recorded: list[dict] = []
        self.ledgered: list[dict] = []
        self.signatures: set[tuple[float, str]] = set()
        self.attempted = 0
        self.failed = 0
        self.model: dict[str, float] = {}

    # -- one repetition -----------------------------------------------------
    def repetition(self, kind: str) -> dict:
        gc.collect()
        threads_before = threading.active_count()
        tracer = tracing.make(kind)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        rep = self.workload.build(tracer.observe)
        tracer.ready(rep)
        # as timeit does: the cyclic collector pauses in the timed region
        # (reference counting still frees), so neither wall_s nor
        # peak_rss_mb depends on where a collection happens to land
        gc.disable()
        error = None
        t1 = time.perf_counter()
        try:
            for stage in rep.stages:
                stage.drive()
        except Exception as exc:  # an operation raised
            error = repr(exc)
        finally:
            t2 = time.perf_counter()
            gc.enable()
        tracer.done()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        leaked = _settled_thread_count(threads_before)
        if error is None:
            try:
                outcome = self.workload.check(rep)
                virt_s = sum(stage.virt_end() for stage in rep.stages)
            except Exception as exc:  # the run left nothing checkable
                error = repr(exc)
        if error is not None:
            # every operation of a repetition that raised counts as failed
            outcome = self.workload.all_failed(error)
            virt_s = sum(stage.kernel.now for stage in rep.stages)
        events = sum(stage.kernel.events_processed for stage in rep.stages)
        digest = _digest(virt_s, events, outcome.op_times)
        sample = {
            "kind": kind, "wall_s": t2 - t1, "setup_s": t1 - t0,
            "virt_s": virt_s, "digest": digest, "ops": outcome.ops,
            "failed": outcome.failed, "error": error,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime)
            + (ru1.ru_stime - ru0.ru_stime),
            "sys_s": ru1.ru_stime - ru0.ru_stime,
            "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
            "threads_leaked": leaked,
        }
        sample.update(tracer.results(rep))
        self.model = outcome.model or self.model
        return sample

    def keep(self, sample: dict) -> None:
        {"plain": self.plain, "recorder": self.recorded,
         "ledger": self.ledgered}[sample["kind"]].append(sample)
        self.signatures.add((sample["virt_s"], sample["digest"]))
        self.attempted += sample["ops"]
        self.failed += sample["failed"]

    # -- the protocol -------------------------------------------------------
    def run(self, seconds: float, trace: bool, reps: int | None) -> None:
        self.repetition("plain")  # warm-up: caches fill, lazy set-up ends
        kinds = ("plain", "recorder", "ledger") if trace else ("plain",)
        least = reps if reps is not None \
            else spec.MIN_TRACED_ROUNDS if trace else spec.MIN_REPS
        start = time.perf_counter()
        rounds = 0
        while rounds < least or (reps is None
                                 and time.perf_counter() - start < seconds):
            for kind in kinds:
                self.keep(self.repetition(kind))
            rounds += 1
        if len(self.signatures) > 1:
            # not deterministic: nothing this workload computed counts
            self.failed = self.attempted


_median = statistics.median


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(m: Measurement) -> dict:
    walls = [s["wall_s"] for s in m.plain]
    setups = [s["setup_s"] + m.import_s for s in m.plain]
    out = {}
    for name, values in (("wall_s", walls), ("setup_s", setups)):
        q1, q3 = _quartiles(values)
        out[name] = {"value": _median(values), "q1": q1, "q3": q3,
                     "reps": values}
    out["peak_rss_mb"] = {"value": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    out["virt_s"] = {"value": m.plain[0]["virt_s"]}
    return out


def per_layer(m: Measurement, workload_name: str) -> tuple[dict, dict]:
    """(metric name -> value or None, ledger table) from the traced
    repetitions.  Counts come from the first recorder/ledger repetition
    (they repeat exactly — checked); wall self times are medians over
    the ledger repetitions."""
    rec, led = m.recorded[0], m.ledgered[0]
    values: dict[str, float | None] = {
        name: None for name, _u, _b, _s in spec.PER_LAYER}
    values.update(rec["counts"])
    values.update(led["counts"])
    wall = _median([s["wall_s"] for s in m.plain])
    traced = _median([s["ledger_wall_s"] for s in m.ledgered])
    buckets = sorted({b for s in m.ledgered for b in s["buckets"]})
    wall_by_bucket = {b: _median([s["buckets"].get(b, 0.0)
                                  for s in m.ledgered]) for b in buckets}
    for bucket, metric in spec.BUCKET_METRIC.items():
        if led["bracketed"].get(bucket, True):
            values[metric] = wall_by_bucket.get(bucket, 0.0)
    values["harness.traced_wall_s"] = traced
    values["harness.ledger_unmapped_share"] = \
        wall_by_bucket.get("unmapped", 0.0) / traced
    values["harness.ledger_overhead_ratio"] = \
        _median([s["wall_s"] for s in m.ledgered]) / wall
    values["obs.recorder_overhead_ratio"] = \
        _median([s["wall_s"] for s in m.recorded]) / wall
    for name in ("cpu_s", "sys_s", "minor_faults"):
        values[f"host.{name}"] = _median([s[name] for s in m.plain])
    values["sim.threads_leaked"] = max(s["threads_leaked"] for s in m.plain)
    for name, (source, _paper, _note) in spec.MODEL_REFERENCE.items():
        if source == workload_name:
            values[name] = m.model.get(name)
    # exact counts must repeat across traced repetitions of one seed
    stable = all(s["counts"] == rec["counts"] for s in m.recorded) \
        and all(s["counts"] == led["counts"] for s in m.ledgered)
    virt = rec["virt_by_layer"]
    virt_total = sum(virt.values()) or 1.0
    table = {
        "traced_wall_s": traced,
        "bucket_sum_s": sum(wall_by_bucket.values()),
        "counts_repeat": stable,
        "buckets": {
            b: {"wall_s": wall_by_bucket.get(b, 0.0),
                "wall_share": wall_by_bucket.get(b, 0.0) / traced,
                "virt_s": virt.get(b, 0.0),
                "virt_share": virt.get(b, 0.0) / virt_total}
            for b in sorted(set(buckets) | set(virt))},
    }
    return values, table


def main() -> int:
    request = json.load(sys.stdin)
    cpu = pin_to_one_cpu()
    import numpy  # noqa: F401  (third-party imports are not repro's cost)
    try:
        import networkx  # noqa: F401
    except ImportError:
        pass
    t0 = time.perf_counter()
    import repro.obs  # noqa: F401  (the recorder of the traced repetitions)
    from benchmarks.e2e import workloads  # every package on the run path
    import_s = time.perf_counter() - t0

    cls = workloads.WORKLOAD_CLASSES[request["workload"]]
    workload = cls(request["constants"], request["inputs"],
                   fault=request.get("fault"))
    m = Measurement(workload, import_s)
    m.run(request["seconds"], request["trace"], request.get("reps"))
    result = {
        "workload": request["workload"], "cpu": cpu,
        "import_s": import_s,
        "attempted": m.attempted, "failed": m.failed,
        "errors": sorted({s["error"] for s in m.plain + m.recorded
                          + m.ledgered if s["error"]}),
        "deterministic": len(m.signatures) == 1,
        "virt_digest": m.plain[0]["digest"],
        "reps": len(m.plain),
        "end_to_end": end_to_end(m),
    }
    if request["trace"]:
        result["per_layer"], result["ledger"] = per_layer(
            m, request["workload"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
