"""The census's recorders (``benchmarks.census``): which defaulted
parameters a profiled step binds to another value, which monitor hook
guards it passes with no monitor attached, and what each cost constant
moves; and the block writer (``benchmarks.blocks``) that puts its
tables into the documents."""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

from benchmarks import census
from benchmarks.blocks import render_blocks
from benchmarks.census import (
    CONSTANT_VERDICTS,
    TIER1_HOOK_TESTS,
    Recorder,
    _import,
    cost_constants,
    hook_rows,
    hook_sites,
    library_modules,
    option_rows,
    render_constants,
    render_hooks,
    render_options,
    run_workloads,
    sweep,
)
from benchmarks.e2e import inputs, spec, workloads
from repro.obs import BenchResult


def _callee(a, b=1, c=None, d=(1, 2)):
    return a


def _never_called(x=0):
    return x


def test_recorder_attributes_each_varied_default_to_its_step():
    recorder = Recorder()
    recorder.watch([_callee, _never_called])
    with recorder.profiling(1):
        _callee(0, 1, None)          # defaults passed explicitly
        _callee(0, d=tuple([1, 2]))  # == its default: not varied
    with recorder.profiling(2):
        _callee(0, b=2)
        _callee(0, c="x", b=3)
    rows = option_rows(recorder, {"toy.py": [_callee, _never_called]})
    assert rows == {
        ("toy.py", "_callee", "b"): (2, True),
        ("toy.py", "_callee", "c"): (2, True),
        ("toy.py", "_callee", "d"): (None, True),
        ("toy.py", "_never_called", "x"): (None, False),
    }
    table, never = render_options(rows)
    text = table + never
    assert "| `toy.py` | `_callee` | `d` |" in text
    assert "| `toy.py` | `_never_called` (never called) | `x` |" in text
    # 4 defaulted: 4 never varied after step 1, 2 after step 2
    assert "| total | 4 | 4 (100 %) | 2 (50 %) |" in text


_TOY = '''\
class Layer:
    def __init__(self, monitor):
        self.monitor = monitor

    def send(self, n):
        mon = self.monitor
        if mon is not None:
            mon.on_counter("sent", n)
        return n

    def early(self):
        mon = self.monitor
        if mon is None:
            return 0
        mon.on_span_start("x")
        return 1

    def close(self, dropped):
        if self.monitor is not None and dropped:
            self.monitor.on_release(
                "p", "o", dropped)

    def never(self):
        if self.monitor is not None:
            self.monitor.on_claim("c")

    def bare(self):
        self.monitor.on_flow_end(1)

    def branch_local(self):
        mon = self.monitor
        if mon is not None:
            pass
        mon.on_flow_end(2)

    def no_early_out(self):
        if self.monitor is None:
            pass
        self.monitor.on_flow_end(3)

    def wrong_guard(self, tracer):
        if tracer is not None:
            self.monitor.on_flow_end(4)


def helper(monitor):
    monitor.on_flow_end(5)
'''


class _Monitor:
    def __getattr__(self, name):
        return lambda *args: None


def test_hook_recorder_sees_which_guards_run_without_a_monitor(tmp_path):
    path = tmp_path / "toy_layer.py"
    path.write_text(_TOY)
    hooks = {"on_counter", "on_span_start", "on_release", "on_claim",
             "on_flow_end"}
    sites = hook_sites("toy.py", path, hooks)
    assert [(s.line, s.hook, s.function) for s in sites] == [
        (8, "on_counter", "Layer.send"),
        (15, "on_span_start", "Layer.early"),
        (20, "on_release", "Layer.close"),
        (25, "on_claim", "Layer.never"),
        (28, "on_flow_end", "Layer.bare"),
        (34, "on_flow_end", "Layer.branch_local"),
        (39, "on_flow_end", "Layer.no_early_out"),
        (43, "on_flow_end", "Layer.wrong_guard"),
        (47, "on_flow_end", "helper")]
    guards = [s.guard for s in sites]
    assert [(g.key[1], g.body, g.exits) for g in guards[:4]] == [
        (7, (8, 8), False), (13, (14, 14), True), (19, (20, 21), False),
        (24, (25, 25), False)]
    # no guard: the call itself, one after a branch-local guard or a
    # fall-through None branch, one under a guard on another name, and
    # a helper handed the monitor
    assert guards[4:] == [None] * 5
    sites = sites[:5]

    spec = importlib.util.spec_from_file_location("toy_layer", path)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    recorder = Recorder()
    recorder.watch_guards({"toy.py": path}, sites)
    with recorder.profiling(1):
        toy.Layer(None).send(1)
        toy.Layer(_Monitor()).early()    # monitor attached: not counted
        toy.Layer(_Monitor()).close(3)
    with recorder.profiling(2):
        toy.Layer(None).early()
        toy.Layer(None).close(3)
    rows = hook_rows(recorder, sites)
    assert [rows[s] for s in sites] == [1, 2, 2, None, None]
    text, ok = render_hooks(rows)
    assert not ok      # one site unguarded, one missed and unnamed
    assert "| `toy.py:25` (`Layer.never`) | `on_claim` | line 24 " \
        "| **none** |" in text
    assert "| `toy.py:28` (`Layer.bare`) | `on_flow_end` | **none** " \
        "| **none** |" in text
    assert "| total | 5 | 4 (80 %) | 2 (40 %) |" in text


def test_every_named_hook_test_exists():
    root = Path(__file__).resolve().parent.parent
    for test in set(TIER1_HOOK_TESTS.values()):
        path, name = test.split("::")
        assert f"\ndef {name}(" in (root / path).read_text(), test


_COSTS = """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Wire:
    name: str
    latency: float
    spare: float = 0.0


FAST = Wire("fast", 2.0)
IDLE: float = 3.0
TINY = 2e-15
_PRIVATE = 5.0
COUNT = 7
"""


def _load(tmp_path, name, text):
    path = tmp_path / f"{name}.py"
    path.write_text(text)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_constant_sweep_tells_a_dependency_from_a_last_bit(tmp_path,
                                                            monkeypatch):
    path, costs = _load(tmp_path, "toy_costs", _COSTS)
    # a second module holding TINY imported by name, as orb.py holds
    # COLLOCATED_OVERHEAD: the sweep must scale it there too
    user = types.ModuleType("toy_user")
    user.TINY = costs.TINY
    monkeypatch.setitem(sys.modules, "toy_user", user)
    constants = cost_constants("toy.py", path, costs)
    assert [(c.name, c.value) for c in constants] == [
        ("FAST.latency", 2.0), ("IDLE", 3.0), ("TINY", 2e-15)]

    def collect():
        return [BenchResult("toy.a", "s", ((1, costs.FAST.latency * 2),
                                           (2, 1.0))),
                BenchResult("toy.b", "s", ((1, 1.0 + user.TINY),))]

    rows, total, repeats = sweep(constants, collect)
    assert total == 2 and repeats
    assert [(r.moved, r.relative, r.ulps > 0) for r in rows[:2]] == [
        (("toy.a",), 0.10000000000000009, True), ((), 0.0, False)]
    assert rows[2].moved == ("toy.b",) and rows[2].ulps == 1.0
    # every constant is back where it was
    assert (costs.FAST.latency, costs.IDLE, costs.TINY, user.TINY) == \
        (2.0, 3.0, 2e-15, 2e-15)

    verdicts = {("toy.py", "FAST.latency"): ("Fig. 0: 4 s", "pinned"),
                ("toy.py", "IDLE"): ("none", "a tier-1 test"),
                ("toy.py", "TINY"): ("none", "rounding only")}
    text, ok = render_constants(rows, total, repeats, verdicts)
    assert ok
    assert "| `toy.py` `FAST.latency` | 2 | Fig. 0: 4 s | 1: `toy.a` " \
        "| 1.0e-01 | pinned |" in text
    assert "| `toy.py` `IDLE` | 3 | none | none | — | a tier-1 test |" in text
    assert "| `toy.py` `TINY` | 2e-15 | none | 1: `toy.b` " \
        "| last bit (1 ulp) | rounding only |" in text

    # a constant with no verdict, or a verdict with no constant: exit 1
    missing = dict(verdicts)
    del missing[("toy.py", "IDLE")]
    text, ok = render_constants(rows, total, repeats, missing)
    assert not ok and "| `toy.py` `IDLE` | 3 | **none** |" in text
    stale = {**verdicts, ("toy.py", "GONE"): ("none", "deleted")}
    text, ok = render_constants(rows, total, repeats, stale)
    assert not ok and "A verdict names no constant: `toy.py` `GONE`" in text


def test_sweep_reports_a_run_that_does_not_repeat(tmp_path):
    path, costs = _load(tmp_path, "toy_costs2", _COSTS)
    cache = {}

    def collect():
        # a cache that outlives the scaling leaves the constant scaled
        if costs.IDLE != 3.0:
            cache["idle"] = costs.IDLE
        return [BenchResult("toy.a", "s",
                            ((1, cache.get("idle", costs.IDLE)),))]

    rows, total, repeats = sweep(cost_constants("toy.py", path, costs),
                                 collect)
    assert not repeats
    text, ok = render_constants(rows, total, repeats, {
        ("toy.py", name): ("none", "kept")
        for name in ("FAST.latency", "IDLE", "TINY")})
    assert not ok and "a constant was left scaled" in text


def test_every_cost_constant_has_a_verdict():
    found = {(c.module, c.name) for module, path in library_modules().items()
             for c in cost_constants(module, path, _import(module))}
    assert found == set(CONSTANT_VERDICTS)


_DOC = """\
# Toy

Prose with a count nobody generates: 7.

<!-- generated: counts -->
| x | 1 |
<!-- end generated -->

Between the blocks.

<!-- generated: total -->
<!-- end generated -->
"""


def test_block_writer_owns_every_number_inside_a_block():
    blocks = {"counts": "| x | 2 |\n", "total": "2\n"}
    once = render_blocks(_DOC, blocks, "toy.md")
    assert render_blocks(once, blocks, "toy.md") == once
    assert once == _DOC.replace("| x | 1 |\n", "\n| x | 2 |\n\n") \
        .replace("<!-- generated: total -->\n",
                 "<!-- generated: total -->\n\n2\n\n")
    # a hand edit inside a block is overwritten; prose outside is kept
    edited = once.replace("| x | 2 |", "| x | 3 |").replace(": 7.", ": 8.")
    assert render_blocks(edited, blocks, "toy.md") == \
        once.replace(": 7.", ": 8.")


@pytest.mark.parametrize("blocks", [
    {"counts": ""},                              # the document has more
    {"counts": "", "total": "", "extra": ""},    # the writer has more
    {"counts": "", "totals": ""},                # one name differs
])
def test_block_writer_refuses_a_document_with_other_blocks(blocks):
    with pytest.raises(ValueError, match="toy.md blocks"):
        render_blocks(_DOC, blocks, "toy.md")


class _FailingWorkload:
    """Builds nothing and reports 2 of its 5 operations failed."""

    def __init__(self, const, inputs):
        pass

    def build(self, observe):
        return types.SimpleNamespace(stages=[])

    def check(self, rep):
        return workloads.Outcome(ops=5, failed=2, op_times=[])


def test_a_failed_operation_fails_the_census(monkeypatch, capsys):
    """A repetition whose operations failed gives no census A row: the
    census names the workload and the count, writes no document and
    exits 1.  Only ``run_workloads`` runs, over a stub workload."""
    monkeypatch.setattr(workloads, "WORKLOAD_CLASSES",
                        {"stub": _FailingWorkload})
    monkeypatch.setattr(spec, "WORKLOADS", {"stub": {"smoke": {}}})
    monkeypatch.setattr(inputs, "make_inputs", lambda *args: {})
    written = []

    def stub_census():
        run_workloads("smoke")
        raise AssertionError("the failed repetition was counted")

    monkeypatch.setattr(census, "census", stub_census)
    monkeypatch.setattr(census, "write_documents", written.append)
    assert census.main() == 1
    assert written == []
    assert "stub (smoke): 2 of 5 operations failed" in capsys.readouterr().err
