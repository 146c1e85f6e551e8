"""The census's recorders (``benchmarks.census``): which defaulted
parameters a profiled step binds to another value, and which monitor
hook guards it passes with no monitor attached."""

import importlib.util
from pathlib import Path

from benchmarks.census import (
    TIER1_HOOK_TESTS,
    Recorder,
    hook_rows,
    hook_sites,
    option_rows,
    render_hooks,
    render_options,
)


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
    text = render_options(rows)
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
