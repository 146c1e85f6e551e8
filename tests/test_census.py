"""The census's option recorder (``benchmarks.census``): which
defaulted parameters a profiled step binds to another value."""

from benchmarks.census import Recorder, option_rows, render_options


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
