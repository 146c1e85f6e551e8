"""Transitive blocking-call detection (``ker-block-deep``)."""

from __future__ import annotations

WRAPPED = {
    "wrap.py": """\
        import time

        def backoff(delay):
            time.sleep(delay)

        def retry_loop(task):
            task()
            backoff(0.1)
    """,
}


def test_direct_rules_miss_the_wrapped_call(lint_project):
    # regression for the pre-v2 blind spot: the direct ker-* rules see
    # only the helper's body — the caller's line is invisible to them
    found = lint_project(WRAPPED)
    direct = [f for f in found if f.rule == "ker-sleep"]
    assert [f.line for f in direct] == [4]          # inside the helper
    assert all(f.line != 8 for f in direct)          # never the caller


def test_deep_rule_flags_the_wrapping_call_site(lint_project):
    found = lint_project(WRAPPED, rules={"ker-block-deep"})
    (f,) = found
    assert (f.path, f.line) == ("wrap.py", 8)
    assert "time.sleep" in f.message
    assert "ker-sleep at wrap.py:4" in f.message
    assert "backoff()" in f.message


def test_chain_is_reported_across_two_hops(lint_project):
    found = lint_project({"m.py": """\
        import time

        def nap():
            time.sleep(1.0)

        def settle():
            nap()

        def drive():
            settle()
    """}, rules={"ker-block-deep"})
    by_line = {f.line: f for f in found}
    assert set(by_line) == {7, 10}
    assert "settle() -> nap()" in by_line[10].message


def test_mutual_recursion_converges_and_flags_all_sites(lint_project):
    found = lint_project({"m.py": """\
        import time

        def ping(n):
            if n:
                return pong(n - 1)
            return 0

        def pong(n):
            time.sleep(0.01)
            return ping(n)

        def drive():
            return ping(3)
    """}, rules={"ker-block-deep"})
    assert {f.line for f in found} == {5, 10, 13}


def test_suppressed_origin_is_sanitized_out(lint_project):
    # a justified (inline-suppressed) blocking use must not poison its
    # callers: the justification covers them too
    found = lint_project({"m.py": """\
        import time

        def calibrate(delay):
            time.sleep(delay)  # repro-lint: disable=ker-sleep

        def warm_up():
            calibrate(0.5)
    """})
    assert [f for f in found if f.rule.startswith("ker-")] == []


def test_inline_suppression_applies_to_project_findings(lint_project):
    # the engine filters project-phase findings through the reporting
    # file's pragmas exactly as it filters per-file ones
    found = lint_project({"m.py": """\
        import time

        def backoff(delay):
            time.sleep(delay)

        def retry(task):
            task()
            backoff(0.1)  # repro-lint: disable=ker-block-deep
    """}, rules={"ker-block-deep"})
    assert found == []


def test_cross_file_blocking_helper(lint_project):
    found = lint_project({
        "util.py": """\
            import threading

            def make_gate():
                return threading.Event()
        """,
        "node.py": """\
            from util import make_gate

            def install(node):
                node.gate = make_gate()
        """,
    }, rules={"ker-block-deep"})
    (f,) = found
    assert (f.path, f.line) == ("node.py", 4)
    assert "ker-thread" in f.message


def test_blocking_wrapper_of_decorated_collective_flags_callers(lint_project):
    # regression: calling a decorated function runs the decorator's
    # wrapper closure, so wrapper-side blocking must reach call sites
    # of the *decorated* function — the exact shape of the MPI
    # ``@_collective`` observability wrapper
    found = lint_project({"comm.py": """\
        import functools
        import time

        def _collective(op):
            def deco(fn):
                @functools.wraps(fn)
                def wrapper(self, *args, **kwargs):
                    time.sleep(0.001)
                    return fn(self, *args, **kwargs)
                return wrapper
            return deco

        class Comm:
            @_collective("bcast")
            def bcast(self, buf):
                return buf

        def exchange(comm, buf):
            comm.bcast(buf)
    """}, rules={"ker-block-deep"})
    by_line = {f.line: f for f in found}
    # the caller of the decorated collective is flagged, and the chain
    # goes through the wrapper closure the decorator installed
    assert 19 in by_line
    assert "time.sleep" in by_line[19].message
    assert "bcast() -> wrapper()" in by_line[19].message
