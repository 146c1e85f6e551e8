"""Tests for the perf-* hot-path performance rules."""

from __future__ import annotations

from tests.analysis.conftest import lint_text

PERF = {"perf-list-pop0", "perf-bytes-concat", "perf-getvalue-loop",
        "perf-tobytes-hot", "perf-route-in-loop"}

#: a module path inside the zero-copy wire directories
HOT_PATH = "src/repro/corba/snippet.py"


def perf_findings(source: str):
    return lint_text(source, rules=PERF)


def rules_at(findings) -> list[tuple[str, int]]:
    """(rule, line) of each finding; line 1 is a snippet's blank first
    line."""
    return [(f.rule, f.line) for f in findings]


# ---------------------------------------------------------------------------
# perf-list-pop0
# ---------------------------------------------------------------------------

def test_pop0_flagged():
    findings = perf_findings("""
        def drain(queue):
            while queue:
                item = queue.pop(0)
                handle(item)

        def collect(queue):
            out = []
            while queue:
                out.append(queue.pop(0))
            return out
    """)
    assert rules_at(findings) == [("perf-list-pop0", 4),
                                  ("perf-list-pop0", 10)]
    assert "deque" in findings[0].message


def test_pop0_flagged_outside_loops_too():
    # a single pop(0) is still O(n); the rule is positional, not loop-gated
    findings = perf_findings("""
        def first(waiters):
            return waiters.pop(0)
    """)
    assert [f.rule for f in findings] == ["perf-list-pop0"]


def test_pop_other_forms_clean():
    assert perf_findings("""
        def ok(queue, table):
            queue.pop()          # tail pop is O(1)
            queue.pop(-1)
            table.pop("key", 0)  # two-arg dict pop
            queue.popleft()
    """) == []


# ---------------------------------------------------------------------------
# perf-bytes-concat
# ---------------------------------------------------------------------------

def test_bytes_concat_in_loop_flagged():
    findings = perf_findings("""
        def assemble(chunks):
            buf = b""
            for chunk in chunks:
                buf += chunk
            return buf
    """)
    assert rules_at(findings) == [("perf-bytes-concat", 5)]
    assert "bytearray" in findings[0].message


def test_bytes_call_concat_in_while_flagged():
    findings = perf_findings("""
        def pad(n):
            out = bytes(4)
            while n > 0:
                out += b"\\x00"
                n -= 1
            return out
    """)
    assert [f.rule for f in findings] == ["perf-bytes-concat"]


def test_bytes_concat_outside_loop_clean():
    assert perf_findings("""
        def frame(header, body):
            msg = b"GIOP" + header
            msg += body
            return msg
    """) == []


def test_int_accumulation_clean():
    assert perf_findings("""
        def total(sizes):
            acc = 0
            for n in sizes:
                acc += n
            return acc
    """) == []


def test_bytearray_accumulation_clean():
    assert perf_findings("""
        def assemble(chunks):
            buf = bytearray()
            for chunk in chunks:
                buf += chunk
            return bytes(buf)
    """) == []


def test_loop_local_function_resets_depth():
    # the inner function body is not (lexically) running per iteration
    assert perf_findings("""
        def outer(items):
            for item in items:
                def once():
                    data = b"x"
                    data = data + item
                    return data
                yield once
    """) == []


# ---------------------------------------------------------------------------
# perf-getvalue-loop
# ---------------------------------------------------------------------------

def test_getvalue_in_loop_flagged():
    findings = perf_findings("""
        def send_all(out, links):
            for link in links:
                link.push(out.getvalue())
    """)
    assert rules_at(findings) == [("perf-getvalue-loop", 4)]


def test_getvalue_hoisted_clean():
    assert perf_findings("""
        def send_all(out, links):
            data = out.getvalue()
            for link in links:
                link.push(data)
    """) == []


def test_getvalue_in_while_flagged():
    findings = perf_findings("""
        def poll(out):
            while live():
                inspect(out.getvalue())
    """)
    assert [f.rule for f in findings] == ["perf-getvalue-loop"]


# ---------------------------------------------------------------------------
# perf-tobytes-hot
# ---------------------------------------------------------------------------

def hot_findings(source: str, path: str = HOT_PATH):
    return lint_text(source, path=path, rules=PERF)


def test_tobytes_flagged_in_hot_dir():
    findings = hot_findings("""
        def marshal(arr, out):
            out.write(arr.tobytes())
    """)
    assert [f.rule for f in findings] == ["perf-tobytes-hot"]
    assert "write_bulk" in findings[0].message


def test_tobytes_flagged_in_every_hot_dir():
    for path in ("src/repro/corba/x.py", "src/repro/padicotm/sub/x.py",
                 "src/repro/mpi/x.py", "src/repro/core/x.py"):
        findings = hot_findings("""
            def marshal(arr):
                return arr.tobytes()
        """, path=path)
        assert [f.rule for f in findings] == ["perf-tobytes-hot"], path


def test_tobytes_silent_outside_hot_dirs():
    assert hot_findings("""
        def marshal(arr):
            return arr.tobytes()
    """, path="src/repro/sim/x.py") == []
    assert hot_findings("""
        def marshal(arr):
            return arr.tobytes()
    """, path="examples/demo.py") == []


def test_bytes_of_memoryview_name_flagged():
    findings = hot_findings("""
        def flatten(buf):
            view = memoryview(buf)
            return bytes(view)
    """)
    assert [f.rule for f in findings] == ["perf-tobytes-hot"]
    assert "bytes(memoryview)" in findings[0].message


def test_bytes_of_memoryview_call_flagged():
    findings = hot_findings("""
        def flatten(buf):
            return bytes(memoryview(buf))
    """)
    assert [f.rule for f in findings] == ["perf-tobytes-hot"]


def test_bytes_of_memoryview_slice_flagged():
    # slicing a memoryview yields a memoryview; copying the slice is
    # still a wire-path copy
    findings = hot_findings("""
        def head(buf, n):
            view = memoryview(buf)
            return bytes(view[:n])
    """)
    assert [f.rule for f in findings] == ["perf-tobytes-hot"]


def test_bytes_of_plain_name_clean():
    # bytes() over something not known to be a memoryview is fine
    # (bytes(bytearray) at a deliberate flush point, bytes(int), ...)
    assert hot_findings("""
        def flush(buf):
            return bytes(buf)
    """) == []


def test_getvalue_in_loop_in_hot_dir_reports_both_rules():
    findings = hot_findings("""
        def send_all(out, links):
            for link in links:
                link.push(out.getvalue())
    """)
    assert sorted(f.rule for f in findings) == \
        ["perf-getvalue-loop", "perf-tobytes-hot"]


def test_getvalue_outside_loop_in_hot_dir_clean():
    # one join at a deliberate materialisation point is the contract
    assert hot_findings("""
        def finish(out):
            return out.getvalue()
    """) == []


# ---------------------------------------------------------------------------
# perf-route-in-loop
# ---------------------------------------------------------------------------

def test_route_invariant_in_loop_flagged():
    findings = perf_findings("""
        def spam(topo, src, dst, n):
            for _ in range(n):
                path = topo.route(src, dst)
                send(path)
    """)
    assert rules_at(findings) == [("perf-route-in-loop", 4)]
    assert "hoist" in findings[0].message


def test_route_invariant_in_while_flagged():
    findings = perf_findings("""
        def spam(fabric, a, b):
            while pending():
                fabric.route(a, b, "san")
    """)
    assert rules_at(findings) == [("perf-route-in-loop", 4)]


def test_route_invariant_attr_receiver_flagged():
    findings = perf_findings("""
        class Mover:
            def drain(self, src, dst, chunks):
                for chunk in chunks:
                    hops = self.topo.route(src, dst, self.fabric)
                    push(hops, chunk)
    """)
    assert rules_at(findings) == [("perf-route-in-loop", 5)]


def test_route_loop_var_arg_silent():
    assert perf_findings("""
        def fan_out(topo, src, hosts):
            for dst in hosts:
                topo.route(src, dst)
    """) == []


def test_route_loop_var_receiver_silent():
    assert perf_findings("""
        def probe(fabrics, a, b):
            for fab in fabrics:
                fab.route(a, b)
    """) == []


def test_route_loop_var_fstring_arg_silent():
    # f-string fabric names built from the loop variable vary per
    # iteration — the grid generator's idiom
    assert perf_findings("""
        def wire(topo, a, b, sites):
            for s in sites:
                topo.route(a, b, f"{s}-san")
    """) == []


def test_route_invariant_fstring_arg_flagged():
    findings = perf_findings("""
        def wire(topo, a, b, site):
            for _ in range(3):
                topo.route(a, b, f"{site}-san")
    """)
    assert rules_at(findings) == [("perf-route-in-loop", 4)]


def test_route_rebound_arg_silent():
    # src is reassigned inside the loop body, even after the call —
    # it varies between iterations
    assert perf_findings("""
        def walk(topo, src, dst):
            while src != dst:
                hop = topo.route(src, dst)
                src = hop[0].dst
    """) == []


def test_route_call_arg_silent():
    # calls are never provably invariant
    assert perf_findings("""
        def spam(topo, dst, n):
            for _ in range(n):
                topo.route(pick_src(), dst)
    """) == []


def test_route_starred_and_kwargs_silent():
    assert perf_findings("""
        def spam(topo, pair, kw, n):
            for _ in range(n):
                topo.route(*pair)
                topo.route("a", "b", **kw)
    """) == []


def test_route_loop_var_keyword_silent():
    assert perf_findings("""
        def spam(topo, a, b, fabrics):
            for fab in fabrics:
                topo.route(a, b, fabric=fab)
    """) == []


def test_route_invariant_keyword_flagged():
    findings = perf_findings("""
        def spam(topo, a, b, fab, n):
            for _ in range(n):
                topo.route(a, b, fabric=fab)
    """)
    assert [f.rule for f in findings] == ["perf-route-in-loop"]


def test_route_outside_loop_silent():
    assert perf_findings("""
        def once(topo, src, dst):
            return topo.route(src, dst)

        def hoisted(topo, src, dst, payloads):
            # the fix the rule asks for
            path = topo.route(src, dst)
            for payload in payloads:
                push(path, payload)
    """) == []


def test_route_single_arg_silent():
    # not the Topology/Fabric route(src, dst, ...) signature
    assert perf_findings("""
        def dispatch(router, msg, n):
            for _ in range(n):
                router.route(msg)
    """) == []


def test_route_in_loop_local_function_silent():
    # the inner function runs elsewhere, not per iteration
    assert perf_findings("""
        def outer(topo, src, dst, items):
            for item in items:
                def resolve():
                    return topo.route(src, dst)
                yield resolve
    """) == []


# ---------------------------------------------------------------------------
# the family's rule table
# ---------------------------------------------------------------------------

def test_rules_registered():
    from repro.analysis import CHECKERS

    assert PERF <= {rule for checker in CHECKERS for rule in checker.rules}
