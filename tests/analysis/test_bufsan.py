"""Zero-copy buffer-escape analysis (``buf-*`` family)."""

from __future__ import annotations

BUF_RULES = {"buf-mutate-after-publish", "buf-escape-mutation"}


def test_mutation_after_publish_reports_both_sites(lint_project):
    found = lint_project({"m.py": """\
        def marshal(stream, payload):
            stream.write_bulk(payload)
            payload[0] = 0
    """}, rules=BUF_RULES)
    (f,) = found
    assert f.rule == "buf-mutate-after-publish"
    assert f.line == 3                      # the mutation site
    assert "line 2" in f.message            # ...naming the publish site
    assert "write_bulk" in f.message


def test_view_wrapper_does_not_hide_the_alias(lint_project):
    found = lint_project({"m.py": """\
        def marshal(stream, buf):
            view = memoryview(buf)
            stream.write_bulk(view)
            buf.extend(b"x")
    """}, rules=BUF_RULES)
    assert [f.line for f in found] == [4]


def test_blocking_send_roundtrip_is_clean(lint_project):
    # the MPI latency ping-pong: blocking Send returns only after the
    # matching delivery, so immediate reuse is the sanctioned pattern
    found = lint_project({"bench.py": """\
        def pingpong(comm, buf, peer, rounds):
            for _ in range(rounds):
                comm.Send(buf, dest=peer)
                comm.Recv(buf, source=peer)
            return buf
    """}, rules=BUF_RULES)
    assert found == []


def test_isend_window_flagged_until_wait(lint_project):
    found = lint_project({"m.py": """\
        def bad(comm, buf, peer):
            req = comm.Isend(buf, dest=peer)
            buf[0] = 1
            req.wait()

        def good(comm, buf, peer):
            req = comm.Isend(buf, dest=peer)
            req.wait()
            buf[0] = 1
    """}, rules=BUF_RULES)
    assert [(f.line, f.rule) for f in found] == \
        [(3, "buf-mutate-after-publish")]


def test_publish_through_helper_summary(lint_project):
    found = lint_project({
        "helper.py": """\
            def send_zero_copy(stream, arr):
                stream.write_bulk(arr)
        """,
        "caller.py": """\
            from helper import send_zero_copy

            def run(stream, data):
                send_zero_copy(stream, data)
                data[0] = 1
        """,
    }, rules=BUF_RULES)
    (f,) = found
    assert f.path == "caller.py" and f.line == 5
    assert "send_zero_copy" in f.message


def test_escape_into_mutating_callee(lint_project):
    found = lint_project({"m.py": """\
        def fill(dst):
            dst.append(0)

        def run(stream, data):
            stream.write_bulk(data)
            fill(data)
    """}, rules=BUF_RULES)
    (f,) = found
    assert f.rule == "buf-escape-mutation"
    assert f.line == 6
    assert "fill" in f.message


def test_rebinding_kills_the_publish(lint_project):
    found = lint_project({"m.py": """\
        def marshal(stream, payload):
            stream.write_bulk(payload)
            payload = bytearray(8)
            payload[0] = 1
    """}, rules=BUF_RULES)
    assert found == []


def test_branch_local_publish_does_not_leak(lint_project):
    # conditional publish state is deliberately not propagated past the
    # branch (the FP-averse stance of every interprocedural family)
    found = lint_project({"m.py": """\
        def marshal(stream, payload, eager):
            if eager:
                stream.write_bulk(payload)
            payload[0] = 1
    """}, rules=BUF_RULES)
    assert found == []


def test_inline_suppression_applies_to_project_findings(lint_project):
    found = lint_project({"m.py": """\
        def marshal(stream, payload):
            stream.write_bulk(payload)
            payload[0] = 0  # repro-lint: disable=buf-mutate-after-publish
    """}, rules=BUF_RULES)
    assert found == []
