"""Personality layer: Madeleine, FastMessages, BSD sockets, POSIX AIO."""

import pytest

from repro.padicotm import Circuit
from repro.padicotm.personality import (
    AioPersonality,
    BsdSocketPersonality,
    FMPersonality,
    MadPersonality,
)
from repro.padicotm.abstraction.vlink import VLink


def _two_procs(rt):
    return [rt.create_process(f"a{i}", f"p{i}") for i in range(2)]


def test_madeleine_personality_pack_unpack(cluster_runtime):
    rt = cluster_runtime
    procs = _two_procs(rt)
    circuit = Circuit.establish(rt, "c", procs)
    mads = [MadPersonality(circuit, i) for i in range(2)]
    got = []

    def sender(proc):
        conn = mads[0].begin_packing(1)
        mads[0].pack(conn, "header", 16)
        mads[0].pack(conn, [1, 2, 3], 24)
        mads[0].end_packing(proc, conn)

    def receiver(proc):
        conn = mads[1].begin_unpacking(proc)
        got.append(mads[1].unpack(conn))
        got.append(mads[1].unpack(conn))
        mads[1].end_unpacking(conn)

    procs[0].spawn(sender)
    procs[1].spawn(receiver)
    rt.run()
    assert got == ["header", [1, 2, 3]]


def test_madeleine_personality_incomplete_unpack_detected(cluster_runtime):
    rt = cluster_runtime
    procs = _two_procs(rt)
    circuit = Circuit.establish(rt, "c", procs)
    mads = [MadPersonality(circuit, i) for i in range(2)]

    def sender(proc):
        conn = mads[0].begin_packing(1)
        mads[0].pack(conn, "a", 1)
        mads[0].pack(conn, "b", 1)
        mads[0].end_packing(proc, conn)

    def receiver(proc):
        conn = mads[1].begin_unpacking(proc)
        mads[1].unpack(conn)
        with pytest.raises(RuntimeError):
            mads[1].end_unpacking(conn)

    procs[0].spawn(sender)
    procs[1].spawn(receiver)
    rt.run()


def test_fastmessages_handler_dispatch(cluster_runtime):
    rt = cluster_runtime
    procs = _two_procs(rt)
    circuit = Circuit.establish(rt, "c", procs)
    fms = [FMPersonality(circuit, i) for i in range(2)]
    handled = []
    fms[1].register_handler(7, lambda src, data: handled.append((src, data)))

    def sender(proc):
        fms[0].fm_send(proc, 1, 7, "payload", 64)

    def receiver(proc):
        assert fms[1].fm_extract(proc) == 1

    procs[0].spawn(sender)
    procs[1].spawn(receiver)
    rt.run()
    assert handled == [(0, "payload")]


def test_fastmessages_unregistered_handler_raises(cluster_runtime):
    rt = cluster_runtime
    procs = _two_procs(rt)
    circuit = Circuit.establish(rt, "c", procs)
    fms = [FMPersonality(circuit, i) for i in range(2)]
    failures = []

    def sender(proc):
        fms[0].fm_send(proc, 1, 99, "x", 1)

    def receiver(proc):
        try:
            fms[1].fm_extract(proc)
        except LookupError:
            failures.append(True)

    procs[0].spawn(sender)
    procs[1].spawn(receiver)
    rt.run()
    assert failures == [True]


def test_bsd_socket_roundtrip(cluster_runtime):
    rt = cluster_runtime
    procs = _two_procs(rt)
    bsd = [BsdSocketPersonality(p) for p in procs]
    got = []

    def srv(proc):
        s = bsd[0].socket()
        s.bind("http")
        s.listen()
        conn = s.accept(proc)
        got.append(conn.recv(proc))
        conn.send(proc, b"response")
        assert conn.recv(proc) == b""  # EOF
        conn.close()

    def cli(proc):
        s = bsd[1].socket()
        s.connect(proc, ("p0", "http"))
        s.send(proc, b"request")
        got.append(s.recv(proc))
        s.close()

    procs[0].spawn(srv)
    procs[1].spawn(cli)
    rt.run()
    assert got == [b"request", b"response"]


def test_bsd_socket_usage_errors(cluster_runtime):
    rt = cluster_runtime
    p = rt.create_process("a0", "p0")
    bsd = BsdSocketPersonality(p)
    s = bsd.socket()
    with pytest.raises(OSError):
        s.listen()  # not bound
    s.bind("x")
    with pytest.raises(OSError):
        s.bind("y")  # double bind
    with pytest.raises(OSError):
        bsd.socket().send(None, b"")  # not connected


def test_aio_overlaps_communication_with_compute(cluster_runtime):
    """The point of Aio: the writer computes while the write proceeds."""
    rt = cluster_runtime
    procs = _two_procs(rt)
    server, client = procs
    listener = VLink.listen(server, "aio")
    aio = AioPersonality(client)
    result = {}

    def srv(proc):
        ep = listener.accept(proc)
        ep.recv(proc)

    def cli(proc):
        ep = VLink.connect(proc, client, "p0", "aio")
        t0 = rt.kernel.now
        cb = aio.aio_write(ep, b"bulk", 2_400_000)  # 10 ms on the wire
        assert AioPersonality.aio_error(cb) == "EINPROGRESS"
        proc.sleep(0.010)  # overlapped "computation"
        AioPersonality.aio_suspend(proc, [cb])
        assert AioPersonality.aio_return(cb) == 2_400_000
        result["elapsed"] = rt.kernel.now - t0

    server.spawn(srv)
    client.spawn(cli)
    rt.run()
    # overlap: total ≈ max(compute, transfer), not their sum
    assert result["elapsed"] < 0.012


def test_aio_read_and_error_paths(cluster_runtime):
    rt = cluster_runtime
    procs = _two_procs(rt)
    server, client = procs
    listener = VLink.listen(server, "aio")
    aio = AioPersonality(server)
    got = []

    def srv(proc):
        ep = listener.accept(proc)
        cb = aio.aio_read(ep)
        with pytest.raises(RuntimeError):
            AioPersonality.aio_return(cb)  # still in progress
        AioPersonality.aio_suspend(proc, [cb])
        got.append(AioPersonality.aio_return(cb))

    def cli(proc):
        ep = VLink.connect(proc, client, "p0", "aio")
        ep.send(proc, b"data", 4)

    server.spawn(srv)
    client.spawn(cli)
    rt.run()
    assert got == [(b"data", 4)]


def test_aio_suspend_returns_when_any_listed_block_completes(cluster_runtime):
    """POSIX: ``aio_suspend`` returns once *any* block is done, not when
    the first listed one is."""
    rt = cluster_runtime
    server, slow, fast = [rt.create_process(f"a{i}", f"p{i}")
                          for i in range(3)]
    listener = VLink.listen(server, "aio")
    aio = AioPersonality(server)
    seen = {}

    def srv(proc):
        eps = [listener.accept(proc), listener.accept(proc)]
        cb1, cb2 = [aio.aio_read(ep) for ep in eps]
        AioPersonality.aio_suspend(proc, [cb1, cb2])
        seen["t"] = rt.kernel.now
        seen["states"] = (AioPersonality.aio_error(cb1),
                          AioPersonality.aio_error(cb2))

    def client(proc, me, delay):
        ep = VLink.connect(proc, me, "p0", "aio")
        proc.sleep(delay)
        ep.send(proc, me.name, 4)

    server.spawn(srv)
    slow.spawn(client, slow, 1.0)
    fast.spawn(client, fast, 0.001, delay=0.0001)
    rt.run()
    assert seen["states"] == ("EINPROGRESS", "0")
    assert seen["t"] < 0.5
