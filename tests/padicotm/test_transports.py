"""Circuits over the SAN: a straight mapping onto the Madeleine driver."""

import pytest

from repro.padicotm import Circuit


def test_madeleine_pingpong_latency_is_11us(cluster_runtime):
    """Calibration check: 1 µs send + 9 µs wire + 1 µs recv = 11 µs
    one-way, the paper's MPI latency over PadicoTM/Myrinet."""
    rt = cluster_runtime
    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    ch = Circuit.establish(rt, "ch", [p0, p1])
    result = {}

    def client(proc):
        t0 = rt.kernel.now
        ch.send(proc, 0, 1, b"x", 0)
        ch.recv(proc, 0)
        result["rtt"] = rt.kernel.now - t0

    def server(proc):
        ch.recv(proc, 1)
        ch.send(proc, 1, 0, b"x", 0)

    p0.spawn(client)
    p1.spawn(server)
    rt.run()
    assert result["rtt"] / 2 == pytest.approx(11e-6, rel=1e-6)


def test_madeleine_bandwidth_reaches_240(cluster_runtime):
    rt = cluster_runtime
    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    ch = Circuit.establish(rt, "ch", [p0, p1])
    size = 8_000_000
    result = {}

    def sender(proc):
        t0 = rt.kernel.now
        ch.send(proc, 0, 1, b"big", size)
        result["elapsed"] = rt.kernel.now - t0

    def receiver(proc):
        ch.recv(proc, 1)

    p0.spawn(sender)
    p1.spawn(receiver)
    rt.run()
    bw = size / result["elapsed"]
    assert bw == pytest.approx(240e6, rel=0.01)


def test_madeleine_channel_claims_bip_cooperatively(cluster_runtime):
    rt = cluster_runtime
    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    Circuit.establish(rt, "ch", [p0, p1])
    claims = p0.arbitration.claims
    assert len(claims) == 1
    assert claims[0].driver == "BIP"
    assert claims[0].cooperative


def test_madeleine_selective_receive(cluster_runtime):
    rt = cluster_runtime
    procs = [rt.create_process(f"a{i}", f"p{i}") for i in range(3)]
    ch = Circuit.establish(rt, "ch", procs)
    got = []

    def sender(proc, rank, delay):
        proc.sleep(delay)
        ch.send(proc, rank, 0, f"from{rank}", 10)

    def receiver(proc):
        # deliberately receive rank 2 first even though rank 1 arrives first
        got.append(ch.recv(proc, 0, source=2)[1])
        got.append(ch.recv(proc, 0, source=1)[1])

    procs[1].spawn(sender, 1, 0.0)
    procs[2].spawn(sender, 2, 0.001)
    procs[0].spawn(receiver)
    rt.run()
    assert got == ["from2", "from1"]

