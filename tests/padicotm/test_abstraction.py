"""Circuit / VLink abstraction layer and automatic mapping selection."""

import pytest

from repro.net import NoRouteError, Topology, build_cluster
from repro.obs import TraceRecorder
from repro.padicotm import (
    ArbitrationConflictError,
    Circuit,
    PadicoRuntime,
    VLink,
)
from repro.padicotm.abstraction.vlink import ConnectionRefusedError


def test_circuit_on_san_is_straight_mapping(cluster_runtime):
    rt = cluster_runtime
    procs = [rt.create_process(f"a{i}", f"p{i}") for i in range(4)]
    circuit = Circuit.establish(rt, "c0", procs)
    assert circuit.mapping == "straight"
    assert circuit.fabric_name == "a-san"
    assert circuit.size == 4
    assert circuit.rank_of(procs[2]) == 2


def test_circuit_cross_paradigm_over_wan(grid_runtime):
    rt, a_hosts, b_hosts = grid_runtime
    pa = rt.create_process(a_hosts[0], "pa")
    pb = rt.create_process(b_hosts[0], "pb")
    circuit = Circuit.establish(rt, "c0", [pa, pb])
    # no parallel fabric spans both sites: parallel abstraction maps
    # cross-paradigm onto the WAN
    assert circuit.mapping == "cross-paradigm"
    assert circuit.fabric_name == "wan"


def test_circuit_message_roundtrip(cluster_runtime):
    rt = cluster_runtime
    procs = [rt.create_process(f"a{i}", f"p{i}") for i in range(2)]
    circuit = Circuit.establish(rt, "c0", procs)
    got = []

    def rank0(proc):
        circuit.send(proc, 0, 1, {"hello": 1}, 100)
        got.append(circuit.recv(proc, 0))

    def rank1(proc):
        src, payload, n = circuit.recv(proc, 1)
        circuit.send(proc, 1, 0, payload, n)

    procs[0].spawn(rank0)
    procs[1].spawn(rank1)
    rt.run()
    assert got == [(1, {"hello": 1}, 100)]


def test_circuits_with_the_same_name_keep_their_own_inboxes(cluster_runtime):
    """Two circuits that share a name over the SAN are two circuits: a
    message sent on the first is never pending on the second (as over
    a LAN)."""
    rt = cluster_runtime
    procs = [rt.create_process(f"a{i}", f"p{i}") for i in range(2)]
    first = Circuit.establish(rt, "x", procs)
    second = Circuit.establish(rt, "x", procs)
    assert first.fabric_name == second.fabric_name == "a-san"
    procs[0].spawn(lambda proc: first.send(proc, 0, 1, b"x", 10))
    rt.run()
    assert first.poll(1)
    assert not second.poll(1)


def test_circuit_same_host_pair_is_loopback_on_both_sides():
    """A same-host pair inside a multi-host SAN circuit copies through
    shared memory, and both the send and the receive count as loopback."""
    topo = Topology()
    build_cluster(topo, "a", 2)
    rec = TraceRecorder()
    with PadicoRuntime(topo) as rt:
        procs = [rt.create_process(h, f"p{i}")
                 for i, h in enumerate(["a0", "a0", "a1"])]
        circuit = Circuit.establish(rt, "c0", procs)
        rt.observe(rec)
        procs[0].spawn(lambda proc: circuit.send(proc, 0, 1, b"x", 100))
        procs[1].spawn(lambda proc: circuit.recv(proc, 1))
        rt.run()
    assert circuit.mapping == "straight"
    assert rec.driver_io == {("loopback", "send"): [1.0, 100.0],
                             ("loopback", "recv"): [1.0, 100.0]}


def test_circuit_forced_fabric_ablation(cluster_runtime):
    """Forcing the LAN under a Circuit (ablation A3) must still work —
    just slower and tagged cross-paradigm."""
    rt = cluster_runtime
    procs = [rt.create_process(f"a{i}", f"p{i}") for i in range(2)]
    circuit = Circuit.establish(rt, "c0", procs, fabric="a-lan")
    assert circuit.mapping == "cross-paradigm"
    result = {}

    def rank0(proc):
        t0 = rt.kernel.now
        circuit.send(proc, 0, 1, b"x", 1_120_000)
        result["elapsed"] = rt.kernel.now - t0

    def rank1(proc):
        circuit.recv(proc, 1)

    procs[0].spawn(rank0)
    procs[1].spawn(rank1)
    rt.run()
    bw = 1_120_000 / result["elapsed"]
    assert bw == pytest.approx(11.2e6, rel=0.01)


def test_circuit_no_common_fabric_raises():
    topo = Topology()
    build_cluster(topo, "a", 2)
    build_cluster(topo, "b", 2)  # disconnected clusters, no WAN
    with PadicoRuntime(topo) as rt:
        pa = rt.create_process("a0", "pa")
        pb = rt.create_process("b0", "pb")
        with pytest.raises(NoRouteError):
            Circuit.establish(rt, "c0", [pa, pb])


def test_vlink_cross_paradigm_on_myrinet(cluster_runtime):
    """The Figure-7 mechanism: a distributed-oriented stream between two
    SAN hosts rides Madeleine and reaches Myrinet bandwidth."""
    rt = cluster_runtime
    server = rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    listener = VLink.listen(server, "giop")
    result = {}

    def srv(proc):
        ep = listener.accept(proc)
        ep.recv(proc)

    def cli(proc):
        ep = VLink.connect(proc, client, "server", "giop")
        result["mapping"] = ep.mapping
        result["fabric"] = ep.fabric_name
        t0 = rt.kernel.now
        ep.send(proc, b"payload", 24_000_000)
        result["elapsed"] = rt.kernel.now - t0

    server.spawn(srv)
    client.spawn(cli)
    rt.run()
    assert result["mapping"] == "cross-paradigm"
    assert result["fabric"] == "a-san"
    assert 24_000_000 / result["elapsed"] == pytest.approx(240e6, rel=0.01)


def test_vlink_straight_on_lan(grid_runtime):
    rt, a_hosts, b_hosts = grid_runtime
    server = rt.create_process(b_hosts[0], "server")
    client = rt.create_process(a_hosts[0], "client")
    listener = VLink.listen(server, "giop")
    result = {}

    def srv(proc):
        ep = listener.accept(proc)
        result["got"] = ep.recv(proc)

    def cli(proc):
        ep = VLink.connect(proc, client, "server", "giop")
        result["mapping"] = ep.mapping
        result["fabric"] = ep.fabric_name
        ep.send(proc, b"hello", 5)

    server.spawn(srv)
    client.spawn(cli)
    rt.run()
    assert result["mapping"] == "straight"
    assert result["fabric"] == "wan"
    assert result["got"] == (b"hello", 5)


def test_vlink_accepting_end_claims_its_nic(cluster_runtime):
    """Both ends of a VLink riding Myrinet hold Madeleine's cooperative
    claim, so a legacy module's direct exclusive BIP claim fails on the
    accepting side exactly as it does on the connecting side."""
    rt = cluster_runtime
    server = rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    listener = VLink.listen(server, "giop")
    server.spawn(lambda proc: listener.accept(proc))
    client.spawn(lambda proc: VLink.connect(proc, client, "server", "giop"))
    rt.run()
    for side in (client, server):
        with pytest.raises(ArbitrationConflictError):
            side.arbitration.claim_nic("a-san", "BIP", "legacy",
                                       cooperative=False)


def test_vlink_connect_refused(cluster_runtime):
    rt = cluster_runtime
    rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    errors = []

    def cli(proc):
        try:
            VLink.connect(proc, client, "server", "nope")
        except ConnectionRefusedError:
            errors.append(True)

    client.spawn(cli)
    rt.run()
    assert errors == [True]


def test_vlink_eof_semantics(cluster_runtime):
    rt = cluster_runtime
    server = rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    listener = VLink.listen(server, "x")
    log = []

    def srv(proc):
        ep = listener.accept(proc)
        while (item := ep.recv(proc)) is not None:
            log.append(item[0])
        log.append("eof")

    def cli(proc):
        ep = VLink.connect(proc, client, "server", "x")
        ep.send(proc, "a", 1)
        ep.send(proc, "b", 1)
        ep.close()
        with pytest.raises(BrokenPipeError):
            ep.send(proc, "c", 1)

    server.spawn(srv)
    client.spawn(cli)
    rt.run()
    assert log == ["a", "b", "eof"]


def test_vlink_port_collision(cluster_runtime):
    rt = cluster_runtime
    server = rt.create_process("a0", "server")
    VLink.listen(server, "p")
    with pytest.raises(OSError):
        VLink.listen(server, "p")


def test_vlink_security_policy_hook(cluster_runtime):
    rt = cluster_runtime
    server = rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    listener = VLink.listen(server, "sec")

    class AlwaysEncrypt:
        def transform_cost(self, nbytes, fabric_name, secure_wire):
            return nbytes * 1e-8  # 100 MB/s cipher

        def should_encrypt(self, fabric_name, secure_wire):
            return True

    result = {}

    def srv(proc):
        ep = listener.accept(proc)
        ep.recv(proc)

    def cli(proc):
        ep = VLink.connect(proc, client, "server", "sec")
        ep.security_policy = AlwaysEncrypt()
        t0 = rt.kernel.now
        ep.send(proc, b"x", 1_000_000)
        result["elapsed"] = rt.kernel.now - t0
        result["encrypted"] = ep.encrypted_bytes

    server.spawn(srv)
    client.spawn(cli)
    rt.run()
    assert result["encrypted"] == 1_000_000
    # cipher adds 10 ms on top of ~4.2 ms wire time
    assert result["elapsed"] > 0.014


def test_selector_prefers_san_over_lan(cluster_runtime):
    from repro.padicotm.abstraction.selector import select_pair_fabric

    rt = cluster_runtime
    choice = select_pair_fabric(rt.topology, "a0", "a1", "distributed")
    assert choice.fabric_name == "a-san"
    assert choice.mapping == "cross-paradigm"
    choice = select_pair_fabric(rt.topology, "a0", "a1", "parallel")
    assert choice.mapping == "straight"


def test_selector_loopback_same_host(cluster_runtime):
    from repro.padicotm.abstraction.selector import select_pair_fabric

    rt = cluster_runtime
    choice = select_pair_fabric(rt.topology, "a0", "a0", "distributed")
    assert choice.fabric is None
    assert choice.mapping == "loopback"
