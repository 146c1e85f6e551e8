"""Runtime typestate monitor: the VLink/Circuit lifecycle DFA enforced
on a live runtime, plus claim balancing on the arbitration core."""

import pytest

from repro.net import Topology, build_cluster
from repro.net.devices import DISTRIBUTED
from repro.padicotm import PadicoRuntime
from repro.padicotm.abstraction.circuit import Circuit
from repro.padicotm.abstraction.selector import select_pair_fabric
from repro.padicotm.abstraction.vlink import VLink, VLinkEndpoint
from repro.sanitizer import Sanitizer, TypestateError, TypestateMonitor


@pytest.fixture()
def monitored_runtime():
    topo = Topology()
    build_cluster(topo, "a", 4)
    rt = PadicoRuntime(topo)
    san = Sanitizer(runtime=rt)
    yield rt, san
    rt.shutdown()


def test_happy_path_echo_records_no_violations(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "server")
    p1 = rt.create_process("a1", "client")
    got = {}

    def server(sp):
        listener = VLink.listen(p0, "echo")
        ep = listener.accept(sp)
        payload, nbytes = ep.recv(sp)
        ep.send(sp, payload, nbytes)
        ep.close()
        listener.close()

    def client(sp):
        ep = VLink.connect(sp, p1, "server", "echo")
        ep.send(sp, "ping", 64)
        got["reply"] = ep.recv(sp)
        ep.close()

    p0.spawn(server, name="srv")
    p1.spawn(client, name="cli", delay=1e-6)
    rt.kernel.run()
    assert got["reply"] == ("ping", 64)
    assert san.monitor.violations == []


def test_send_after_close_is_a_typestate_error(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "server")
    p1 = rt.create_process("a1", "client")
    caught = {}

    def server(sp):
        listener = VLink.listen(p0, "x")
        ep = listener.accept(sp)
        ep.recv(sp)

    def client(sp):
        ep = VLink.connect(sp, p1, "server", "x")
        ep.send(sp, "one", 8)
        ep.close()
        with pytest.raises(TypestateError) as info:
            ep.send(sp, "two", 8)
        caught["msg"] = str(info.value)

    p0.spawn(server, name="srv", daemon=True)
    p1.spawn(client, name="cli", delay=1e-6)
    rt.kernel.run()
    assert "closed" in caught["msg"]
    assert len(san.monitor.violations) == 1


def test_send_before_connect_is_a_typestate_error(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    choice = select_pair_fabric(rt.topology, "a0", "a1", DISTRIBUTED)
    raw = VLinkEndpoint(rt, p0, p1, choice)  # constructed, never connected

    def bad(sp):
        with pytest.raises(TypestateError) as info:
            raw.send(sp, "x", 8)
        assert "raw" in str(info.value)

    p0.spawn(bad, name="bad")
    rt.kernel.run()
    assert san.monitor.violations


def test_circuit_use_after_close_is_rejected(monitored_runtime):
    rt, san = monitored_runtime
    members = [rt.create_process(f"a{i}", f"m{i}") for i in range(2)]

    def ring(sp):
        circuit = Circuit.establish(rt, "ring", members)
        circuit.send(sp, 0, 1, "tok", 32)
        assert circuit.recv(sp, 1) == (0, "tok", 32)
        circuit.close()
        with pytest.raises(TypestateError):
            circuit.poll(0)

    members[0].spawn(ring, name="ring")
    rt.kernel.run()
    assert any("Circuit" in v for v in san.monitor.violations)


def test_circuit_close_is_enforced_even_without_monitor():
    topo = Topology()
    build_cluster(topo, "a", 2)
    with PadicoRuntime(topo) as rt:
        members = [rt.create_process(f"a{i}", f"m{i}") for i in range(2)]

        def ring(sp):
            circuit = Circuit.establish(rt, "ring", members)
            circuit.close()
            with pytest.raises(RuntimeError, match="closed"):
                circuit.send(sp, 0, 1, "x", 8)

        members[0].spawn(ring, name="ring")
        rt.kernel.run()


def test_double_bind_detected_by_monitor_directly():
    monitor = TypestateMonitor()
    monitor.on_bind("proc", "port-7", listener="L1")
    with pytest.raises(TypestateError, match="double bind"):
        monitor.on_bind("proc", "port-7", listener="L2")
    monitor.on_unbind("proc", "port-7")
    monitor.on_bind("proc", "port-7", listener="L3")  # rebind after close


def test_listener_close_unbinds_port(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "server")
    listener = VLink.listen(p0, "reuse")
    listener.close()
    # after the unbind the same (process, port) may be bound again
    VLink.listen(p0, "reuse")
    assert san.monitor.violations == []


def test_claim_balance_tracked_through_arbitration(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "legacy-host")
    p0.arbitration.claim_nic("a-san", "BIP", "legacy-mw",
                             cooperative=False)
    assert san.monitor.unreleased_claims() == \
        [("legacy-host", "legacy-mw", 1)]
    p0.arbitration.release_claims("legacy-mw")
    assert san.monitor.unreleased_claims() == []


def test_over_release_is_a_violation():
    monitor = TypestateMonitor()
    with pytest.raises(TypestateError, match="released"):
        monitor.on_release("proc", "mw", dropped=1)
    assert monitor.violations


def test_monitor_states_snapshot(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    choice = select_pair_fabric(rt.topology, "a0", "a1", DISTRIBUTED)
    a, b = VLinkEndpoint.make_pair(rt, p0, p1, choice)
    states = san.monitor.states()
    assert states[a] == "connected" and states[b] == "connected"
    a.close()
    assert san.monitor.states()[a] == "closed"


def _sink(process, port):
    """A daemon server that accepts one connection and drains it."""
    def server(sp):
        ep = VLink.listen(process, port).accept(sp)
        while ep.recv(sp) is not None:
            pass

    process.spawn(server, name=f"sink-{port}", daemon=True)


def test_use_after_close_through_a_helper_raises_at_the_call(
        monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "server")
    p1 = rt.create_process("a1", "client")
    _sink(p0, "x")
    caught = {}

    def shutdown(link):
        link.close()

    def client(sp):
        ep = VLink.connect(sp, p1, "server", "x")
        shutdown(ep)
        with pytest.raises(TypestateError, match="'send'.*'closed'"):
            ep.send(sp, "late", 8)
        caught["ep"] = ep

    p1.spawn(client, name="cli", delay=1e-6)
    rt.kernel.run()
    assert san.monitor.states()[caught["ep"]] == "closed"
    assert len(san.monitor.violations) == 1


def test_use_after_close_through_a_factory_return_raises_at_the_call(
        monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "server")
    p1 = rt.create_process("a1", "client")
    _sink(p0, "x")

    def dial(sp):
        return VLink.connect(sp, p1, "server", "x")

    def client(sp):
        ep = dial(sp)
        ep.close()
        with pytest.raises(TypestateError, match="'recv'.*'closed'"):
            ep.recv(sp)

    p1.spawn(client, name="cli", delay=1e-6)
    rt.kernel.run()
    assert len(san.monitor.violations) == 1


def test_raise_with_open_endpoint_leaves_it_connected(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "server")
    p1 = rt.create_process("a1", "client")
    _sink(p0, "x")
    opened = {}

    def connect_then_fail(sp):
        opened["ep"] = VLink.connect(sp, p1, "server", "x")
        raise RuntimeError("peer not ready")   # no finally, no close

    def client(sp):
        with pytest.raises(RuntimeError, match="peer not ready"):
            connect_then_fail(sp)

    p1.spawn(client, name="cli", delay=1e-6)
    rt.kernel.run()
    # not a violation — a leak, visible in the lifecycle snapshot
    assert san.monitor.states()[opened["ep"]] == "connected"
    assert san.monitor.violations == []


def test_direct_claim_never_released_is_listed(monitored_runtime):
    rt, san = monitored_runtime
    p0 = rt.create_process("a0", "legacy-host")

    def legacy(sp):
        p0.arbitration.claim_nic("a-san", "BIP", "legacy-mw",
                                 cooperative=False)

    p0.spawn(legacy, name="legacy")
    rt.kernel.run()
    assert ("legacy-host", "legacy-mw", 1) in \
        san.monitor.unreleased_claims()
    assert "legacy-host: legacy-mw holds 1 claim(s)" in san.report()
    san.check()   # a report, not an error


def test_sanitizer_exit_raises_on_a_violation_inside_a_daemon():
    # the violating call raises inside a daemon, which dies quietly; the
    # recorded violation must still fail the sanitized block
    topo = Topology()
    build_cluster(topo, "a", 2)
    with PadicoRuntime(topo) as rt:
        p0 = rt.create_process("a0", "server")
        p1 = rt.create_process("a1", "client")

        def client(sp):
            ep = VLink.connect(sp, p1, "server", "x")
            ep.close()
            ep.send(sp, "late", 8)

        with pytest.raises(TypestateError) as info:
            with Sanitizer(runtime=rt):
                _sink(p0, "x")
                p1.spawn(client, name="cli", delay=1e-6, daemon=True)
                rt.kernel.run()
    message = str(info.value)
    assert message.startswith("1 typestate violation recorded")
    assert "'send'" in message and "'closed'" in message
