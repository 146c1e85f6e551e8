"""Failure injection across the stack: dead links, dead processes."""

import numpy as np
import pytest

from repro.corba import OMNIORB4, Orb, SystemException, compile_idl
from repro.mpi import create_world, spmd
from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime

IDL = """
module F {
    typedef sequence<octet> Blob;
    interface Sink { unsigned long push(in Blob data); };
};
"""


@pytest.fixture()
def rt():
    topo = Topology()
    build_cluster(topo, "a", 4)
    runtime = PadicoRuntime(topo)
    yield runtime
    runtime.shutdown()


def _corba_pair(rt, counter):
    server = rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    s_orb = Orb(server, OMNIORB4, compile_idl(IDL))
    s_orb.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(IDL))

    class Sink(s_orb.servant_base("F::Sink")):
        def push(self, data):
            counter.append(len(data))
            return len(data)

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    return server, client, c_orb, url


def test_link_failure_mid_invocation_becomes_comm_failure(rt):
    counter = []
    server, client, c_orb, url = _corba_pair(rt, counter)
    out = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        assert stub.push(b"ok") == 2
        try:
            stub.push(bytes(24_000_000))  # ~100 ms on the wire
        except SystemException as e:
            out["minor"] = e.minor
            out["when"] = rt.kernel.now

    def chaos(proc):
        proc.sleep(0.01)
        link = rt.topology.fabrics["a-san"].link("a1", "a-san-sw")
        rt.network.fail_link(link)

    client.spawn(main)
    client.spawn(chaos, daemon=True)
    rt.run()
    assert out["minor"] == "COMM_FAILURE"
    assert out["when"] == pytest.approx(0.01, abs=1e-3)


def test_client_recovers_over_surviving_fabric(rt):
    """After the SAN dies the cached connection is dropped; the next
    invocation reconnects and the selector falls back to the LAN."""
    counter = []
    server, client, c_orb, url = _corba_pair(rt, counter)
    out = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"warm")
        # kill the whole SAN path of the client host
        link = rt.topology.fabrics["a-san"].link("a1", "a-san-sw")
        rt.network.fail_link(link)
        try:
            stub.push(b"during")
        except SystemException as e:
            out["first"] = e.minor
        # retry: new connection, now via the Ethernet fabric
        out["retry"] = stub.push(b"after failover")
        conn = c_orb._connections[("server", stub.ior.port)]
        out["fabric"] = conn.endpoint.fabric_name

    client.spawn(main)
    rt.run()
    assert out["first"] == "COMM_FAILURE"
    assert out["retry"] == len(b"after failover")
    assert out["fabric"] == "a-lan"


def test_server_process_death_visible_to_client(rt):
    """Interrupting the server's handler threads closes the stream; the
    client observes COMM_FAILURE rather than hanging."""
    counter = []
    server, client, c_orb, url = _corba_pair(rt, counter)
    out = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"ok")
        # simulate a server crash: kill its threads, close listeners
        for thread in server.threads:
            thread.interrupt("crash")
        for (pname, _port), listener in list(
                rt.vlink_listeners.items()):
            if pname == "server":
                listener.close()
        # the established stream's peer is gone: close it server-side
        conn = c_orb._connections[("server", stub.ior.port)]
        conn.endpoint.peer.close()
        try:
            stub.push(b"into the void")
        except SystemException as e:
            out["minor"] = e.minor

    client.spawn(main)
    rt.run()
    assert out["minor"] == "COMM_FAILURE"


def test_mpi_send_over_dead_link_raises(rt):
    procs = [rt.create_process(f"a{i}", f"r{i}") for i in range(2)]
    world = create_world(rt, "w", procs)
    out = {}

    def main(proc, comm):
        if comm.rank == 0:
            link = rt.topology.fabrics["a-san"].link("a0", "a-san-sw")
            rt.network.fail_link(link)
            from repro.net import NoRouteError, TransferError
            try:
                comm.Send(np.zeros(10), dest=1)
            except (TransferError, NoRouteError) as e:
                out["err"] = type(e).__name__
                # unblock the receiver so the test terminates cleanly
                rt.network.restore_link(link)
                comm.Send(np.zeros(10), dest=1)
        else:
            buf = np.empty(10)
            comm.Recv(buf, source=0)

    spmd(world, main)
    rt.run()
    assert out["err"] in ("TransferError", "NoRouteError")


def test_interrupted_mpi_rank_does_not_corrupt_others(rt):
    """Kill one rank mid-collective; restart the collective among the
    survivors on a fresh communicator (fault-tolerance drill)."""
    procs = [rt.create_process(f"a{i}", f"r{i}") for i in range(3)]
    world = create_world(rt, "w", procs)
    out = {}

    def main(proc, comm):
        from repro.sim import SimInterrupt

        if comm.rank == 2:
            try:
                proc.suspend()  # "hangs" instead of joining the barrier
            except SimInterrupt:
                return "killed"
        # ranks 0 and 1 communicate among themselves only
        sub = None
        peer = 1 - comm.rank
        got = comm.sendrecv(f"alive-{comm.rank}", dest=peer, source=peer)
        out[comm.rank] = got
        return "ok"

    threads = spmd(world, main)

    def killer(proc):
        proc.sleep(0.01)
        threads[2].interrupt("node died")

    rt.kernel.spawn(killer)
    rt.run()
    assert out == {0: "alive-1", 1: "alive-0"}
    assert threads[2].result == "killed"


def test_deterministic_replay_of_failure_scenario():
    """The same failure scenario replays byte-for-byte identically —
    the property that makes simulated failure injection debuggable."""
    def run_once():
        topo = Topology()
        build_cluster(topo, "a", 2)
        rt = PadicoRuntime(topo)
        counter = []
        server, client, c_orb, url = None, None, None, None
        server = rt.create_process("a0", "server")
        client = rt.create_process("a1", "client")
        s_orb = Orb(server, OMNIORB4, compile_idl(IDL))
        s_orb.start()
        c_orb = Orb(client, OMNIORB4, compile_idl(IDL))

        class Sink(s_orb.servant_base("F::Sink")):
            def push(self, data):
                return len(data)

        url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
        trace = []

        def main(proc):
            stub = c_orb.string_to_object(url)
            for i in range(3):
                try:
                    stub.push(bytes(1000 * (i + 1)))
                    trace.append((i, "ok", rt.kernel.now))
                except SystemException as e:
                    trace.append((i, e.minor, rt.kernel.now))

        def chaos(proc):
            proc.sleep(6e-5)
            link = rt.topology.fabrics["a-san"].link("a1", "a-san-sw")
            rt.network.fail_link(link)
            proc.sleep(1e-4)
            rt.network.restore_link(link)

        client.spawn(main)
        client.spawn(chaos, daemon=True)
        rt.run()
        rt.shutdown()
        return trace

    assert run_once() == run_once()
