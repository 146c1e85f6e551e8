"""The ORB's threading model on one connection.

The server's connection thread dispatches in line and adds a thread only
while a request waits behind a busy servant; callers read their own
replies (leader/follower).  Fig. 7's ping-pong never has two requests on
one connection, so these are the cases it cannot show: a servant that
only a later request on the same connection can release, the thread
census after many sequential calls, a leader that gives up, a reply that
comes too late, a server that hangs up between calls, and what a
drained run still holds.
"""

import tracemalloc

import pytest

from repro.corba import MICO, OMNIORB4, Orb, SystemException, compile_idl
from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime
from repro.sim import SimEvent

IDL = """
module T {
    typedef sequence<octet> Blob;
    interface Gate { long pass_through(); void open(); };
    interface Slow { double work(in double seconds, in long tag); };
    interface Sink { void push(in Blob data); };
};
"""


def _pair(runtime, profile=OMNIORB4):
    server = runtime.create_process("a0", "server")
    client = runtime.create_process("a1", "client")
    s_orb = Orb(server, profile, compile_idl(IDL))
    s_orb.start()
    c_orb = Orb(client, profile, compile_idl(IDL))
    return server, client, s_orb, c_orb


def _slow(runtime, s_orb):
    class Slow(s_orb.servant_base("T::Slow")):
        def work(self, seconds, tag):
            runtime.kernel.current.sleep(seconds)
            return float(tag)

    return s_orb.object_to_string(s_orb.poa.activate_object(Slow()))


def _names(process):
    return [thread.name.split("/", 1)[1] for thread in process.threads]


def test_servant_released_by_a_later_request_on_the_same_connection(runtime):
    """``pass_through`` blocks until ``open`` arrives on the *same*
    connection: a connection served strictly one request at a time
    would never read ``open`` and deadlock."""
    server, client, s_orb, c_orb = _pair(runtime)
    gate = SimEvent(runtime.kernel)

    class Gate(s_orb.servant_base("T::Gate")):
        def pass_through(self):
            gate.wait(runtime.kernel.current)
            return 7

        def open(self):
            gate.set()

    stub = c_orb.string_to_object(
        s_orb.object_to_string(s_orb.poa.activate_object(Gate())))
    out = {}

    def blocked(proc):
        out["passed"] = stub.pass_through()

    def opener(proc):
        proc.sleep(1e-3)
        stub.open()
        out["opened"] = runtime.kernel.now

    client.spawn(blocked, name="blocked")
    client.spawn(opener, name="opener")
    runtime.run()
    assert out["passed"] == 7 and "opened" in out
    assert len(c_orb._connections) == 1
    # the second request was read by a second thread of that connection
    assert _names(server).count("giop-conn") == 2


def test_sequential_calls_run_on_the_connection_thread(runtime):
    """1 000 pushes one after another: the server keeps its acceptor and
    one connection thread, and the client no thread besides the caller
    (no per-request thread, no reply reader)."""
    server, client, s_orb, c_orb = _pair(runtime)
    got = []

    class Sink(s_orb.servant_base("T::Sink")):
        def push(self, data):
            got.append(len(data))

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))

    def main(proc):
        stub = c_orb.string_to_object(url)
        for i in range(1000):
            stub.push(bytes(i % 7))

    client.spawn(main, name="main")
    runtime.run()
    assert got == [i % 7 for i in range(1000)]
    assert _names(server) == [f"orb-{OMNIORB4.key}", "giop-conn"]
    assert _names(client) == ["main"]


def test_leader_that_times_out_promotes_a_follower(runtime):
    """The leader reads the connection for both callers; when it gives
    up, the waiting follower takes over and reads its own reply — well
    before its own deadline."""
    server, client, s_orb, c_orb = _pair(runtime)
    stub = c_orb.string_to_object(_slow(runtime, s_orb))
    out = {}

    def main(proc):
        stub.work(0.0, 0)  # connect
        c_orb.request_timeout = 0.01
        t0 = runtime.kernel.now

        def leader(p):
            try:
                stub.work(1.0, 1)
            except SystemException as exc:
                out["leader"] = (exc.minor, runtime.kernel.now - t0)

        def follower(p):
            p.sleep(0.005)  # asks while the leader reads
            out["follower"] = (stub.work(0.008, 2), runtime.kernel.now - t0)

        for w in (client.spawn(leader, name="leader"),
                  client.spawn(follower, name="follower")):
            proc.join(w)

    client.spawn(main, name="main")
    runtime.run()
    minor, gave_up = out["leader"]
    value, replied = out["follower"]
    assert minor == "TIMEOUT" and gave_up == pytest.approx(0.01, abs=1e-4)
    assert value == 2.0
    assert gave_up < replied < 0.005 + 0.01  # inside the follower's budget
    assert len(c_orb._connections) == 1


def test_late_reply_is_dropped_and_the_connection_kept(runtime):
    """A reply that arrives after its caller timed out waits unread until
    the next caller reads the connection, which drops it and gets its
    own reply on the same connection."""
    server, client, s_orb, c_orb = _pair(runtime)
    stub = c_orb.string_to_object(_slow(runtime, s_orb))
    out = {}

    def main(proc):
        stub.work(0.0, 0)
        conn = c_orb._connections[("server", stub.ior.port)]
        c_orb.request_timeout = 0.01
        try:
            stub.work(0.05, 1)
        except SystemException as exc:
            out["first"] = exc.minor
        proc.sleep(0.1)  # the late reply lands meanwhile
        c_orb.request_timeout = None
        out["second"] = stub.work(0.001, 2)
        out["same"] = c_orb._connections[("server", stub.ior.port)] is conn

    client.spawn(main, name="main")
    runtime.run()
    assert out == {"first": "TIMEOUT", "second": 2.0, "same": True}


def test_server_hangup_between_calls_reconnects(runtime):
    """The server closes the connection while no call is pending: the
    next invocation connects afresh instead of raising COMM_FAILURE on
    the dead one."""
    server, client, s_orb, c_orb = _pair(runtime)
    stub = c_orb.string_to_object(_slow(runtime, s_orb))
    out = {}

    def main(proc):
        out["first"] = stub.work(0.0, 1)
        conn = c_orb._connections[("server", stub.ior.port)]
        conn.endpoint.peer.close()  # the server's end hangs up
        proc.sleep(1e-3)
        out["second"] = stub.work(0.0, 2)
        out["fresh"] = c_orb._connections[("server", stub.ior.port)] \
            is not conn

    client.spawn(main, name="main")
    runtime.run()
    assert out == {"first": 1.0, "second": 2.0, "fresh": True}


def test_drained_copying_orb_holds_at_most_one_payload():
    """Under the copying (Mico) profile every request body is a fresh
    1 MiB buffer.  Once eight pushes have drained, what the run still
    holds is at most the one body the connection thread read last —
    not one per request."""
    payload, pushes = 1 << 20, 8
    topo = Topology()
    build_cluster(topo, "a", 2)
    runtime = PadicoRuntime(topo)
    server, client, s_orb, c_orb = _pair(runtime, MICO)
    got = []

    class Sink(s_orb.servant_base("T::Sink")):
        def push(self, data):
            got.append(len(data))

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))

    def main(proc):
        stub = c_orb.string_to_object(url)
        for _ in range(pushes):
            stub.push(bytes(payload))

    client.spawn(main, name="main")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runtime.run()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        runtime.shutdown()
    assert got == [payload] * pushes
    assert held < 1.5 * payload
