"""ORB end-to-end: stubs, skeletons, GIOP, profiles, error paths."""

import numpy as np
import pytest

from repro.corba import (
    MICO,
    OMNIORB3,
    OMNIORB4,
    ORBACUS,
    CorbaError,
    Orb,
    SystemException,
    compile_idl,
)
from repro.corba.idl.types import UserExceptionBase
from repro.padicotm import VLink

from tests.corba.conftest import DEMO_IDL, make_adder_servant


def _setup(rt, client_profile=OMNIORB4, server_profile=OMNIORB4,
           server_host="a0", client_host="a1", server_idl=DEMO_IDL):
    server = rt.create_process(server_host, "server")
    client = rt.create_process(client_host, "client")
    s_orb = Orb(server, server_profile, compile_idl(server_idl))
    s_orb.start()
    c_orb = Orb(client, client_profile, compile_idl(DEMO_IDL))
    servant = make_adder_servant(s_orb)
    ref = s_orb.poa.activate_object(servant)
    url = s_orb.object_to_string(ref)
    return server, client, s_orb, c_orb, servant, url


def _run_client(rt, client_process, c_orb, url, body):
    out = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        body(proc, stub, out)

    client_process.spawn(main)
    rt.run()
    return out


def test_basic_invocation(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        out["sum"] = stub.add(20, 22)
        out["greet"] = stub.greet("grid")

    out = _run_client(runtime, client, c_orb, url, body)
    assert out == {"sum": 42, "greet": "hello grid"}
    assert servant.calls == 2


def test_struct_and_sequence_arguments(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)
    point = c_orb.idl.type("Demo::Point")

    def body(proc, stub, out):
        out["dot"] = stub.dot(np.array([1.0, 2.0, 3.0]),
                              np.array([4.0, 5.0, 6.0]))
        moved = stub.translate(point.make(x=1.0, y=2.0), 0.5, -0.5)
        out["moved"] = (moved.x, moved.y)

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["dot"] == pytest.approx(32.0)
    assert out["moved"] == (1.5, 1.5)


def test_out_parameters(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        out["qr"] = stub.divide(17, 5)

    assert _run_client(runtime, client, c_orb, url, body)["qr"] == (3, 2)


def test_user_exception_propagates(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        try:
            stub.divide(1, 0)
        except UserExceptionBase as e:
            out["exc"] = (type(e).__name__, e.why, e.code)

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["exc"] == ("Oops", "division by zero", -1)


def test_attributes_via_giop(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        out["label"] = stub.label
        stub.label = "renamed"
        out["label2"] = stub.label
        out["calls"] = stub.calls

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["label"] == "adder"
    assert out["label2"] == "renamed"
    assert servant.label == "renamed"


def test_readonly_attribute_rejects_set(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        with pytest.raises(AttributeError):
            stub.calls = 7
        out["done"] = True

    assert _run_client(runtime, client, c_orb, url, body)["done"]


def test_oneway_returns_before_delivery(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        stub.add(0, 0)  # warm up the connection
        t0 = runtime.kernel.now
        stub.notify("fire and forget")
        out["elapsed"] = runtime.kernel.now - t0
        proc.sleep(0.01)  # let it arrive
        out["delivered"] = list(servant.notifications)

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["delivered"] == ["fire and forget"]
    # oneway pays the send path but never waits for a reply: it still
    # costs wire time in our blocking transport, but no server turnaround
    assert out["elapsed"] < 30e-6


def test_is_a_and_narrow(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        out["is_adder"] = stub._is_a("IDL:Demo/Adder:1.0")
        out["is_other"] = stub._is_a("IDL:Demo/Registry:1.0")
        renarrowed = stub._narrow("Demo::Adder")
        out["sum"] = renarrowed.add(1, 2)

    out = _run_client(runtime, client, c_orb, url, body)
    assert out == {"is_adder": True, "is_other": False, "sum": 3}


def test_object_reference_as_argument(runtime):
    """Registry stores and returns Adder references (IOR round-trip)."""
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    class RegistryImpl(s_orb.servant_base("Demo::Registry")):
        def __init__(self):
            self.table = {}

        def register(self, name, who):
            self.table[name] = who

        def find(self, name):
            if name not in self.table:
                raise s_orb.idl.type("Demo::Oops").make(
                    why=f"{name} unknown", code=404)
            return self.table[name]

    reg_url = s_orb.object_to_string(
        s_orb.poa.activate_object(RegistryImpl()))

    def body(proc, stub, out):
        registry = c_orb.string_to_object(reg_url)
        registry.register("the-adder", stub)
        found = registry.find("the-adder")
        out["sum"] = found.add(5, 6)
        try:
            registry.find("ghost")
        except UserExceptionBase as e:
            out["code"] = e.code

    out = _run_client(runtime, client, c_orb, url, body)
    assert out == {"sum": 11, "code": 404}


def test_object_not_exist(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        s_orb.poa.deactivate_object(stub.ior.object_key)
        try:
            stub.add(1, 1)
        except SystemException as e:
            out["minor"] = e.minor

    assert _run_client(runtime, client, c_orb, url, body)["minor"] == \
        "OBJECT_NOT_EXIST"


def test_servant_bug_becomes_unknown(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)
    servant.add = lambda a, b: 1 / 0  # sabotage

    def body(proc, stub, out):
        try:
            stub.add(1, 1)
        except SystemException as e:
            out["minor"] = e.minor
            out["detail"] = e.detail

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["minor"] == "UNKNOWN"
    assert "ZeroDivisionError" in out["detail"]


def test_wrong_arity_rejected_locally(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        with pytest.raises(CorbaError):
            stub.add(1)
        out["ok"] = True

    assert _run_client(runtime, client, c_orb, url, body)["ok"]


@pytest.mark.parametrize("call", [
    lambda stub, point: stub.greet("lone \ud800 surrogate"),
    lambda stub, point: stub.translate(point.make(x=0.0, y=0.0),
                                       2**2000, 0.0),
    lambda stub, point: stub.dot(["x"], [1.0]),
    lambda stub, point: stub.add("1", 2),
], ids=["string", "double", "sequence", "long"])
def test_unmarshallable_argument_is_marshal(runtime, call):
    # the codec's rejections (CdrError, the one error it raises) surface
    # as MARSHAL at the caller, before anything is sent
    server, client, s_orb, c_orb, servant, url = _setup(runtime)
    point = c_orb.idl.type("Demo::Point")

    def body(proc, stub, out):
        with pytest.raises(SystemException) as info:
            call(stub, point)
        out["minor"] = info.value.minor

    assert _run_client(runtime, client, c_orb, url, body) == \
        {"minor": "MARSHAL"}
    assert servant.calls == 0


def _skewed_client(rt, old, new):
    """A server on DEMO_IDL and a client whose IDL declares one
    operation differently: each side's codec reads what the other
    wrote under another type."""
    server, client, s_orb, _c_orb, servant, url = _setup(rt)
    c_orb = Orb(client, OMNIORB4, compile_idl(DEMO_IDL.replace(old, new)))
    return client, c_orb, servant, url


def _minor(rt, client, c_orb, url, call):
    def body(proc, stub, out):
        with pytest.raises(SystemException) as info:
            call(stub)
        out["minor"] = info.value.minor
        out["detail"] = info.value.detail

    return _run_client(rt, client, c_orb, url, body)


def test_undecodable_argument_is_marshal_at_the_server(runtime):
    # a long where the server reads a string: its length runs past the
    # body, so the request is answered MARSHAL and the servant never runs
    client, c_orb, servant, url = _skewed_client(
        runtime, "string greet(in string name)", "string greet(in long name)")
    out = _minor(runtime, client, c_orb, url, lambda stub: stub.greet(10**6))
    assert out["minor"] == "MARSHAL"
    assert out["detail"].startswith("greet arguments: truncated")
    assert servant.calls == 0


def test_unencodable_result_is_marshal_at_the_server(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)
    servant.greet = lambda name: "lone \ud800 surrogate"
    out = _minor(runtime, client, c_orb, url, lambda stub: stub.greet("x"))
    assert out["minor"] == "MARSHAL"
    assert out["detail"].startswith("greet result: ")


def test_unencodable_user_exception_is_marshal_at_the_server(runtime):
    # a declared exception whose field the codec rejects is answered
    # MARSHAL, and the thread serving the connection survives to answer
    # the next request
    server, client, s_orb, c_orb, servant, url = _setup(runtime)
    oops = s_orb.idl.type("Demo::Oops")

    def divide(a, b):
        if b == 0:
            raise oops.make(why="x", code=2**40)
        return a // b, a % b

    servant.divide = divide

    def body(proc, stub, out):
        with pytest.raises(SystemException) as info:
            stub.divide(1, 0)
        out["minor"] = info.value.minor
        out["detail"] = info.value.detail
        out["qr"] = stub.divide(17, 5)

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["minor"] == "MARSHAL"
    assert out["detail"].startswith("divide exception: ")
    assert out["qr"] == (3, 2)
    assert len(c_orb._connections) == 1


def test_overlong_bounded_string_argument_is_marshal_at_the_server(runtime):
    # the server bounds the parameter, the client does not: the server's
    # codec refuses the longer string it reads, and the servant never runs
    server, client, s_orb, c_orb, servant, url = _setup(
        runtime, server_idl=DEMO_IDL.replace(
            "string greet(in string name)", "string greet(in string<3> name)"))
    out = _minor(runtime, client, c_orb, url, lambda stub: stub.greet("toolong"))
    assert out["minor"] == "MARSHAL"
    assert out["detail"].startswith("greet arguments: string of 7 longer")
    assert servant.calls == 0


def test_undecodable_reply_is_marshal_at_the_client(runtime):
    # the server answers a string; the client reads a Point, 16 bytes
    # the reply does not hold
    client, c_orb, servant, url = _skewed_client(
        runtime, "string greet(in string name)", "Point greet(in string name)")
    out = _minor(runtime, client, c_orb, url, lambda stub: stub.greet("x"))
    assert out["minor"] == "MARSHAL"
    assert out["detail"].startswith("greet reply: truncated")
    assert servant.calls == 1


def test_collocated_invocation_short_circuits(runtime):
    """Same-process calls skip GIOP entirely (collocation optimisation)."""
    server = runtime.create_process("a0", "server")
    s_orb = Orb(server, OMNIORB4, compile_idl(DEMO_IDL))
    s_orb.start()
    servant = make_adder_servant(s_orb)
    ref = s_orb.poa.activate_object(servant)
    out = {}

    def main(proc):
        t0 = runtime.kernel.now
        out["sum"] = ref.add(1, 2)
        out["elapsed"] = runtime.kernel.now - t0

    server.spawn(main)
    runtime.run()
    assert out["sum"] == 3
    # the collocated charge alone, as a literal, so that scaling
    # COLLOCATED_OVERHEAD fails this test
    assert out["elapsed"] == 2e-06


def test_two_orbs_cohabitate_in_one_process(runtime):
    """The paper's §4.3.4 claim: several middleware systems (here two
    different ORB products) coexist in one PadicoTM process."""
    server = runtime.create_process("a0", "server")
    client = runtime.create_process("a1", "client")
    s_orb1 = Orb(server, OMNIORB4, compile_idl(DEMO_IDL))
    s_orb2 = Orb(server, MICO, compile_idl(DEMO_IDL))
    s_orb1.start()
    s_orb2.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(DEMO_IDL))
    url1 = s_orb1.object_to_string(
        s_orb1.poa.activate_object(make_adder_servant(s_orb1)))
    url2 = s_orb2.object_to_string(
        s_orb2.poa.activate_object(make_adder_servant(s_orb2)))
    out = {}

    def main(proc):
        out["via_omni"] = c_orb.string_to_object(url1).add(1, 1)
        out["via_mico"] = c_orb.string_to_object(url2).add(2, 2)

    client.spawn(main)
    runtime.run()
    assert out == {"via_omni": 2, "via_mico": 4}
    assert server.modules.is_loaded("corba/omniORB-4.0.0")
    assert server.modules.is_loaded("corba/Mico-2.3.7")


@pytest.mark.parametrize("profile,expected_us", [
    (OMNIORB3, 20.0),
    (OMNIORB4, 19.0),
    (ORBACUS, 54.0),
    (MICO, 62.0),
])
def test_one_way_latency_matches_paper(runtime, profile, expected_us):
    """§4.4 latency calibration: one-way empty invocation over Myrinet."""
    server, client, s_orb, c_orb, servant, url = _setup(
        runtime, client_profile=profile, server_profile=profile)

    def body(proc, stub, out):
        stub.add(0, 0)  # warm up the connection
        t0 = runtime.kernel.now
        stub.add(1, 1)
        out["rtt"] = runtime.kernel.now - t0

    out = _run_client(runtime, client, c_orb, url, body)
    one_way = out["rtt"] / 2 * 1e6
    # the reply carries a small result (no request header), so the two
    # directions are not exactly symmetric: allow 15%
    assert one_way == pytest.approx(expected_us, rel=0.15)


def test_corba_reaches_myrinet_bandwidth_with_omniorb(runtime):
    """Figure 7 headline: omniORB over PadicoTM ≈ 240 MB/s."""
    server, client, s_orb, c_orb, servant, url = _setup(runtime)
    n = 3_000_000  # 24 MB of doubles

    def body(proc, stub, out):
        u = np.zeros(n)
        stub.dot(u[:1], u[:1])  # connection warm-up
        t0 = runtime.kernel.now
        stub.dot(u, u)
        elapsed = runtime.kernel.now - t0
        out["bw"] = 2 * u.nbytes / elapsed  # two vectors per call

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["bw"] / 1e6 == pytest.approx(240, rel=0.03)


def test_mico_bandwidth_limited_by_copies(runtime):
    """Figure 7: Mico peaks near 55 MB/s because it copies on both sides."""
    server, client, s_orb, c_orb, servant, url = _setup(
        runtime, client_profile=MICO, server_profile=MICO)
    n = 1_000_000

    def body(proc, stub, out):
        u = np.zeros(n)
        stub.dot(u[:1], u[:1])
        t0 = runtime.kernel.now
        stub.dot(u, u)
        out["bw"] = 2 * u.nbytes / (runtime.kernel.now - t0)

    out = _run_client(runtime, client, c_orb, url, body)
    assert out["bw"] / 1e6 == pytest.approx(55, rel=0.05)


def test_invocation_outside_sim_thread_rejected(runtime):
    server, client, s_orb, c_orb, servant, url = _setup(runtime)
    stub = c_orb.string_to_object(url)
    with pytest.raises(CorbaError):
        stub.add(1, 2)  # no simulated thread context


def test_non_existent_liveness_probe(runtime):
    """CORBA `_non_existent`: liveness without OBJECT_NOT_EXIST noise."""
    server, client, s_orb, c_orb, servant, url = _setup(runtime)

    def body(proc, stub, out):
        out["alive"] = stub._non_existent()
        s_orb.poa.deactivate_object(stub.ior.object_key)
        out["gone"] = stub._non_existent()

    out = _run_client(runtime, client, c_orb, url, body)
    assert out == {"alive": False, "gone": True}


@pytest.mark.parametrize("protocol", ["giop", "esiop"])
def test_malformed_frame_drops_that_connection_only(runtime, protocol):
    """A bad magic, or a valid header over an unparseable request body,
    is a protocol error on *that* connection: the server closes it and
    keeps serving the others, and no server thread dies of it."""
    server = runtime.create_process("a0", "server")
    client = runtime.create_process("a1", "client")
    vandal = runtime.create_process("a2", "vandal")
    s_orb = Orb(server, OMNIORB4, compile_idl(DEMO_IDL), protocol=protocol)
    s_orb.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(DEMO_IDL), protocol=protocol)
    url = s_orb.object_to_string(
        s_orb.poa.activate_object(make_adder_servant(s_orb)))
    wire = s_orb.wire
    frames = {"bad-magic": (b"JUNKJUNKJUNK", b""),
              "bad-body": wire.frame(wire.MSG_REQUEST, b"\x01")}
    ends, out = {}, {}

    def junk(proc, kind):
        end = VLink.connect(proc, vandal, "server", s_orb.port)
        ends[kind] = end
        end.send(proc, frames[kind], 12)
        out[kind] = end.recv(proc)  # EOF once the server hangs up

    def main(proc):
        proc.sleep(1e-3)  # after both junk frames were served
        out["sum"] = c_orb.string_to_object(url).add(20, 22)

    for kind in frames:
        vandal.spawn(junk, kind, name=kind)
    client.spawn(main)
    runtime.run()
    assert out == {"bad-magic": None, "bad-body": None, "sum": 42}
    for end in ends.values():
        assert end.peer.closed  # the server's side of the junk connection
    assert [p.name for p in runtime.kernel._processes if p.exc] == []


@pytest.mark.parametrize("protocol", ["giop", "esiop"])
def test_malformed_reply_fails_pending_callers_and_reconnects(runtime,
                                                              protocol):
    """A valid header over an unparseable reply body is a protocol error
    on *that* connection: every caller pending on it raises COMM_FAILURE
    (with no ``request_timeout`` it used to wait forever on a dead
    reader), and the next invocation reconnects."""
    server = runtime.create_process("a0", "server")
    client = runtime.create_process("a1", "client")
    s_orb = Orb(server, OMNIORB4, compile_idl(DEMO_IDL), protocol=protocol)
    c_orb = Orb(client, OMNIORB4, compile_idl(DEMO_IDL), protocol=protocol)
    url = s_orb.object_to_string(
        s_orb.poa.activate_object(make_adder_servant(s_orb)))
    wire = s_orb.wire
    listener = VLink.listen(server, s_orb.port)  # in place of start()
    out = {}

    def acceptor(proc):
        end = listener.accept(proc)
        end.recv(proc)
        end.recv(proc)  # both callers are pending now
        bad = wire.frame(wire.MSG_REPLY, b"\x01")
        end.send(proc, bad, wire.message_size(bad))
        # whoever reconnects talks to the real server loop
        s_orb._serve_connection(proc, listener.accept(proc))

    def caller(proc, name):
        stub = c_orb.string_to_object(url)
        try:
            out[name] = stub.add(20, 22)
        except SystemException as exc:
            out[name] = exc.minor
            out[name + "-retry"] = stub.add(20, 22)

    server.spawn(acceptor, name="acceptor", daemon=True)
    for name in ("first", "second"):
        client.spawn(caller, name, name=name)
    runtime.run()
    assert out == {"first": "COMM_FAILURE", "first-retry": 42,
                   "second": "COMM_FAILURE", "second-retry": 42}
    assert [p.name for p in runtime.kernel._processes if p.exc] == []
