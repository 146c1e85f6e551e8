"""SOAP envelope codec and RPC over PadicoTM."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime
from repro.soap import (
    SoapClient,
    SoapError,
    SoapFault,
    SoapServer,
    decode_envelope,
    encode_envelope,
)


@pytest.fixture()
def runtime():
    topo = Topology()
    build_cluster(topo, "a", 2)
    rt = PadicoRuntime(topo)
    yield rt
    rt.shutdown()


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_envelope_roundtrip_scalars():
    data = encode_envelope("op", {"i": 7, "f": 2.5, "s": "hi",
                                  "b": True, "n": None})
    op, payload = decode_envelope(data)
    assert op == "op"
    assert payload == {"i": 7, "f": 2.5, "s": "hi", "b": True, "n": None}


def test_envelope_roundtrip_containers():
    data = encode_envelope("op", {
        "lst": [1, "two", 3.0],
        "struct": {"a": 1, "b": [True, None]},
    })
    _op, payload = decode_envelope(data)
    assert payload["lst"] == [1, "two", 3.0]
    assert payload["struct"] == {"a": 1, "b": [True, None]}


def test_envelope_roundtrip_array():
    arr = np.linspace(0, 1, 17)
    data = encode_envelope("op", {"arr": arr})
    _op, payload = decode_envelope(data)
    assert np.allclose(payload["arr"], arr)


def test_text_encoding_inflates_arrays():
    """The reason Web Services lose the bandwidth race (paper §5)."""
    arr = np.random.default_rng(0).random(1000)
    data = encode_envelope("op", {"arr": arr})
    assert len(data) > 2 * arr.nbytes


def test_fault_envelope_raises():
    data = encode_envelope("op", {}, fault=("soap:Server", "boom"))
    with pytest.raises(SoapFault) as ei:
        decode_envelope(data)
    assert ei.value.faultstring == "boom"
    with pytest.raises(SoapError):  # it would decode as a fault
        encode_envelope("Fault", {})


def test_malformed_envelope_rejected():
    with pytest.raises(SoapError):
        decode_envelope(b"<notsoap/>")
    with pytest.raises(SoapError):
        decode_envelope(b"garbage<")


def test_unencodable_value_rejected():
    with pytest.raises(SoapError):
        encode_envelope("op", {"x": object()})
    with pytest.raises(SoapError):
        encode_envelope("op", {"d": {1: "non-string key"}})
    with pytest.raises(SoapError):
        encode_envelope("my op", {})


def test_carriage_return_survives_end_of_line_normalisation():
    payload = {"s": "a\rb\r\nc\n"}
    data = encode_envelope("op", payload)
    assert b"&#13;" in data
    assert decode_envelope(data)[1] == payload


def test_arrays_keep_shape_and_integer_dtype():
    big = np.array([[2**53 + 1, -2**63], [2**62 + 3, 7]], dtype="i8")
    flat = np.arange(5, dtype="u1")
    _op, back = decode_envelope(encode_envelope("op", {"m": big,
                                                       "v": flat}))
    for sent, got in ((big, back["m"]), (flat, back["v"])):
        assert got.dtype == sent.dtype and got.shape == sent.shape
        assert np.array_equal(got, sent)


@pytest.mark.parametrize("payload", [
    {"a": "\ufffe"}, {"a": "\x00"}, {"a": "\ud800"}, {"a b": 1},
    {"1a": 1}, {"s": {"my key": 1}}, {"z": np.zeros(2, dtype=complex)},
], ids=["nonchar", "nul", "surrogate", "space-name", "digit-name",
        "struct-key", "complex-array"])
def test_what_xml_cannot_carry_is_rejected_at_encode(payload):
    with pytest.raises(SoapError):
        encode_envelope("op", payload)


#: XML 1.0's ``Char`` production, written independently of the codec
def _xml_chars(text):
    return all(c in "\t\n\r" or "\x20" <= c <= "\ud7ff"
               or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
               for c in text)


def _leaf_strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from _leaf_strings(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _leaf_strings(item)


_values = st.recursive(
    st.one_of(st.integers(-2**31, 2**31 - 1), st.booleans(), st.none(),
              st.floats(allow_nan=False, allow_infinity=False),
              st.text(max_size=20)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(alphabet="abcdef", min_size=1, max_size=6),
                        children, max_size=4)),
    max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(alphabet="abcxyz", min_size=1, max_size=8),
                       _values, max_size=5))
@example(payload={"a": "\ufffe"})
def test_envelope_roundtrip_property(payload):
    # exact round trip, or SoapError at encode for exactly the payloads
    # holding a character XML 1.0 cannot carry
    if all(_xml_chars(s) for s in _leaf_strings(payload)):
        op, back = decode_envelope(encode_envelope("op", payload))
        assert back == payload
    else:
        with pytest.raises(SoapError):
            encode_envelope("op", payload)


#: an XML name without a colon, written independently of the codec
_NAME = re.compile(r"[^\W\d]\w*(?:[-.]\w*)*")

_arrays = hnp.arrays(
    st.sampled_from(["i8", "u8", "i1", "u2", "f8", "f4", "?", "c16"]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="ab1-._ :", max_size=4), _arrays)
def test_names_and_arrays_roundtrip_or_are_rejected(name, array):
    ok = _NAME.fullmatch(name) is not None and array.dtype.kind != "c"
    if not ok:
        with pytest.raises(SoapError):
            encode_envelope("op", {name: array})
        return
    _op, back = decode_envelope(encode_envelope("op", {name: array}))
    got = back[name]
    assert got.dtype == array.dtype and got.shape == array.shape
    assert np.array_equal(got, array, equal_nan=True)


# ---------------------------------------------------------------------------
# RPC
# ---------------------------------------------------------------------------

def test_fault_text_xml_cannot_carry_still_reaches_the_client(runtime):
    server_p = runtime.create_process("a0", "ws")
    client_p = runtime.create_process("a1", "cli")
    server = SoapServer(server_p)

    def broken():
        raise ValueError("bad \x00 byte")

    server.register("broken", broken)
    out = {}

    def cli(proc):
        client = SoapClient(client_p, server.url)
        with pytest.raises(SoapFault) as info:
            client.call(proc, "broken")
        out["fault"] = info.value.faultstring

    client_p.spawn(cli)
    runtime.run()
    assert out["fault"] == "ValueError: bad \ufffd byte"


def test_soap_rpc_roundtrip(runtime):
    server_p = runtime.create_process("a0", "ws")
    client_p = runtime.create_process("a1", "cli")
    server = SoapServer(server_p)
    server.register("add", lambda a, b: {"sum": a + b})
    server.register("echo", lambda **kw: kw)
    out = {}

    def cli(proc):
        client = SoapClient(client_p, server.url)
        out["sum"] = client.call(proc, "add", a=20, b=22)["sum"]
        out["echo"] = client.call(proc, "echo", msg="hello", n=3)
        client.close()

    client_p.spawn(cli)
    runtime.run()
    assert out["sum"] == 42
    assert out["echo"] == {"msg": "hello", "n": 3}


def test_soap_unknown_operation_faults(runtime):
    server_p = runtime.create_process("a0", "ws")
    client_p = runtime.create_process("a1", "cli")
    server = SoapServer(server_p)
    out = {}

    def cli(proc):
        client = SoapClient(client_p, server.url)
        try:
            client.call(proc, "nothing")
        except SoapFault as f:
            out["code"] = f.faultcode

    client_p.spawn(cli)
    runtime.run()
    assert out["code"] == "soap:Client"


def test_soap_handler_exception_becomes_server_fault(runtime):
    server_p = runtime.create_process("a0", "ws")
    client_p = runtime.create_process("a1", "cli")
    server = SoapServer(server_p)
    server.register("bad", lambda: 1 / 0)
    out = {}

    def cli(proc):
        client = SoapClient(client_p, server.url)
        try:
            client.call(proc, "bad")
        except SoapFault as f:
            out["fault"] = (f.faultcode, "ZeroDivisionError" in f.faultstring)

    client_p.spawn(cli)
    runtime.run()
    assert out["fault"] == ("soap:Server", True)


def test_soap_much_slower_than_corba_for_bulk(runtime):
    """§5: Web Services performance is poor — measurably."""
    server_p = runtime.create_process("a0", "ws")
    client_p = runtime.create_process("a1", "cli")
    server = SoapServer(server_p)
    server.register("sum", lambda arr: {"s": float(np.sum(arr))})
    out = {}
    arr = np.random.default_rng(1).random(20_000)

    def cli(proc):
        client = SoapClient(client_p, server.url)
        t0 = runtime.kernel.now
        res = client.call(proc, "sum", arr=arr)
        out["elapsed"] = runtime.kernel.now - t0
        out["sum"] = res["s"]

    client_p.spawn(cli)
    runtime.run()
    assert out["sum"] == pytest.approx(float(arr.sum()))
    # effective goodput well under 3 MB/s vs 240 for omniORB
    assert arr.nbytes / out["elapsed"] < 3e6
    # two call overheads plus the text cost of request and reply, as a
    # literal, so that scaling either SOAP cost fails this test
    assert out["elapsed"] == 0.05578850416666668


def test_soap_module_loaded(runtime):
    server_p = runtime.create_process("a0", "ws")
    SoapServer(server_p)
    assert server_p.modules.is_loaded("soap/gsoap-2.x")


def test_bad_url_rejected(runtime):
    p = runtime.create_process("a0", "cli")
    with pytest.raises(SoapError):
        SoapClient(p, "http://wrong")
