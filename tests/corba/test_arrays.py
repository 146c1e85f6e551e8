"""Fixed-size IDL arrays: declarators, CDR, wire behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corba import OMNIORB4, Orb, compile_idl
from repro.corba.cdr import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    decode_value,
    encode_value,
    read_typecode,
    write_typecode,
)
from repro.corba.idl import IdlError
from repro.corba.idl.types import ANY, ArrayType, PrimitiveType

ARRAY_IDL = """
module A {
    typedef double Row[4];
    typedef double Grid[3][4];
    typedef octet Digest[16];
    struct Cell { long coords[2]; string name; };
    interface Math {
        double trace(in Grid m);
        Digest hash(in string text);
    };
};
"""


def _compiled():
    return compile_idl(ARRAY_IDL)


def roundtrip(t, value):
    out = CdrOutputStream()
    encode_value(out, t, value)
    return decode_value(CdrInputStream(out.getvalue()), t)


def test_array_typedefs_compile():
    idl = _compiled()
    row = idl.type("A::Row")
    assert isinstance(row, ArrayType) and row.length == 4
    grid = idl.type("A::Grid")
    assert grid.typename() == "double[3][4]"
    assert grid.length == 3 and grid.element.length == 4
    cell = idl.type("A::Cell")
    assert dict(cell.fields)["coords"] == ArrayType(PrimitiveType("long"), 2)


def test_array_wire_has_no_length_prefix():
    idl = _compiled()
    digest = idl.type("A::Digest")
    out = CdrOutputStream()
    encode_value(out, digest, bytes(16))
    assert len(out.getvalue()) == 16  # exactly the payload, no header


def test_array_roundtrip_numeric():
    idl = _compiled()
    row = idl.type("A::Row")
    back = roundtrip(row, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(back, [1.0, 2.0, 3.0, 4.0])


def test_array_roundtrip_nested():
    idl = _compiled()
    grid = idl.type("A::Grid")
    v = np.arange(12.0).reshape(3, 4)
    back = roundtrip(grid, v)
    assert all(np.array_equal(r, v[i]) for i, r in enumerate(back))


def test_array_length_enforced():
    idl = _compiled()
    row = idl.type("A::Row")
    with pytest.raises(CdrError):
        roundtrip(row, np.zeros(5))
    with pytest.raises(CdrError):
        roundtrip(row, np.zeros(3))


def test_array_in_struct_and_any():
    idl = _compiled()
    cell = idl.type("A::Cell")
    value = cell.make(coords=[7, 9], name="cell")
    back = roundtrip(cell, value)
    assert list(back.coords) == [7, 9]
    out = CdrOutputStream()
    encode_value(out, ANY, (cell, value))
    t, v = decode_value(CdrInputStream(out.getvalue()), ANY)
    assert t == cell and list(v.coords) == [7, 9]


def test_array_typecode_roundtrip():
    idl = _compiled()
    for name in ("A::Row", "A::Grid", "A::Digest"):
        t = idl.type(name)
        out = CdrOutputStream()
        write_typecode(out, t)
        assert read_typecode(CdrInputStream(out.getvalue())) == t


def test_zero_length_array_rejected():
    with pytest.raises(IdlError):
        ArrayType(PrimitiveType("long"), 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.data())
def test_array_roundtrip_property(length, data):
    t = ArrayType(PrimitiveType("long"), length)
    values = data.draw(st.lists(st.integers(-2**31, 2**31 - 1),
                                min_size=length, max_size=length))
    back = roundtrip(t, values)
    assert list(back) == values


def test_arrays_through_full_invocation(runtime):
    server = runtime.create_process("a0", "server")
    client = runtime.create_process("a1", "client")
    s_orb = Orb(server, OMNIORB4, compile_idl(ARRAY_IDL))
    s_orb.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(ARRAY_IDL))

    class Math(s_orb.servant_base("A::Math")):
        def trace(self, m):
            return float(sum(m[i][i] for i in range(3)))

        def hash(self, text):
            return (text.encode() * 16)[:16]

    url = s_orb.object_to_string(s_orb.poa.activate_object(Math()))
    out = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        out["trace"] = stub.trace(np.arange(12.0).reshape(3, 4))
        out["hash"] = stub.hash("xy")

    client.spawn(main)
    runtime.run()
    assert out["trace"] == 0.0 + 5.0 + 10.0
    assert out["hash"] == b"xy" * 8
