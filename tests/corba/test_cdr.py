"""CDR marshalling: alignment, both byte orders, zero-copy accounting,
and property-based round-trips over randomly generated IDL values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corba.cdr import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    ZERO_COPY_THRESHOLD,
    decode_value,
    encode_value,
    read_typecode,
    write_typecode,
)
from repro.corba.idl.types import (
    ANY,
    PRIMITIVES,
    ArrayType,
    EnumType,
    ExceptionType,
    NamedTypeRef,
    ObjRefType,
    PrimitiveType,
    SequenceType,
    StringType,
    StructType,
    VOID,
)
from repro.corba.ior import IOR


def roundtrip(t, value, little=True, zero_copy=False):
    out = CdrOutputStream(little_endian=little, zero_copy=zero_copy)
    encode_value(out, t, value)
    return decode_value(CdrInputStream(out.getvalue(), little), t)


# ---------------------------------------------------------------------------
# directed tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,value", [
    ("float", 1e300), ("float", -1e39), ("double", 2**2000),
    ("char", "\u20ac"), ("char", "\ud800"),
], ids=["float-overflow", "float-underflow", "huge-int", "euro", "surrogate"])
def test_unencodable_primitive_is_a_cdr_error(kind, value):
    with pytest.raises(CdrError):
        CdrOutputStream().write_primitive(kind, value)


@pytest.mark.parametrize("t", [SequenceType(PrimitiveType("float")),
                               ArrayType(PrimitiveType("float"), 2)],
                         ids=["sequence", "array"])
@pytest.mark.parametrize("little", [True, False], ids=["le", "be"])
def test_float_overflow_in_a_bulk_float_type_is_a_cdr_error(t, little):
    # a finite value beyond a float's range must not reach the wire as
    # inf: the bulk cast raises as the scalar path does
    for value in ([1e300, 1.0], [1.0, -1e39], np.array([1.0, 1e300])):
        with pytest.raises(CdrError):
            encode_value(CdrOutputStream(little_endian=little), t, value)
    # NaN and ±inf are float values: they still encode
    got = roundtrip(t, [float("inf"), float("nan")], little=little)
    assert got[0] == float("inf") and got[1] != got[1]
    assert roundtrip(t, [float("-inf"), 3.5], little=little)[0] \
        == float("-inf")


def test_unencodable_string_is_a_cdr_error():
    with pytest.raises(CdrError):
        CdrOutputStream().write_string("a\ud800b")


_ENUM = EnumType("E", "M::E", ["A", "B"])
_POINT = StructType("P", "M::P", [("x", PrimitiveType("short")),
                                  ("ok", PrimitiveType("boolean"))])
_CODEC_TYPES = [PrimitiveType(kind) for kind in PRIMITIVES] + [
    StringType(), StringType(3), SequenceType(PrimitiveType("long")),
    SequenceType(PrimitiveType("double")), SequenceType(PrimitiveType("float")),
    SequenceType(PrimitiveType("octet")), ArrayType(PrimitiveType("short"), 2),
    ArrayType(PrimitiveType("float"), 2),
    SequenceType(StringType()), ANY, _ENUM,
    StructType("S", "M::S", [("n", PrimitiveType("long")), ("e", _ENUM)]),
    SequenceType(PrimitiveType("boolean")), SequenceType(_POINT),
    ArrayType(_POINT, 2),
    StructType("N", "M::N", [("names", SequenceType(StringType())),
                             ("at", _POINT)])]

_scalars = st.one_of(st.integers(), st.floats(), st.text(max_size=3),
                     st.booleans(), st.binary(max_size=3))
_junk = st.one_of(_scalars, st.lists(_scalars, max_size=3),
                  st.tuples(_scalars, _scalars))


def _loose(t):
    """Values shaped like ``t`` at every depth, with arbitrary leaves —
    or plain junk in place of any of its parts."""
    if isinstance(t, StructType):
        names = [n for n, _f in t.fields]
        shaped = st.tuples(*(_loose(ft) for _n, ft in t.fields)).map(
            lambda vs: t.make(**dict(zip(names, vs))))
        return st.one_of(_junk, shaped)
    if isinstance(t, (SequenceType, ArrayType)) and \
            isinstance(t.element, StructType):
        return st.one_of(_junk, st.lists(_loose(t.element), max_size=3))
    return _junk


#: an IDL type of the table above and a value loosely shaped like it
_codec_draws = st.sampled_from(_CODEC_TYPES).flatmap(
    lambda t: st.tuples(st.just(t), _loose(t)))


@settings(max_examples=300, deadline=None)
@given(_codec_draws)
def test_every_rejected_value_raises_a_codec_error(tv):
    # every value is either encoded or rejected with CdrError — no other
    # exception leaves encode_value, at any depth (the ORB answers it
    # with MARSHAL); what is encoded decodes
    t, value = tv
    out = CdrOutputStream()
    try:
        encode_value(out, t, value)
    except CdrError:
        return
    decode_value(CdrInputStream(out.getvalue()), t)


@pytest.mark.parametrize("t,value", [
    (VOID, 0), (PrimitiveType("long"), True), (PrimitiveType("octet"), False),
    (PrimitiveType("boolean"), 1), (PrimitiveType("boolean"), "no"),
    (PrimitiveType("char"), "ab"), (PrimitiveType("double"), "1.0"),
    (StringType(2), "abc"), (StringType(), b"abc"), (_ENUM, "C"),
    (_ENUM, 2), (_ENUM, float("inf")), (NamedTypeRef("M::T"), 1),
    (_POINT, StructType("P", "M::Q", _POINT.fields).make(x=1, ok=True)),
    (_POINT, _POINT.make(x=1, ok="yes")),
    (SequenceType(PrimitiveType("long"), 2), [1, 2, 3]),
    (SequenceType(PrimitiveType("octet"), 2), b"abc"),
    (SequenceType(PrimitiveType("octet")), "abc"),
    (SequenceType(StringType()), 5), (ArrayType(_POINT, 2), [None]),
], ids=["void", "long-bool", "octet-bool", "boolean-int", "boolean-str",
        "char-2", "double-str", "string-bound", "string-bytes",
        "enum-name", "enum-index", "enum-inf", "unresolved",
        "struct-other-type", "struct-field", "seq-bound", "octets-bound",
        "octets-str", "seq-scalar", "array-length"])
def test_encoder_rejects_with_cdr_error(t, value):
    with pytest.raises(CdrError):
        encode_value(CdrOutputStream(), t, value)


def test_nested_boolean_is_checked_as_a_boolean():
    # checked where each element is written: a non-bool is refused,
    # not written as True
    t = SequenceType(PrimitiveType("boolean"))
    with pytest.raises(CdrError, match="boolean expects a bool"):
        encode_value(CdrOutputStream(), t, ["no"])
    assert roundtrip(t, [True, np.bool_(False)]) == [True, False]


def test_nested_struct_is_checked_as_a_struct():
    # each element must be a value of the struct type: a plain int is
    # a codec error, not an AttributeError
    with pytest.raises(CdrError, match="expected struct M::P"):
        encode_value(CdrOutputStream(), SequenceType(_POINT), [1, 2])
    value = [_POINT.make(x=-3, ok=True)]
    assert roundtrip(SequenceType(_POINT), value) == value


#: CDR-shaped garbage: small ulongs (lengths, enum indices, TypeCode
#: kinds) in either byte order, between runs of arbitrary octets
_WORDS = st.one_of(
    st.tuples(st.integers(0, 24), st.sampled_from(["little", "big"])).map(
        lambda w: w[0].to_bytes(4, w[1])),
    st.binary(max_size=6))


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_CODEC_TYPES), st.lists(_WORDS, max_size=12),
       st.booleans())
def test_malformed_input_raises_only_cdr_error(t, words, little):
    # whatever the octets, decoding returns a value or raises CdrError —
    # the one exception the ORB turns into MARSHAL
    try:
        decode_value(CdrInputStream(b"".join(words), little), t)
    except CdrError:
        pass


@pytest.mark.parametrize("kind,value", [
    ("short", -123), ("unsigned short", 65535),
    ("long", -2**31), ("unsigned long", 2**32 - 1),
    ("long long", -2**63), ("unsigned long long", 2**64 - 1),
    ("float", 1.5), ("double", -2.75),
    ("boolean", True), ("boolean", False),
    ("char", "A"), ("octet", 200),
])
@pytest.mark.parametrize("little", [True, False])
def test_primitive_roundtrip(kind, value, little):
    assert roundtrip(PrimitiveType(kind), value, little) == value


def test_primitive_range_check():
    with pytest.raises(CdrError):
        roundtrip(PrimitiveType("short"), 40000)
    with pytest.raises(CdrError):
        roundtrip(PrimitiveType("octet"), -1)


def test_alignment_layout():
    """CDR aligns each primitive to its natural boundary."""
    out = CdrOutputStream()
    out.write_primitive("octet", 1)
    out.write_primitive("double", 2.0)   # pads 7 bytes
    data = out.getvalue()
    assert len(data) == 16
    assert data[1:8] == b"\x00" * 7


def test_string_roundtrip_unicode():
    assert roundtrip(StringType(), "héllo wörld") == "héllo wörld"
    assert roundtrip(StringType(), "") == ""


def test_string_bound_enforced():
    with pytest.raises(CdrError):
        roundtrip(StringType(4), "too long")


def test_octet_sequence_roundtrip():
    t = SequenceType(PrimitiveType("octet"))
    assert roundtrip(t, b"\x00\x01\xff") == b"\x00\x01\xff"
    assert roundtrip(t, b"") == b""


@pytest.mark.parametrize("dtype,kind", [
    ("i2", "short"), ("u2", "unsigned short"),
    ("i4", "long"), ("u4", "unsigned long"),
    ("i8", "long long"), ("f4", "float"), ("f8", "double"),
])
def test_numeric_sequence_roundtrip(dtype, kind):
    t = SequenceType(PrimitiveType(kind))
    arr = np.arange(100).astype(dtype)
    back = roundtrip(t, arr)
    assert np.array_equal(back, arr)


def test_numeric_sequence_big_endian():
    t = SequenceType(PrimitiveType("double"))
    arr = np.linspace(0, 1, 50)
    back = roundtrip(t, arr, little=False)
    assert np.allclose(back, arr)


@pytest.mark.parametrize("t", [
    SequenceType(PrimitiveType("long")), SequenceType(PrimitiveType("double")),
    ArrayType(PrimitiveType("short"), 2), ArrayType(PrimitiveType("float"), 2),
], ids=["seq-long", "seq-double", "short[2]", "float[2]"])
@pytest.mark.parametrize("value", ["12", b"12", bytearray(b"12")],
                         ids=["str", "bytes", "bytearray"])
def test_numeric_container_refuses_text_and_bytes(t, value):
    # numpy's cast parses "12" as [12], and a bytes value walked as an
    # array is its octets' numbers: neither is a sequence of numbers
    with pytest.raises(CdrError, match="expects numbers"):
        encode_value(CdrOutputStream(), t, value)


def test_string_bound_enforced_on_decode():
    out = CdrOutputStream()
    encode_value(out, StringType(), "toolong")
    with pytest.raises(CdrError, match="longer than bound 3"):
        decode_value(CdrInputStream(out.getvalue()), StringType(3))
    assert decode_value(CdrInputStream(out.getvalue()), StringType(7)) \
        == "toolong"


def test_sequence_bound_enforced_on_decode():
    t_unbounded = SequenceType(PrimitiveType("long"))
    out = CdrOutputStream()
    encode_value(out, t_unbounded, list(range(10)))
    t_bounded = SequenceType(PrimitiveType("long"), bound=5)
    with pytest.raises(CdrError):
        decode_value(CdrInputStream(out.getvalue()), t_bounded)


def test_nested_sequences():
    t = SequenceType(SequenceType(PrimitiveType("long")))
    value = [[1, 2], [], [3, 4, 5]]
    back = roundtrip(t, value)
    assert [list(np.asarray(x)) for x in back] == value


def test_struct_and_enum_roundtrip():
    color = EnumType("Color", "Color", ["RED", "GREEN", "BLUE"])
    point = StructType("Point", "Geo::Point", [
        ("x", PrimitiveType("double")),
        ("y", PrimitiveType("double")),
        ("tint", color),
    ])
    value = point.make(x=1.0, y=-2.0, tint="BLUE")
    back = roundtrip(point, value)
    assert back.x == 1.0 and back.y == -2.0
    assert back.tint == 2  # enums decode to member index
    assert roundtrip(color, "GREEN") == 1
    assert roundtrip(color, 0) == 0


def test_exception_roundtrip():
    exc = ExceptionType("Oops", "M::Oops", [("why", StringType())],
                        "IDL:M/Oops:1.0")
    back = roundtrip(exc, exc.make(why="bad"))
    assert back.why == "bad"
    assert isinstance(back, Exception)


def test_objref_roundtrip_and_nil():
    t = ObjRefType("Demo::Adder")
    ior = IOR("IDL:Demo/Adder:1.0", "server", "iiop", "adder-1")
    assert roundtrip(t, ior) == ior
    assert roundtrip(t, None) is None


def test_any_roundtrip():
    t = SequenceType(PrimitiveType("long"))
    back_t, back_v = roundtrip(ANY, (t, np.array([5, 6, 7], "i4")))
    assert back_t == t
    assert list(back_v) == [5, 6, 7]


def test_any_struct_roundtrip():
    point = StructType("Point", "Geo::Point", [
        ("x", PrimitiveType("double")), ("y", PrimitiveType("double"))])
    back_t, back_v = roundtrip(ANY, (point, point.make(x=1.0, y=2.0)))
    assert back_t == point
    assert back_v == point.make(x=1.0, y=2.0)


def test_typecode_roundtrip_complex():
    t = SequenceType(StructType("S", "M::S", [
        ("name", StringType(16)),
        ("data", SequenceType(PrimitiveType("octet"))),
        ("ref", ObjRefType("M::I")),
    ]), bound=8)
    out = CdrOutputStream()
    write_typecode(out, t)
    assert read_typecode(CdrInputStream(out.getvalue())) == t


def test_truncated_stream_detected():
    out = CdrOutputStream()
    encode_value(out, PrimitiveType("double"), 1.0)
    data = out.getvalue()[:-2]
    with pytest.raises(CdrError):
        decode_value(CdrInputStream(data), PrimitiveType("double"))


# ---------------------------------------------------------------------------
# zero-copy accounting (the Figure-7 mechanism)
# ---------------------------------------------------------------------------

def test_zero_copy_skips_bulk_payload():
    t = SequenceType(PrimitiveType("double"))
    arr = np.zeros(100_000)
    out = CdrOutputStream(zero_copy=True)
    encode_value(out, t, arr)
    assert out.copied_bytes < 100           # only the length header
    assert len(out.getvalue()) >= arr.nbytes


def test_copying_mode_copies_everything():
    t = SequenceType(PrimitiveType("double"))
    arr = np.zeros(100_000)
    out = CdrOutputStream(zero_copy=False)
    encode_value(out, t, arr)
    assert out.copied_bytes >= arr.nbytes


def test_zero_copy_threshold_small_payloads_copied():
    t = SequenceType(PrimitiveType("octet"))
    small = bytes(ZERO_COPY_THRESHOLD - 1)
    out = CdrOutputStream(zero_copy=True)
    encode_value(out, t, small)
    assert out.copied_bytes >= len(small)


def test_decode_numeric_sequence_is_view_not_copy():
    """The guide's views-not-copies idiom on the receive path."""
    t = SequenceType(PrimitiveType("long"))
    out = CdrOutputStream()
    encode_value(out, t, np.arange(1000, dtype="i4"))
    data = out.getvalue()
    back = decode_value(CdrInputStream(data), t)
    assert back.base is not None  # it's a view over the message buffer


# ---------------------------------------------------------------------------
# property-based round-trips
# ---------------------------------------------------------------------------

_prim_values = {
    "short": st.integers(-2**15, 2**15 - 1),
    "unsigned short": st.integers(0, 2**16 - 1),
    "long": st.integers(-2**31, 2**31 - 1),
    "unsigned long": st.integers(0, 2**32 - 1),
    "long long": st.integers(-2**63, 2**63 - 1),
    "unsigned long long": st.integers(0, 2**64 - 1),
    "double": st.floats(allow_nan=False, allow_infinity=False),
    "boolean": st.booleans(),
    "octet": st.integers(0, 255),
    "char": st.characters(min_codepoint=32, max_codepoint=126),
}


@st.composite
def typed_values(draw, depth=2):
    """A random (IdlType, conforming value) pair."""
    choices = ["prim", "string", "octetseq", "numseq"]
    if depth > 0:
        choices += ["listseq", "struct", "enum", "array"]
    kind = draw(st.sampled_from(choices))
    if kind == "prim":
        pk = draw(st.sampled_from(sorted(_prim_values)))
        return PrimitiveType(pk), draw(_prim_values[pk])
    if kind == "string":
        return StringType(), draw(st.text(max_size=40))
    if kind == "octetseq":
        return (SequenceType(PrimitiveType("octet")),
                draw(st.binary(max_size=300)))
    if kind == "numseq":
        nk = draw(st.sampled_from(["long", "double", "short"]))
        vals = draw(st.lists(_prim_values[nk], max_size=50))
        dtype = PrimitiveType(nk).dtype
        return (SequenceType(PrimitiveType(nk)),
                np.array(vals, dtype=dtype))
    if kind == "listseq":
        inner_t, _ = draw(typed_values(depth=0))
        n = draw(st.integers(0, 5))
        vals = [draw(_value_for(inner_t)) for _ in range(n)]
        return SequenceType(inner_t), vals
    if kind == "enum":
        members = draw(st.lists(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            min_size=1, max_size=5, unique=True))
        et = EnumType("E", "E", members)
        return et, draw(st.integers(0, len(members) - 1))
    if kind == "array":
        inner_t, _ = draw(typed_values(depth=0))
        length = draw(st.integers(1, 6))
        at = ArrayType(inner_t, length)
        return at, [draw(_value_for(inner_t)) for _ in range(length)]
    # struct
    nfields = draw(st.integers(1, 4))
    fields = []
    values = {}
    for i in range(nfields):
        ft, _ = draw(typed_values(depth=0))
        fields.append((f"f{i}", ft))
        values[f"f{i}"] = draw(_value_for(ft))
    stype = StructType("S", "S", fields)
    return stype, stype.make(**values)


def _value_for(t):
    if isinstance(t, PrimitiveType):
        return _prim_values[t.kind]
    if isinstance(t, StringType):
        return st.text(max_size=20)
    if isinstance(t, SequenceType):
        elem = t.element
        if isinstance(elem, PrimitiveType) and elem.kind == "octet":
            return st.binary(max_size=60)
        if isinstance(elem, PrimitiveType) and elem.kind != "char":
            return st.lists(_prim_values[elem.kind], max_size=20).map(
                lambda v: np.array(v, dtype=elem.dtype))
    raise AssertionError(f"no strategy for {t}")


def _eq(t, a, b):
    if isinstance(t, ArrayType):
        return len(a) == len(b) and all(
            _eq(t.element, x, y) for x, y in zip(a, b))
    if isinstance(t, SequenceType):
        elem = t.element
        if isinstance(elem, PrimitiveType) and elem.kind == "octet":
            return bytes(a) == bytes(b)
        if isinstance(elem, PrimitiveType):
            return np.array_equal(np.asarray(a), np.asarray(b))
        return len(a) == len(b) and all(
            _eq(elem, x, y) for x, y in zip(a, b))
    if isinstance(t, EnumType):
        return t.index_of(a) == t.index_of(b)
    if isinstance(t, StructType):
        return all(_eq(ft, getattr(a, fn), getattr(b, fn))
                   for fn, ft in t.fields)
    if isinstance(t, PrimitiveType) and t.kind in ("float",):
        return np.float32(a) == np.float32(b)
    return a == b


@settings(max_examples=250, deadline=None)
@given(typed_values(), st.booleans(), st.booleans())
def test_cdr_roundtrip_property(tv, little, zero_copy):
    t, value = tv
    out = CdrOutputStream(little_endian=little, zero_copy=zero_copy)
    encode_value(out, t, value)
    back = decode_value(CdrInputStream(out.getvalue(), little), t)
    assert _eq(t, back, value)


@settings(max_examples=100, deadline=None)
@given(typed_values())
def test_any_roundtrip_property(tv):
    t, value = tv
    out = CdrOutputStream()
    encode_value(out, ANY, (t, value))
    back_t, back_v = decode_value(CdrInputStream(out.getvalue()), ANY)
    assert back_t == t
    assert _eq(t, back_v, value)


@settings(max_examples=100, deadline=None)
@given(typed_values(), typed_values())
def test_cdr_streams_concatenate(tv1, tv2):
    """Two values encoded back-to-back decode back-to-back (alignment
    is positional, not per-value)."""
    (t1, v1), (t2, v2) = tv1, tv2
    out = CdrOutputStream()
    encode_value(out, t1, v1)
    encode_value(out, t2, v2)
    inp = CdrInputStream(out.getvalue())
    assert _eq(t1, decode_value(inp, t1), v1)
    assert _eq(t2, decode_value(inp, t2), v2)
