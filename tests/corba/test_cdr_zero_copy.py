"""Property tests for the zero-copy CDR wire discipline.

The zero-copy contract is purely about *how* the octets are produced,
never *which* octets: ``CdrOutputStream(zero_copy=True)`` +
:class:`WireBuffer` must emit byte-identical CDR to the copying
discipline for every IDL type and both byte orders, and
``CdrInputStream`` reading directly over the segment list must decode
values equal to a read over the joined contiguous bytes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corba.cdr import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    WireBuffer,
    decode_value,
    encode_value,
)
from repro.corba.idl.types import (
    ArrayType,
    PrimitiveType,
    SequenceType,
    StringType,
    StructType,
)

#: a tiny threshold so even small generated sequences exercise the
#: reference-segment (rendezvous) path
TINY_THRESHOLD = 8

_INT_KINDS = {
    "short": (-2**15, 2**15 - 1),
    "unsigned short": (0, 2**16 - 1),
    "long": (-2**31, 2**31 - 1),
    "unsigned long": (0, 2**32 - 1),
    "long long": (-2**63, 2**63 - 1),
    "unsigned long long": (0, 2**64 - 1),
}

_NUMERIC_KINDS = list(_INT_KINDS) + ["float", "double"]


def _scalar_values(kind: str):
    if kind in _INT_KINDS:
        lo, hi = _INT_KINDS[kind]
        return st.integers(lo, hi)
    if kind == "float":
        return st.floats(allow_nan=False, allow_infinity=False, width=32)
    if kind == "double":
        return st.floats(allow_nan=False, allow_infinity=False)
    if kind == "boolean":
        return st.booleans()
    if kind == "char":
        return st.integers(0, 255).map(chr)
    if kind == "octet":
        return st.integers(0, 255)
    raise AssertionError(kind)


@st.composite
def _numeric_sequences(draw):
    """(SequenceType, value) for a bulk numeric sequence."""
    kind = draw(st.sampled_from(_NUMERIC_KINDS))
    elems = draw(st.lists(_scalar_values(kind), max_size=64))
    t = SequenceType(PrimitiveType(kind))
    if draw(st.booleans()):
        order = "<" if draw(st.booleans()) else ">"
        return t, np.array(elems, dtype=order + PrimitiveType(kind).dtype)
    return t, elems


@st.composite
def _typed_values(draw, depth=2):
    """(IdlType, value) pairs over the bulk-relevant corner of IDL."""
    options = ["prim", "string", "octet_seq", "numeric_seq", "array"]
    if depth > 0:
        options += ["nested_seq", "struct", "string_seq"]
    kind = draw(st.sampled_from(options))
    if kind == "prim":
        k = draw(st.sampled_from(_NUMERIC_KINDS + ["boolean", "char",
                                                   "octet"]))
        return PrimitiveType(k), draw(_scalar_values(k))
    if kind == "string":
        return StringType(), draw(st.text(max_size=32))
    if kind == "octet_seq":
        return (SequenceType(PrimitiveType("octet")),
                draw(st.binary(max_size=64)))
    if kind == "numeric_seq":
        return draw(_numeric_sequences())
    if kind == "array":
        k = draw(st.sampled_from(_NUMERIC_KINDS))
        elems = draw(st.lists(_scalar_values(k), min_size=1, max_size=16))
        return ArrayType(PrimitiveType(k), len(elems)), elems
    if kind == "nested_seq":
        inner_t, rows = draw(st.lists(_numeric_sequences(), max_size=4)
                             .filter(lambda rs: len({t for t, _ in rs}) <= 1)
                             .map(lambda rs: (rs[0][0] if rs else
                                              SequenceType(
                                                  PrimitiveType("long")),
                                              [v for _, v in rs])))
        return SequenceType(inner_t), rows
    if kind == "string_seq":
        return (SequenceType(StringType()),
                draw(st.lists(st.text(max_size=16), max_size=8)))
    # struct of a few simpler members
    members = draw(st.lists(_typed_values(depth=depth - 1),
                            min_size=1, max_size=4))
    t = StructType("S", "Test::S",
                   [(f"f{i}", mt) for i, (mt, _v) in enumerate(members)])
    return t, t.make(**{f"f{i}": v for i, (_mt, v) in enumerate(members)})


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, list) and isinstance(b, list):
        return (len(a) == len(b)
                and all(_values_equal(x, y) for x, y in zip(a, b)))
    if hasattr(a, "_struct_type") and hasattr(b, "_struct_type"):
        return (a._struct_type == b._struct_type
                and all(_values_equal(getattr(a, f), getattr(b, f))
                        for f, _t in a._struct_type.fields))
    return a == b


def _encode(t, value, *, little_endian, zero_copy):
    out = CdrOutputStream(little_endian=little_endian, zero_copy=zero_copy,
                          threshold=TINY_THRESHOLD)
    encode_value(out, t, value)
    return out


@settings(max_examples=300, deadline=None)
@given(_typed_values(), st.booleans())
def test_zero_copy_octets_identical(tv, little_endian):
    """zero_copy=True emits exactly the octets of the copying mode."""
    t, value = tv
    copied = _encode(t, value, little_endian=little_endian, zero_copy=False)
    zero = _encode(t, value, little_endian=little_endian, zero_copy=True)
    wire = zero.getbuffer()
    assert isinstance(wire, WireBuffer)
    assert wire.nbytes == len(copied.getvalue())
    assert wire.getvalue() == copied.getvalue()
    # and the join cache on the zero-copy stream agrees with its buffer
    assert zero.getvalue() == copied.getvalue()


@settings(max_examples=300, deadline=None)
@given(_typed_values(), st.booleans())
def test_decode_over_segments_equals_contiguous(tv, little_endian):
    """CdrInputStream over a segment list decodes the same values."""
    t, value = tv
    zero = _encode(t, value, little_endian=little_endian, zero_copy=True)
    wire = zero.getbuffer()
    seg_inp = CdrInputStream(wire, little_endian=little_endian)
    flat_inp = CdrInputStream(wire.getvalue(), little_endian=little_endian)
    from_segments = decode_value(seg_inp, t)
    from_flat = decode_value(flat_inp, t)
    assert _values_equal(from_segments, from_flat)
    assert seg_inp.remaining == 0
    assert flat_inp.remaining == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=24), max_size=8),
       st.data())
def test_straddling_reads_join_correctly(chunks, data):
    """Arbitrary reads over arbitrary segmentation equal the flat bytes."""
    wire = WireBuffer([memoryview(c) for c in chunks])
    flat = wire.getvalue()
    inp = CdrInputStream(wire)
    pos = 0
    while pos < len(flat):
        n = data.draw(st.integers(1, min(7, len(flat) - pos)))
        got = inp._take(n)
        assert bytes(got) == flat[pos:pos + n]
        pos += n
    assert inp.remaining == 0


# ---------------------------------------------------------------------------
# WireBuffer unit behaviour
# ---------------------------------------------------------------------------

def test_wirebuffer_nbytes_len_and_lazy_join():
    arr = np.arange(64, dtype=np.int64)
    wb = WireBuffer([b"head", memoryview(arr).cast("B"), b"tail"])
    assert wb.nbytes == 4 + arr.nbytes + 4
    assert len(wb) == wb.nbytes
    joined = wb.getvalue()
    assert joined == b"head" + arr.tobytes() + b"tail"
    assert wb.getvalue() is joined  # cached, not re-joined
    assert bytes(wb) == joined
    assert "segments=3" in repr(wb)


def test_wirebuffer_segments_reference_caller_memory():
    arr = np.zeros(32, dtype=np.uint8)
    out = CdrOutputStream(zero_copy=True, threshold=8)
    out.write_bulk(arr)
    wb = out.getbuffer()
    view = [s for s in wb.segments if isinstance(s, memoryview)][0]
    arr[:] = 7  # mutating the caller's array is visible through the wire
    assert bytes(view) == bytes(arr)


def test_getbuffer_does_not_count_copies():
    arr = np.arange(1024, dtype=np.float64)
    out = CdrOutputStream(zero_copy=True, threshold=8)
    encode_value(out, SequenceType(PrimitiveType("double")), arr)
    copied_before = out.copied_bytes
    wb = out.getbuffer()
    assert out.copied_bytes == copied_before  # flush is not a copy
    assert out.referenced_bytes == arr.nbytes
    wb.getvalue()
    assert out.copied_bytes == copied_before  # lazy join is uncounted


def test_eager_below_threshold_copies_and_counts():
    arr = np.arange(4, dtype=np.uint8)
    out = CdrOutputStream(zero_copy=True, threshold=256)
    out.write_bulk(arr)
    assert out.referenced_bytes == 0
    assert out.copied_bytes == arr.nbytes
    # eager payload is copied: later mutation must NOT be visible
    wire = out.getbuffer()
    arr[:] = 9
    assert wire.getvalue() == bytes(range(4))


def test_getbuffer_hands_over_the_eager_buffer_without_a_copy():
    """A 4 MiB eager stream becomes a WireBuffer without a second
    copy: its eager segment is a read-only view of the stream's own
    buffer, and ``getvalue()`` still returns the same bytes."""
    payload = np.arange(4 * 1024 * 1024, dtype=np.uint8)
    out = CdrOutputStream()  # copying discipline: everything eager
    out.write_ulong(len(payload))
    out.write_bulk(payload)
    tracemalloc.start()
    try:
        wire = out.getbuffer()
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    (segment,) = wire.segments
    assert isinstance(segment, memoryview) and segment.readonly
    want = len(payload).to_bytes(4, "little") + payload.tobytes()
    assert bytes(segment) == want
    assert out.getvalue() == want == wire.getvalue()


def test_read_bulk_counts_referenced_not_copied():
    payload = bytes(range(256))
    inp = CdrInputStream(WireBuffer([payload]))
    view = inp.read_bulk(256)
    assert bytes(view) == payload
    assert inp.referenced_bytes == 256
    assert inp.copied_bytes == 0


def test_read_bulk_copy_counts_one_copy():
    payload = bytes(range(64))
    inp = CdrInputStream(payload)
    out = inp.read_bulk_copy(64)
    assert out == payload
    assert isinstance(out, bytes)
    assert inp.copied_bytes == 64
    assert inp.referenced_bytes == 0


def test_straddling_read_is_metered_once():
    wire = WireBuffer([b"\x01" * 6, b"\x02" * 6])
    inp = CdrInputStream(wire)
    inp.read_bulk(4)           # within first segment: referenced
    joined = inp.read_bulk(4)  # straddles the boundary: copied
    assert bytes(joined) == b"\x01\x01\x02\x02"
    assert inp.copied_bytes == 4
    assert inp.referenced_bytes == 4


def test_truncated_stream_raises():
    inp = CdrInputStream(WireBuffer([b"abc", b"de"]))
    inp.read_bulk(3)
    try:
        inp.read_bulk(3)
    except CdrError as exc:
        assert "truncated" in str(exc)
    else:
        raise AssertionError("expected CdrError")


def test_empty_wirebuffer_decodes_nothing():
    inp = CdrInputStream(WireBuffer([]))
    assert inp.remaining == 0
    assert bytes(inp.read_bulk(0)) == b""
