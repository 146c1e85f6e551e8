"""CDR (Common Data Representation) marshalling.

Real byte-level encoding with CORBA alignment rules and both byte
orders.  Two marshalling disciplines coexist, reproducing the paper's
decisive ORB difference (§4.4: "unlike omniORB, Mico and ORBacus always
copy data for marshalling and unmarshalling"):

- **copying** (`zero_copy=False`): every value, including bulk numeric
  sequences, is serialised into the output buffer — one full CPU copy,
  metered in :attr:`CdrOutputStream.copied_bytes` (the ORB profile
  converts that to virtual CPU time);
- **zero-copy** (`zero_copy=True`): bulk contiguous sequences are
  appended as memoryview segments for the NIC to gather directly; only
  scalar headers pass through the copy buffer.

Decoding mirrors this: bulk numeric sequences come back as numpy views
over the message buffer (no copy) — the guide's views-not-copies idiom.

The zero-copy discipline runs end-to-end: :meth:`CdrOutputStream.getbuffer`
returns the message as a :class:`WireBuffer` — an iovec-style segment
list that GIOP framing, VLink/Circuit delivery, and the framed group
transport forward by reference — and :class:`CdrInputStream` reads
directly over those segments, joining only the rare scalar read that
straddles a segment boundary.  Both streams meter the two disciplines
(:attr:`copied_bytes` vs :attr:`referenced_bytes`), feeding the
``wire.copied_bytes.*`` / ``wire.referenced_bytes.*`` obs counters.

Which values an IDL type accepts is decided here, by the one walk that
writes them: :func:`encode_value` checks each value where it marshals
it, at every depth, and every rejection is a :class:`CdrError` (the ORB
answers each with ``MARSHAL``).  Integer kinds refuse ``bool``,
``boolean`` takes only ``bool`` / ``np.bool_``, a ``char`` is one
Latin-1 character, strings and sequences keep their bounds (decoding
too), arrays their length, and a struct or exception value must be a
value of that very type.  Bulk numeric and octet sequences (and
ndarray-valued arrays) are not checked per element: numpy's cast
converts them in one call, overflow still raises, and a Python check
per element would undo the bulk path; a ``str`` or ``bytes`` value of
a numeric sequence or array is refused before it, as numpy would parse
the text.  The stream primitives GIOP framing uses
(:meth:`CdrOutputStream.write_ulong`, :meth:`~CdrOutputStream.write_primitive`)
stay unchecked fast paths.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence as PySequence
from typing import Any

import numpy as np

from repro.corba.idl.types import (
    PRIMITIVES,
    AnyType,
    ArrayType,
    EnumType,
    ExceptionType,
    IdlType,
    ObjRefType,
    PrimitiveType,
    SequenceType,
    StringType,
    StructType,
    StructValue,
    VoidType,
)
from repro.corba.ior import IOR

#: sequences at least this large ride the zero-copy path when enabled
ZERO_COPY_THRESHOLD = 256

#: per-byte-order pre-compiled packers: ``struct.pack(fmt, v)`` re-parses
#: the format string on every call, which dominates scalar marshalling;
#: a GIOP header alone is eight primitive writes
_STRUCT_CACHE: dict[str, dict[str, struct.Struct]] = {
    order: {kind: struct.Struct(order + fmt)
            for kind, (fmt, _size, _align, _dtype) in PRIMITIVES.items()}
    for order in ("<", ">")
}

#: kind → interned PrimitiveType, skipping the __new__ round-trip per write
_PRIM_BY_KIND: dict[str, PrimitiveType] = {
    kind: PrimitiveType(kind) for kind in PRIMITIVES
}


class CdrError(Exception):
    """Marshalling failure."""


class WireBuffer:
    """An iovec-style wire message: an ordered list of segments.

    Segments are ``bytes`` (copied scalar headers) interleaved with
    ``memoryview``s that still reference the caller's arrays — the
    Madeleine gather list the paper's zero-copy argument rests on
    (§4–§5).  ``len()`` / :attr:`nbytes` are O(1), so GIOP header
    packing and flow sizing never force a join; :meth:`getvalue` joins
    lazily (and caches) for consumers that genuinely need contiguous
    bytes, e.g. tests or debugging dumps.

    Because bulk segments alias live caller memory, a ``WireBuffer``
    is only valid while the sender blocks on the matching delivery —
    exactly the two-way CORBA request/reply and MPI rendezvous
    disciplines that produce them.
    """

    __slots__ = ("_segments", "_nbytes", "_value")

    def __init__(self, segments: list[bytes | memoryview],
                 nbytes: int | None = None):
        self._segments = segments
        if nbytes is None:
            nbytes = sum(s.nbytes if isinstance(s, memoryview) else len(s)
                         for s in segments)
        self._nbytes = nbytes
        self._value: bytes | None = None

    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def segments(self) -> tuple[bytes | memoryview, ...]:
        return tuple(self._segments)

    def __len__(self) -> int:
        return self._nbytes

    def getvalue(self) -> bytes:
        """Join the segments into contiguous bytes (cached)."""
        if self._value is None:
            self._value = b"".join(
                bytes(s) if isinstance(s, memoryview) else s
                for s in self._segments)
        return self._value

    def __bytes__(self) -> bytes:
        return self.getvalue()

    def __repr__(self) -> str:
        return (f"WireBuffer(nbytes={self._nbytes}, "
                f"segments={len(self._segments)})")


class CdrOutputStream:
    """An aligned CDR output stream with optional zero-copy segments."""

    def __init__(self, little_endian: bool = True, zero_copy: bool = False,
                 threshold: int = ZERO_COPY_THRESHOLD):
        self.little_endian = little_endian
        self.zero_copy = zero_copy
        #: eager/rendezvous cutover: bulk values below it are copied
        #: into the contiguous buffer (eager), values at or above it
        #: become reference segments (rendezvous) when zero_copy is on
        self.threshold = threshold
        self._order = "<" if little_endian else ">"
        self._structs = _STRUCT_CACHE[self._order]
        self._ulong = self._structs["unsigned long"]
        self._chunks: list[bytes | memoryview] = []
        self._buf = bytearray()
        self._length = 0          # total stream length so far
        self._value: bytes | None = None  # getvalue() join cache
        self.copied_bytes = 0     # bytes that passed through a CPU copy
        self.referenced_bytes = 0  # bulk bytes appended by reference

    # -- low-level --------------------------------------------------------
    def align(self, n: int) -> None:
        pad = (-self._length) % n
        if pad:
            self._buf.extend(b"\x00" * pad)
            self._length += pad
            self._value = None

    def _append_copied(self, data: bytes) -> None:
        self._buf.extend(data)
        self._length += len(data)
        self.copied_bytes += len(data)
        self._value = None

    def _append_segment(self, view: memoryview) -> None:
        """Hand a buffer to the stream without copying (gather DMA)."""
        if self._buf:
            self._chunks.append(bytes(self._buf))
            self._buf = bytearray()
        self._chunks.append(view)
        self._length += view.nbytes
        self.referenced_bytes += view.nbytes
        self._value = None

    def write_primitive(self, kind: str, value: Any) -> None:
        prim = _PRIM_BY_KIND.get(kind)
        if prim is None:
            prim = PrimitiveType(kind)  # an unknown kind raises here
        self.align(prim.align)
        # the trys cost nothing unless they catch (zero-cost exceptions)
        if kind == "char":
            try:
                data = value.encode("latin-1")
            except (UnicodeEncodeError, AttributeError) as exc:
                raise CdrError(f"char is not Latin-1: {value!r}") from exc
            if len(data) != 1:
                raise CdrError(f"char must encode to 1 byte: {value!r}")
        elif kind == "boolean":
            data = b"\x01" if value else b"\x00"
        else:
            try:
                data = self._structs[kind].pack(value)
            except (struct.error, OverflowError) as exc:
                raise CdrError(f"cannot pack {value!r} as {kind}") from exc
        self._append_copied(data)

    def write_ulong(self, value: int) -> None:
        # dedicated fast path: every length prefix, enum, and GIOP header
        # field funnels through here
        self.align(4)
        try:
            data = self._ulong.pack(value)
        except struct.error as exc:
            raise CdrError(
                f"cannot pack {value!r} as unsigned long") from exc
        self._append_copied(data)

    def write_octet(self, value: int) -> None:
        self.write_primitive("octet", value)

    def write_string(self, value: str) -> None:
        try:
            data = value.encode("utf-8")
        except (UnicodeEncodeError, AttributeError) as exc:
            raise CdrError(f"cannot encode {value!r} as UTF-8") from exc
        self.write_ulong(len(data) + 1)
        self._append_copied(data + b"\x00")

    def write_bulk(self, data: bytes | bytearray | memoryview | np.ndarray,
                   align: int = 1) -> None:
        """Write a bulk byte region, zero-copy when enabled and large."""
        if isinstance(data, np.ndarray):
            arr = np.ascontiguousarray(data)
            view = memoryview(arr).cast("B")
        else:
            view = memoryview(data).cast("B")
        self.align(align)
        if self.zero_copy and view.nbytes >= self.threshold:
            self._append_segment(view)
        else:
            # eager protocol: one copy straight into the contiguous
            # buffer — bytearray consumes the view without an
            # intermediate bytes materialisation
            self._buf += view
            self._length += view.nbytes
            self.copied_bytes += view.nbytes
            self._value = None

    # -- results ------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def getvalue(self) -> bytes:
        """Final message bytes (the join stands in for NIC gather DMA).

        The join is cached: GIOP asks for the message more than once
        (size patching, then send), and re-joining an unchanged stream
        each time is pure waste.  Any append invalidates the cache.
        """
        if self._value is not None:
            return self._value
        if self._buf:
            self._chunks.append(bytes(self._buf))
            self._buf = bytearray()
        if len(self._chunks) == 1:
            out = bytes(self._chunks[0])
        else:
            out = b"".join(bytes(c) if isinstance(c, memoryview) else c
                           for c in self._chunks)
        self._chunks = [out]
        self._value = out
        return out

    def getbuffer(self) -> WireBuffer:
        """The message as a :class:`WireBuffer` — no join, no copy.

        This is what the wire path sends: copied scalar chunks plus
        bulk reference segments, handed down to the NIC gather list
        as-is.  The join cache is deliberately untouched; a later
        :meth:`getvalue` still works.
        """
        if self._buf:
            self._chunks.append(bytes(self._buf))
            self._buf = bytearray()
        return WireBuffer(list(self._chunks), self._length)


class CdrInputStream:
    """An aligned CDR input stream over one message buffer.

    The message may be contiguous (``bytes``/``bytearray``/
    ``memoryview``) or a :class:`WireBuffer` straight off the wire.
    Reads stay within the current segment whenever possible and return
    views; only a read that straddles a segment boundary joins — those
    joined bytes are metered in :attr:`copied_bytes`, bulk views in
    :attr:`referenced_bytes`.
    """

    def __init__(self,
                 data: bytes | bytearray | memoryview | WireBuffer,
                 little_endian: bool = True):
        if isinstance(data, WireBuffer):
            segments = [s if isinstance(s, memoryview) else memoryview(s)
                        for s in data.segments]
            if not segments:
                segments = [memoryview(b"")]
            size = data.nbytes
        else:
            segments = [memoryview(data)]
            size = len(segments[0])
        self._segments = segments
        self._seg = segments[0]        # current segment
        self._seg_start = 0            # stream offset of current segment
        self._next = 1                 # index of the next segment
        self._size = size
        self.little_endian = little_endian
        self._order = "<" if little_endian else ">"
        self._structs = _STRUCT_CACHE[self._order]
        self._ulong = self._structs["unsigned long"]
        self._pos = 0
        self.copied_bytes = 0      # bytes materialised (joins + bulk copies)
        self.referenced_bytes = 0  # bulk bytes returned as views

    @property
    def remaining(self) -> int:
        return self._size - self._pos

    @property
    def segments(self) -> tuple[memoryview, ...]:
        """The message's segments, as :attr:`WireBuffer.segments`."""
        return tuple(self._segments)

    def align(self, n: int) -> None:
        self._pos += (-self._pos) % n

    def _take(self, n: int) -> memoryview:
        off = self._pos - self._seg_start
        end = off + n
        if end <= len(self._seg):
            self._pos += n
            return self._seg[off:end]
        return self._take_slow(n)

    def _take_slow(self, n: int) -> memoryview:
        if self._pos + n > self._size:
            raise CdrError(f"truncated CDR stream: need {n} bytes, have "
                           f"{self.remaining}")
        # hop over exhausted segments
        while (self._pos - self._seg_start >= len(self._seg)
               and self._next < len(self._segments)):
            self._seg_start += len(self._seg)
            self._seg = self._segments[self._next]
            self._next += 1
        off = self._pos - self._seg_start
        if off + n <= len(self._seg):
            self._pos += n
            return self._seg[off:off + n]
        # the read straddles a segment boundary: join just this range
        parts = []
        need = n
        while need:
            off = self._pos - self._seg_start
            avail = len(self._seg) - off
            if avail == 0:
                self._seg_start += len(self._seg)
                self._seg = self._segments[self._next]
                self._next += 1
                continue
            take = avail if avail < need else need
            parts.append(self._seg[off:off + take])
            self._pos += take
            need -= take
        self.copied_bytes += n
        return memoryview(b"".join(parts))

    def read_primitive(self, kind: str) -> Any:
        prim = _PRIM_BY_KIND.get(kind)
        if prim is None:
            prim = PrimitiveType(kind)  # an unknown kind raises here
        self.align(prim.align)
        raw = self._take(prim.size)
        if kind == "char":
            return bytes(raw).decode("latin-1")
        if kind == "boolean":
            return bool(raw[0])
        return self._structs[kind].unpack(raw)[0]

    def read_ulong(self) -> int:
        # mirror of write_ulong: the unmarshalling hot path
        self.align(4)
        return self._ulong.unpack(self._take(4))[0]

    def read_octet(self) -> int:
        return self.read_primitive("octet")

    def read_string(self) -> str:
        n = self.read_ulong()
        raw = self._take(n)
        try:
            return bytes(raw[:-1]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CdrError(f"string is not UTF-8: {exc}") from None

    def read_bulk(self, nbytes: int, align: int = 1) -> memoryview:
        """A zero-copy view over ``nbytes`` of the message buffer."""
        self.align(align)
        before = self.copied_bytes
        out = self._take(nbytes)
        if self.copied_bytes == before:
            self.referenced_bytes += nbytes
        return out

    def read_bulk_copy(self, nbytes: int) -> bytes:
        """A bulk read deliberately materialised as ``bytes``.

        For consumers that need an owning, hashable buffer (octet
        sequences exposed to user code, GIOP principals).  The
        materialisation is one metered copy.
        """
        before = self.copied_bytes
        out = self._take(nbytes)
        if self.copied_bytes == before:
            self.copied_bytes += nbytes
        return bytes(out)


# ---------------------------------------------------------------------------
# typed encode/decode
# ---------------------------------------------------------------------------

_NUMERIC_KINDS = frozenset(k for k in
                           ("short", "unsigned short", "long",
                            "unsigned long", "long long",
                            "unsigned long long", "float", "double"))
#: kinds whose scalar packer would take a bool as 0 / 1
_INT_KINDS = frozenset(("short", "unsigned short", "long", "unsigned long",
                        "long long", "unsigned long long", "octet"))


def encode_value(out: CdrOutputStream, t: IdlType, value: Any) -> None:
    """Marshal ``value`` as ``t``, checking each value where it is
    written; a value ``t`` does not accept raises :class:`CdrError`."""
    if isinstance(t, PrimitiveType):
        kind = t.kind
        if kind == "boolean":
            if not isinstance(value, (bool, np.bool_)):
                raise CdrError(f"boolean expects a bool, got {value!r}")
        elif isinstance(value, bool) and kind in _INT_KINDS:
            raise CdrError(f"{kind} expects an int, got {value!r}")
        out.write_primitive(kind, value)
    elif isinstance(t, StringType):
        if not isinstance(value, str):
            raise CdrError(f"string expected, got {value!r}")
        if t.bound is not None and len(value) > t.bound:
            raise CdrError(f"string longer than bound {t.bound}")
        out.write_string(value)
    elif isinstance(t, SequenceType):
        _encode_sequence(out, t, value)
    elif isinstance(t, ArrayType):
        _encode_array(out, t, value)
    elif isinstance(t, StructType):  # and ExceptionType
        if not (isinstance(value, StructValue)
                and value._struct_type == t):
            raise CdrError(f"expected {t.typename()}, got {value!r}")
        if isinstance(t, ExceptionType):
            out.write_string(t.repo_id)
        for fname, ftype in t.fields:
            encode_value(out, ftype, getattr(value, fname))
    elif isinstance(t, EnumType):
        try:
            index = t.index_of(value)
        except ValueError as exc:
            raise CdrError(str(exc)) from None
        out.write_ulong(index)
    elif isinstance(t, ObjRefType):
        _encode_objref(out, value)
    elif isinstance(t, VoidType):
        if value is not None:
            raise CdrError(f"void value must be None, got {value!r}")
    elif isinstance(t, AnyType):
        try:
            inner_type, inner_value = value
        except (ValueError, TypeError) as exc:
            raise CdrError(f"an any is a (type, value) pair, got "
                           f"{value!r}") from exc
        write_typecode(out, inner_type)
        encode_value(out, inner_type, inner_value)
    else:  # an unresolved NamedTypeRef, or not a type at all
        raise CdrError(f"cannot encode type {t!r}")


def _length(t: SequenceType | ArrayType, value: Any) -> int:
    """The element count of ``value``, a container ``t`` accepts."""
    if isinstance(value, np.ndarray):
        if value.ndim:
            return len(value)
    elif isinstance(value, PySequence):
        return len(value)
    raise CdrError(f"{t.typename()} expects a sequence, got {value!r}")


def _encode_sequence(out: CdrOutputStream, t: SequenceType,
                     value: Any) -> None:
    elem = t.element
    if isinstance(elem, PrimitiveType) and elem.kind == "octet":
        if isinstance(value, np.ndarray):
            view = memoryview(np.ascontiguousarray(value)).cast("B")
        elif isinstance(value, (list, tuple)):
            view = memoryview(_octets(value))
        elif isinstance(value, (bytes, bytearray, memoryview)):
            view = memoryview(value)
        else:
            raise CdrError(f"sequence<octet> expects bytes, got {value!r}")
        _check_bound(t, view.nbytes)
        out.write_ulong(view.nbytes)
        out.write_bulk(view)
        return
    if isinstance(elem, PrimitiveType) and elem.kind in _NUMERIC_KINDS:
        _not_text(t, value)
        _length(t, value)
        arr = _numeric(out, t, value)
        _check_bound(t, arr.size)
        out.write_ulong(arr.size)
        out.write_bulk(arr, align=elem.align)
        return
    n = _length(t, value)
    _check_bound(t, n)
    out.write_ulong(n)
    for item in value:
        encode_value(out, elem, item)


def _not_text(t: SequenceType | ArrayType, value: Any) -> None:
    """Refuse text and raw bytes as numbers: numpy's cast would parse
    ``"12"`` as ``[12]``, and a bytes value is not its octets' numbers
    either."""
    if isinstance(value, (str, bytes, bytearray)):
        raise CdrError(f"{t.typename()} expects numbers, got {value!r}")


def _check_bound(t: SequenceType, n: int) -> None:
    if t.bound is not None and n > t.bound:
        raise CdrError(f"sequence of {n} longer than bound {t.bound}")


def _numeric(out: CdrOutputStream, t: SequenceType | ArrayType,
             value: Any) -> np.ndarray:
    """``value`` cast to ``t``'s numeric element type in the stream's
    byte order.  A finite value the cast would turn into ±inf (a float
    beyond a ``float``'s range) raises, as a scalar ``float`` does; NaN
    and ±inf themselves encode."""
    order = "<" if out.little_endian else ">"
    try:
        with np.errstate(over="raise"):
            return np.asarray(value, dtype=order + t.element.dtype)
    except (ValueError, TypeError, OverflowError,
            FloatingPointError) as exc:
        raise CdrError(f"cannot pack {value!r} as "
                       f"{t.typename()}") from exc


def _octets(value: list | tuple) -> bytes:
    try:
        return bytes(value)
    except (ValueError, TypeError) as exc:
        raise CdrError(f"cannot pack {value!r} as octets") from exc


def _encode_array(out: CdrOutputStream, t: ArrayType, value: Any) -> None:
    """Fixed-size arrays: no length prefix on the wire.  An ndarray of
    a numeric or octet element is cast in bulk; any other value is
    walked element by element, which writes the same bytes."""
    elem = t.element
    if isinstance(elem, PrimitiveType) and elem.kind in _NUMERIC_KINDS:
        _not_text(t, value)
    if isinstance(value, np.ndarray) and isinstance(elem, PrimitiveType) \
            and (elem.kind in _NUMERIC_KINDS or elem.kind == "octet"):
        arr = _numeric(out, t, value)
        if arr.size != t.length:
            raise CdrError(f"{t.typename()} takes {t.length} elements, "
                           f"got {arr.size}")
        out.write_bulk(arr, align=elem.align)
        return
    n = _length(t, value)
    if n != t.length:
        raise CdrError(f"{t.typename()} takes {t.length} elements, got {n}")
    for item in value:
        encode_value(out, elem, item)


def _decode_array(inp: CdrInputStream, t: ArrayType) -> Any:
    elem = t.element
    if isinstance(elem, PrimitiveType) and elem.kind == "octet":
        return inp.read_bulk_copy(t.length)
    if isinstance(elem, PrimitiveType) and elem.kind in _NUMERIC_KINDS:
        order = "<" if inp.little_endian else ">"
        raw = inp.read_bulk(t.length * elem.size, align=elem.align)
        return np.frombuffer(raw, dtype=order + elem.dtype, count=t.length)
    return [decode_value(inp, elem) for _ in range(t.length)]


def _encode_objref(out: CdrOutputStream, value: Any) -> None:
    ior = getattr(value, "ior", value)  # accept ObjectRef or bare IOR
    if ior is None:
        out.write_string("")  # nil reference
        return
    if not isinstance(ior, IOR):
        raise CdrError(f"cannot encode {value!r} as an object reference")
    out.write_string(ior.stringify())


def decode_value(inp: CdrInputStream, idl_type: IdlType) -> Any:
    """Unmarshal a value of ``idl_type``."""
    t = idl_type
    if isinstance(t, VoidType):
        return None
    if isinstance(t, PrimitiveType):
        return inp.read_primitive(t.kind)
    if isinstance(t, StringType):
        text = inp.read_string()
        if t.bound is not None and len(text) > t.bound:
            raise CdrError(f"string of {len(text)} longer than bound "
                           f"{t.bound}")
        return text
    if isinstance(t, SequenceType):
        return _decode_sequence(inp, t)
    if isinstance(t, ArrayType):
        return _decode_array(inp, t)
    if isinstance(t, ExceptionType):
        rid = inp.read_string()
        if rid != t.repo_id:
            raise CdrError(f"exception id mismatch: {rid!r} != {t.repo_id!r}")
        fields = {fname: decode_value(inp, ftype)
                  for fname, ftype in t.fields}
        return t.make(**fields)
    if isinstance(t, StructType):
        fields = {fname: decode_value(inp, ftype)
                  for fname, ftype in t.fields}
        return t.make(**fields)
    if isinstance(t, EnumType):
        index = inp.read_ulong()
        if index >= len(t.members):
            raise CdrError(f"enum {t.scoped_name} index {index} out of range")
        return index
    if isinstance(t, ObjRefType):
        text = inp.read_string()
        return None if not text else IOR.destringify(text)
    if isinstance(t, AnyType):
        inner_type = read_typecode(inp)
        return (inner_type, decode_value(inp, inner_type))
    raise CdrError(f"cannot decode type {t!r}")


def _decode_sequence(inp: CdrInputStream, t: SequenceType) -> Any:
    elem = t.element
    n = inp.read_ulong()
    if t.bound is not None and n > t.bound:
        raise CdrError(f"sequence length {n} exceeds bound {t.bound}")
    if isinstance(elem, PrimitiveType) and elem.kind == "octet":
        return inp.read_bulk_copy(n)
    if isinstance(elem, PrimitiveType) and elem.kind in _NUMERIC_KINDS:
        order = "<" if inp.little_endian else ">"
        raw = inp.read_bulk(n * elem.size, align=elem.align)
        # zero-copy view over the message buffer (read-only)
        return np.frombuffer(raw, dtype=order + elem.dtype, count=n)
    return [decode_value(inp, elem) for _ in range(n)]


# ---------------------------------------------------------------------------
# TypeCodes (for `any`)
# ---------------------------------------------------------------------------

_TC_PRIMS = {
    "short": 2, "long": 3, "unsigned short": 4, "unsigned long": 5,
    "float": 6, "double": 7, "boolean": 8, "char": 9, "octet": 10,
    "long long": 23, "unsigned long long": 24,
}
_TC_PRIMS_REV = {v: k for k, v in _TC_PRIMS.items()}
_TC_ANY, _TC_OBJREF, _TC_STRUCT, _TC_ENUM, _TC_STRING, _TC_SEQUENCE, \
    _TC_EXCEPT, _TC_VOID = 11, 14, 15, 17, 18, 19, 22, 1
_TC_ARRAY = 20


def write_typecode(out: CdrOutputStream, t: IdlType) -> None:
    """Encode a TypeCode (the type half of an ``any``)."""
    if isinstance(t, VoidType):
        out.write_ulong(_TC_VOID)
    elif isinstance(t, PrimitiveType):
        out.write_ulong(_TC_PRIMS[t.kind])
    elif isinstance(t, StringType):
        out.write_ulong(_TC_STRING)
        out.write_ulong(t.bound or 0)
    elif isinstance(t, SequenceType):
        out.write_ulong(_TC_SEQUENCE)
        out.write_ulong(t.bound or 0)
        write_typecode(out, t.element)
    elif isinstance(t, ArrayType):
        out.write_ulong(_TC_ARRAY)
        out.write_ulong(t.length)
        write_typecode(out, t.element)
    elif isinstance(t, ExceptionType):
        out.write_ulong(_TC_EXCEPT)
        _write_tc_struct_body(out, t)
    elif isinstance(t, StructType):
        out.write_ulong(_TC_STRUCT)
        _write_tc_struct_body(out, t)
    elif isinstance(t, EnumType):
        out.write_ulong(_TC_ENUM)
        out.write_string(t.scoped_name)
        out.write_ulong(len(t.members))
        for m in t.members:
            out.write_string(m)
    elif isinstance(t, ObjRefType):
        out.write_ulong(_TC_OBJREF)
        out.write_string(t.interface)
    elif isinstance(t, AnyType):
        out.write_ulong(_TC_ANY)
    else:
        raise CdrError(f"no TypeCode for {t!r}")


def _write_tc_struct_body(out: CdrOutputStream, t: StructType) -> None:
    out.write_string(t.scoped_name)
    out.write_ulong(len(t.fields))
    for fname, ftype in t.fields:
        out.write_string(fname)
        write_typecode(out, ftype)


def read_typecode(inp: CdrInputStream) -> IdlType:
    """Decode a TypeCode back into an :class:`IdlType`."""
    from repro.corba.idl.types import ANY, VOID  # avoid import cycle noise

    kind = inp.read_ulong()
    if kind == _TC_VOID:
        return VOID
    if kind in _TC_PRIMS_REV:
        return PrimitiveType(_TC_PRIMS_REV[kind])
    if kind == _TC_STRING:
        bound = inp.read_ulong()
        return StringType(bound or None)
    if kind == _TC_SEQUENCE:
        bound = inp.read_ulong()
        return SequenceType(read_typecode(inp), bound or None)
    if kind == _TC_ARRAY:
        length = inp.read_ulong()
        if not length:
            raise CdrError("array TypeCode of length 0")
        return ArrayType(read_typecode(inp), length)
    if kind in (_TC_STRUCT, _TC_EXCEPT):
        scoped = inp.read_string()
        nfields = inp.read_ulong()
        fields = [(inp.read_string(), read_typecode(inp))
                  for _ in range(nfields)]
        name = scoped.rsplit("::", 1)[-1]
        if kind == _TC_EXCEPT:
            from repro.corba.idl.compiler import repo_id
            return ExceptionType(name, scoped, fields, repo_id(scoped))
        return StructType(name, scoped, fields)
    if kind == _TC_ENUM:
        scoped = inp.read_string()
        members = [inp.read_string() for _ in range(inp.read_ulong())]
        return EnumType(scoped.rsplit("::", 1)[-1], scoped, members)
    if kind == _TC_OBJREF:
        return ObjRefType(inp.read_string())
    if kind == _TC_ANY:
        return ANY
    raise CdrError(f"unknown TypeCode kind {kind}")
