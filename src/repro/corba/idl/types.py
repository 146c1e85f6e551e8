"""Runtime IDL type model.

These objects describe wire types for the CDR marshaller and value
shapes for stubs/skeletons.  Python value mapping:

==================  =========================================
IDL                 Python
==================  =========================================
short/long/...      int (range-checked by the CDR codec)
float/double        float
boolean             bool
char                 1-character str
octet               int (0..255)
string              str
sequence<octet>     bytes / bytearray / memoryview
sequence<numeric>   numpy array (or any sequence of numbers)
sequence<T>         list
struct              generated value class (attribute access)
enum                int (member index) or member name str
interface           ObjectRef
==================  =========================================
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.corba.idl.errors import IdlError

#: primitive kind -> (struct format char, size, alignment, numpy dtype)
PRIMITIVES: dict[str, tuple[str, int, int, str]] = {
    "short": ("h", 2, 2, "i2"),
    "unsigned short": ("H", 2, 2, "u2"),
    "long": ("i", 4, 4, "i4"),
    "unsigned long": ("I", 4, 4, "u4"),
    "long long": ("q", 8, 8, "i8"),
    "unsigned long long": ("Q", 8, 8, "u8"),
    "float": ("f", 4, 4, "f4"),
    "double": ("d", 8, 8, "f8"),
    "boolean": ("B", 1, 1, "u1"),
    "char": ("c", 1, 1, "S1"),
    "octet": ("B", 1, 1, "u1"),
}


class IdlType:
    """Base class of all wire types."""

    def typename(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<idl {self.typename()}>"


class VoidType(IdlType):
    def typename(self) -> str:
        return "void"


VOID = VoidType()


class AnyType(IdlType):
    """CORBA ``any``: a (type, value) pair on the wire."""

    def typename(self) -> str:
        return "any"


ANY = AnyType()


class PrimitiveType(IdlType):
    __slots__ = ("kind", "fmt", "size", "align", "dtype")
    _cache: dict[str, "PrimitiveType"] = {}

    def __new__(cls, kind: str) -> "PrimitiveType":
        if kind not in PRIMITIVES:
            raise IdlError(f"unknown primitive type {kind!r}")
        if kind not in cls._cache:
            inst = super().__new__(cls)
            fmt, size, align, dtype = PRIMITIVES[kind]
            inst.kind = kind
            inst.fmt = fmt
            inst.size = size
            inst.align = align
            inst.dtype = dtype
            cls._cache[kind] = inst
        return cls._cache[kind]

    def typename(self) -> str:
        return self.kind

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimitiveType) and other.kind == self.kind

    def __hash__(self) -> int:
        return hash(("prim", self.kind))


class StringType(IdlType):
    __slots__ = ("bound",)

    def __init__(self, bound: int | None = None):
        self.bound = bound

    def typename(self) -> str:
        return f"string<{self.bound}>" if self.bound else "string"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StringType) and other.bound == self.bound

    def __hash__(self) -> int:
        return hash(("string", self.bound))


class SequenceType(IdlType):
    __slots__ = ("element", "bound")

    def __init__(self, element: IdlType, bound: int | None = None):
        self.element = element
        self.bound = bound

    def typename(self) -> str:
        inner = self.element.typename()
        return (f"sequence<{inner},{self.bound}>" if self.bound
                else f"sequence<{inner}>")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SequenceType)
                and other.element == self.element and other.bound == self.bound)

    def __hash__(self) -> int:
        return hash(("seq", self.element, self.bound))


class StructValue:
    """Base for generated struct values: keyword construction,
    attribute access, structural equality."""

    _struct_type: "StructType"
    __slots__ = ()

    def __init__(self, **fields: Any):
        declared = [n for n, _t in self._struct_type.fields]
        unknown = set(fields) - set(declared)
        if unknown:
            raise IdlError(
                f"struct {self._struct_type.name}: unknown fields {unknown}")
        missing = set(declared) - set(fields)
        if missing:
            raise IdlError(
                f"struct {self._struct_type.name}: missing fields {missing}")
        for name, value in fields.items():
            setattr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StructValue) or \
                other._struct_type != self._struct_type:
            return NotImplemented
        return all(_values_equal(getattr(self, n), getattr(other, n))
                   for n, _t in self._struct_type.fields)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}"
                         for n, _t in self._struct_type.fields)
        return f"{self._struct_type.name}({body})"


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(np.array_equal(np.asarray(a), np.asarray(b)))
    return bool(a == b)


class StructType(IdlType):
    __slots__ = ("name", "scoped_name", "fields", "value_class")

    def __init__(self, name: str, scoped_name: str,
                 fields: list[tuple[str, IdlType]]):
        self.name = name
        self.scoped_name = scoped_name
        self.fields = list(fields)
        # no __slots__: exception value classes must combine with the
        # C-level Exception layout, which forbids slotted bases
        self.value_class = type(name, (StructValue,), {"_struct_type": self})

    def make(self, **fields: Any) -> StructValue:
        return self.value_class(**fields)

    def typename(self) -> str:
        return f"struct {self.scoped_name}"

    def __eq__(self, other: object) -> bool:
        # structural equality so types survive a trip through an `any`
        return (isinstance(other, StructType)
                and other.scoped_name == self.scoped_name
                and other.fields == self.fields)

    def __hash__(self) -> int:
        return hash(("struct", self.scoped_name))


class ExceptionType(StructType):
    """IDL exception: a struct raised as a Python exception."""

    __slots__ = ("exc_class", "repo_id")

    def __init__(self, name: str, scoped_name: str,
                 fields: list[tuple[str, IdlType]], repo_id: str):
        super().__init__(name, scoped_name, fields)
        self.repo_id = repo_id
        struct_type = self

        def exc_init(self_exc, **kw: Any) -> None:
            struct_type.value_class.__init__(self_exc, **kw)
            Exception.__init__(self_exc, StructValue.__repr__(self_exc))

        self.exc_class = type(
            name, (UserExceptionBase, self.value_class),
            {"__init__": exc_init, "_exception_type": self,
             # Exception.__repr__ would otherwise shadow the struct repr
             "__repr__": StructValue.__repr__,
             "__str__": StructValue.__repr__})

    def make(self, **fields: Any) -> "UserExceptionBase":
        return self.exc_class(**fields)

    def typename(self) -> str:
        return f"exception {self.scoped_name}"


class UserExceptionBase(Exception):
    """Base of all generated IDL user exceptions."""

    _exception_type: ExceptionType


class EnumType(IdlType):
    __slots__ = ("name", "scoped_name", "members")

    def __init__(self, name: str, scoped_name: str, members: list[str]):
        self.name = name
        self.scoped_name = scoped_name
        self.members = list(members)

    def index_of(self, value: Any) -> int:
        """The member index of ``value`` (a member name or an index);
        raises ValueError for anything else."""
        if isinstance(value, str):
            try:
                return self.members.index(value)
            except ValueError:
                raise ValueError(f"{value!r} is not a member of enum "
                                 f"{self.scoped_name}") from None
        try:
            idx = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{value!r} is not a member of enum "
                             f"{self.scoped_name}") from None
        if not 0 <= idx < len(self.members):
            raise ValueError(
                f"enum {self.scoped_name} index {idx} out of range")
        return idx

    def typename(self) -> str:
        return f"enum {self.scoped_name}"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EnumType)
                and other.scoped_name == self.scoped_name
                and other.members == self.members)

    def __hash__(self) -> int:
        return hash(("enum", self.scoped_name))


class ObjRefType(IdlType):
    """A reference to a CORBA object of a given interface."""

    __slots__ = ("interface",)

    def __init__(self, interface: str):
        self.interface = interface  # scoped interface name

    def typename(self) -> str:
        return f"interface {self.interface}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjRefType) and \
            other.interface == self.interface

    def __hash__(self) -> int:
        return hash(("objref", self.interface))


class ArrayType(IdlType):
    """Fixed-size IDL array (``typedef long Row[4]``).

    Multidimensional arrays nest: ``long Grid[3][4]`` is
    ``ArrayType(ArrayType(long, 4), 3)`` — outer dimension first."""

    __slots__ = ("element", "length")

    def __init__(self, element: IdlType, length: int):
        if length < 1:
            raise IdlError(f"array length must be >= 1, got {length}")
        self.element = element
        self.length = length

    def typename(self) -> str:
        dims = []
        t: IdlType = self
        while isinstance(t, ArrayType):
            dims.append(t.length)
            t = t.element
        return t.typename() + "".join(f"[{d}]" for d in dims)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ArrayType)
                and other.element == self.element
                and other.length == self.length)

    def __hash__(self) -> int:
        return hash(("array", self.element, self.length))


class NamedTypeRef(IdlType):
    """Unresolved scoped-name reference; eliminated by the compiler."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def typename(self) -> str:
        return f"?{self.name}"
