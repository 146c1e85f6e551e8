"""IDL abstract syntax tree nodes (pure data, produced by the parser)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.corba.idl.types import IdlType


@dataclass
class Specification:
    """A whole IDL compilation unit."""

    definitions: list[Any] = field(default_factory=list)


@dataclass
class ModuleDecl:
    name: str
    definitions: list[Any] = field(default_factory=list)


@dataclass
class ParamDecl:
    direction: str  # in | out | inout
    type_spec: IdlType
    name: str


@dataclass
class OperationDecl:
    name: str
    return_type: IdlType
    params: list[ParamDecl] = field(default_factory=list)
    raises: list[str] = field(default_factory=list)  # scoped exception names
    oneway: bool = False


@dataclass
class AttributeDecl:
    name: str
    type_spec: IdlType
    readonly: bool = False


@dataclass
class InterfaceDecl:
    name: str
    bases: list[str] = field(default_factory=list)
    body: list[Any] = field(default_factory=list)


@dataclass
class StructDecl:
    name: str
    members: list[tuple[IdlType, str]] = field(default_factory=list)


@dataclass
class EnumDecl:
    name: str
    members: list[str] = field(default_factory=list)


@dataclass
class TypedefDecl:
    name: str
    type_spec: IdlType


@dataclass
class ExceptionDecl:
    name: str
    members: list[tuple[IdlType, str]] = field(default_factory=list)


@dataclass
class PortDecl:
    """An IDL3 component port declaration."""

    kind: str        # provides | uses
    type_name: str   # interface scoped name
    name: str


@dataclass
class ComponentDecl:
    name: str
    base: str | None = None
    supports: list[str] = field(default_factory=list)
    ports: list[PortDecl] = field(default_factory=list)
    attributes: list[AttributeDecl] = field(default_factory=list)


@dataclass
class HomeDecl:
    name: str
    manages: str = ""
    body: list[Any] = field(default_factory=list)

