"""OMG IDL compiler: lexer → parser → AST → Python stubs/skeletons.

Supports the IDL 2 subset grid applications use (modules, interfaces
with inheritance, operations with in/out/inout parameters and raises
clauses, attributes, structs, enums, typedefs, sequences, arrays,
strings, ``any``, exceptions) plus the IDL 3 component extensions CCM
needs (``component`` with provides/uses ports and attributes,
``home``).  ``union``, ``const``, ``eventtype`` and event ports are
rejected with an :class:`IdlParseError` naming the construct and its
line: nothing in the stack uses them."""

from repro.corba.idl.ast_nodes import (
    AttributeDecl,
    ComponentDecl,
    EnumDecl,
    ExceptionDecl,
    HomeDecl,
    InterfaceDecl,
    ModuleDecl,
    OperationDecl,
    ParamDecl,
    PortDecl,
    Specification,
    StructDecl,
    TypedefDecl,
)
from repro.corba.idl.errors import IdlError, IdlParseError
from repro.corba.idl.lexer import Token, tokenize
from repro.corba.idl.parser import parse_idl
from repro.corba.idl.compiler import CompiledIdl, compile_idl
from repro.corba.idl.types import (
    AnyType,
    EnumType,
    IdlType,
    ObjRefType,
    PrimitiveType,
    SequenceType,
    StringType,
    StructType,
    VoidType,
)

__all__ = [
    "tokenize",
    "Token",
    "parse_idl",
    "compile_idl",
    "CompiledIdl",
    "IdlError",
    "IdlParseError",
    "Specification",
    "ModuleDecl",
    "InterfaceDecl",
    "OperationDecl",
    "ParamDecl",
    "AttributeDecl",
    "StructDecl",
    "EnumDecl",
    "TypedefDecl",
    "ExceptionDecl",
    "ComponentDecl",
    "HomeDecl",
    "PortDecl",
    "IdlType",
    "PrimitiveType",
    "SequenceType",
    "StringType",
    "StructType",
    "EnumType",
    "ObjRefType",
    "VoidType",
    "AnyType",
]
