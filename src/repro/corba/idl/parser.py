"""Recursive-descent IDL parser."""

from __future__ import annotations

from typing import Any

from repro.corba.idl import ast_nodes as ast
from repro.corba.idl.errors import IdlParseError
from repro.corba.idl.lexer import Token, tokenize
from repro.corba.idl.types import (
    ANY,
    VOID,
    ArrayType,
    IdlType,
    NamedTypeRef,
    PrimitiveType,
    SequenceType,
    StringType,
)


def parse_idl(source: str) -> ast.Specification:
    """Parse IDL source into an AST; raises :class:`IdlParseError`."""
    return _Parser(tokenize(source)).parse_specification()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token utilities ---------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[min(self._pos, len(self._tokens) - 1)]

    def _next(self) -> Token:
        tok = self._peek()
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _error(self, message: str) -> IdlParseError:
        tok = self._peek()
        return IdlParseError(f"{message}, got {tok.value!r}",
                             tok.line, tok.column)

    def _expect(self, kind: str, value: str | None = None) -> Token:
        tok = self._peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise self._error(f"expected {value or kind}")
        return self._next()

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self._peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self._next()
        return None

    def _at_keyword(self, *words: str) -> bool:
        tok = self._peek()
        return tok.kind == "keyword" and tok.value in words

    def _expect_close_angle(self) -> None:
        """Consume ``>``, splitting a ``>>`` token when nested template
        arguments close together (``sequence<string<8>>``)."""
        tok = self._peek()
        if tok.kind == "punct" and tok.value == ">>":
            # leave one '>' behind for the enclosing closer
            self._tokens[self._pos] = Token("punct", ">", tok.line,
                                            tok.column + 1)
            return
        self._expect("punct", ">")

    # -- grammar -------------------------------------------------------------
    def parse_specification(self) -> ast.Specification:
        spec = ast.Specification()
        while self._peek().kind != "eof":
            spec.definitions.append(self._definition())
        return spec

    def _definition(self) -> Any:
        tok = self._peek()
        if tok.kind != "keyword":
            raise self._error("expected a definition keyword")
        handlers = {
            "module": self._module,
            "interface": self._interface,
            "struct": self._struct,
            "enum": self._enum,
            "typedef": self._typedef,
            "exception": self._exception,
            "component": self._component,
            "home": self._home,
        }
        handler = handlers.get(tok.value)
        if handler is None:
            raise self._error("unsupported or misplaced declaration")
        node = handler()
        self._expect("punct", ";")
        return node

    def _module(self) -> ast.ModuleDecl:
        self._expect("keyword", "module")
        name = self._expect("ident").value
        self._expect("punct", "{")
        defs = []
        while not self._accept("punct", "}"):
            defs.append(self._definition())
        return ast.ModuleDecl(name, defs)

    def _interface(self) -> ast.InterfaceDecl:
        self._expect("keyword", "interface")
        name = self._expect("ident").value
        bases: list[str] = []
        if self._accept("punct", ":"):
            bases.append(self._scoped_name())
            while self._accept("punct", ","):
                bases.append(self._scoped_name())
        self._expect("punct", "{")
        body: list[Any] = []
        while not self._accept("punct", "}"):
            body.append(self._export())
        return ast.InterfaceDecl(name, bases, body)

    def _export(self) -> Any:
        tok = self._peek()
        if tok.kind == "keyword":
            if tok.value in ("readonly", "attribute"):
                return self._attribute()
            if tok.value == "oneway":
                return self._operation()
            simple = {
                "struct": self._struct, "enum": self._enum,
                "typedef": self._typedef, "exception": self._exception,
            }.get(tok.value)
            if simple is not None:
                node = simple()
                self._expect("punct", ";")
                return node
        return self._operation()

    def _attribute(self) -> ast.AttributeDecl:
        readonly = self._accept("keyword", "readonly") is not None
        self._expect("keyword", "attribute")
        type_spec = self._type_spec()
        name = self._expect("ident").value
        # multi-declarator attributes are normalised to one node each by
        # the compiler; keep the parser simple: reject the comma form
        if self._peek().value == ",":
            raise self._error("declare one attribute per statement")
        self._expect("punct", ";")
        return ast.AttributeDecl(name, type_spec, readonly)

    def _operation(self) -> ast.OperationDecl:
        oneway = self._accept("keyword", "oneway") is not None
        ret = self._return_type()
        name = self._expect("ident").value
        self._expect("punct", "(")
        params: list[ast.ParamDecl] = []
        if not self._accept("punct", ")"):
            params.append(self._param())
            while self._accept("punct", ","):
                params.append(self._param())
            self._expect("punct", ")")
        raises: list[str] = []
        if self._accept("keyword", "raises"):
            self._expect("punct", "(")
            raises.append(self._scoped_name())
            while self._accept("punct", ","):
                raises.append(self._scoped_name())
            self._expect("punct", ")")
        self._expect("punct", ";")
        if oneway and (raises or not isinstance(ret, type(VOID))):
            raise self._error("oneway operations must be void with no raises")
        return ast.OperationDecl(name, ret, params, raises, oneway)

    def _param(self) -> ast.ParamDecl:
        tok = self._peek()
        if not self._at_keyword("in", "out", "inout"):
            raise self._error("expected parameter direction (in/out/inout)")
        direction = self._next().value
        type_spec = self._type_spec()
        name = self._expect("ident").value
        return ast.ParamDecl(direction, type_spec, name)

    def _struct(self) -> ast.StructDecl:
        self._expect("keyword", "struct")
        name = self._expect("ident").value
        self._expect("punct", "{")
        members = self._member_list()
        return ast.StructDecl(name, members)

    def _member_list(self) -> list[tuple[IdlType, str]]:
        members: list[tuple[IdlType, str]] = []
        while not self._accept("punct", "}"):
            type_spec = self._type_spec()
            name = self._expect("ident").value
            members.append((self._array_suffix(type_spec), name))
            while self._accept("punct", ","):
                name = self._expect("ident").value
                members.append((self._array_suffix(type_spec), name))
            self._expect("punct", ";")
        return members

    def _array_suffix(self, base: IdlType) -> IdlType:
        """Fixed-size array declarator: ``name[3][4]`` (outer first)."""
        dims: list[int] = []
        while self._accept("punct", "["):
            dims.append(int(self._expect("int").value, 0))
            self._expect("punct", "]")
        out = base
        for dim in reversed(dims):
            out = ArrayType(out, dim)
        return out

    def _enum(self) -> ast.EnumDecl:
        self._expect("keyword", "enum")
        name = self._expect("ident").value
        self._expect("punct", "{")
        members = [self._expect("ident").value]
        while self._accept("punct", ","):
            members.append(self._expect("ident").value)
        self._expect("punct", "}")
        return ast.EnumDecl(name, members)

    def _typedef(self) -> ast.TypedefDecl:
        self._expect("keyword", "typedef")
        type_spec = self._type_spec()
        name = self._expect("ident").value
        return ast.TypedefDecl(name, self._array_suffix(type_spec))

    def _exception(self) -> ast.ExceptionDecl:
        self._expect("keyword", "exception")
        name = self._expect("ident").value
        self._expect("punct", "{")
        members = self._member_list()
        return ast.ExceptionDecl(name, members)

    # -- IDL3 component extensions ------------------------------------------
    def _component(self) -> ast.ComponentDecl:
        self._expect("keyword", "component")
        name = self._expect("ident").value
        base = None
        if self._accept("punct", ":"):
            base = self._scoped_name()
        supports: list[str] = []
        if self._accept("keyword", "supports"):
            supports.append(self._scoped_name())
            while self._accept("punct", ","):
                supports.append(self._scoped_name())
        self._expect("punct", "{")
        ports: list[ast.PortDecl] = []
        attributes: list[ast.AttributeDecl] = []
        while not self._accept("punct", "}"):
            if self._at_keyword("provides", "uses"):
                kind = self._next().value
                type_name = self._scoped_name()
                pname = self._expect("ident").value
                self._expect("punct", ";")
                ports.append(ast.PortDecl(kind, type_name, pname))
            elif self._at_keyword("attribute", "readonly"):
                attributes.append(self._attribute())
            else:
                raise self._error("expected a port or attribute declaration")
        return ast.ComponentDecl(name, base, supports, ports, attributes)

    def _home(self) -> ast.HomeDecl:
        self._expect("keyword", "home")
        name = self._expect("ident").value
        self._expect("keyword", "manages")
        manages = self._scoped_name()
        self._expect("punct", "{")
        body: list[Any] = []
        while not self._accept("punct", "}"):
            if self._accept("keyword", "factory"):
                fname = self._expect("ident").value
                self._expect("punct", "(")
                params: list[ast.ParamDecl] = []
                if not self._accept("punct", ")"):
                    params.append(self._param())
                    while self._accept("punct", ","):
                        params.append(self._param())
                    self._expect("punct", ")")
                self._expect("punct", ";")
                body.append(ast.OperationDecl(fname, NamedTypeRef("__managed__"),
                                              params, [], False))
            else:
                body.append(self._export())
        return ast.HomeDecl(name, manages, body)

    # -- types -----------------------------------------------------------------
    def _return_type(self) -> IdlType:
        if self._accept("keyword", "void"):
            return VOID
        return self._type_spec()

    def _type_spec(self) -> IdlType:
        tok = self._peek()
        if tok.kind == "keyword":
            if tok.value == "sequence":
                return self._sequence_type()
            if tok.value == "string":
                return self._string_type()
            if tok.value == "any":
                self._next()
                return ANY
            if tok.value in ("short", "float", "double", "boolean", "char",
                             "octet", "long", "unsigned"):
                return self._primitive_type()
            raise self._error("unsupported type keyword")
        if tok.kind == "ident" or tok.value == "::":
            return NamedTypeRef(self._scoped_name())
        raise self._error("expected a type")

    def _primitive_type(self) -> PrimitiveType:
        words = []
        if self._accept("keyword", "unsigned"):
            words.append("unsigned")
        tok = self._peek()
        if not self._at_keyword("short", "long", "float", "double",
                                "boolean", "char", "octet"):
            raise self._error("expected a primitive type")
        words.append(self._next().value)
        if words[-1] == "long" and self._at_keyword("long"):
            self._next()
            words.append("long")
        kind = " ".join(words)
        if kind in ("unsigned float", "unsigned double", "unsigned boolean",
                    "unsigned char", "unsigned octet"):
            raise self._error(f"invalid type {kind!r}")
        return PrimitiveType(kind)

    def _sequence_type(self) -> SequenceType:
        self._expect("keyword", "sequence")
        self._expect("punct", "<")
        element = self._type_spec()
        bound = None
        if self._accept("punct", ","):
            bound = int(self._expect("int").value, 0)
        self._expect_close_angle()
        return SequenceType(element, bound)

    def _string_type(self) -> StringType:
        self._expect("keyword", "string")
        bound = None
        if self._accept("punct", "<"):
            bound = int(self._expect("int").value, 0)
            self._expect_close_angle()
        return StringType(bound)

    def _scoped_name(self) -> str:
        parts = []
        if self._accept("punct", "::"):
            parts.append("")  # absolute name marker
        parts.append(self._expect("ident").value)
        while self._accept("punct", "::"):
            parts.append(self._expect("ident").value)
        return "::".join(parts)
