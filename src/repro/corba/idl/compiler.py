"""IDL semantic analysis: scoped-name resolution, inheritance, repo ids.

Turns a parsed :class:`~repro.corba.idl.ast_nodes.Specification` into a
:class:`CompiledIdl`: resolved wire types, interface definitions with
inherited operations flattened in, and CCM component/home metadata —
everything stubs, skeletons and containers need at runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.corba.idl import ast_nodes as ast
from repro.corba.idl.errors import IdlError
from repro.corba.idl.parser import parse_idl
from repro.corba.idl.types import (
    ArrayType,
    EnumType,
    ExceptionType,
    IdlType,
    NamedTypeRef,
    ObjRefType,
    SequenceType,
    StructType,
)


def repo_id(scoped_name: str) -> str:
    """OMG repository id for a scoped name."""
    return f"IDL:{scoped_name.replace('::', '/')}:1.0"


@dataclass
class OperationDef:
    """Resolved operation signature."""

    name: str
    return_type: IdlType
    params: list[tuple[str, str, IdlType]]  # (name, direction, type)
    raises: list[ExceptionType] = field(default_factory=list)
    oneway: bool = False
    #: ``(name, type)`` of what the caller sends / gets back, derived
    #: from ``params`` once, not per call
    in_params: tuple[tuple[str, IdlType], ...] = field(
        init=False, repr=False, compare=False)
    out_params: tuple[tuple[str, IdlType], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.in_params = tuple((n, t) for n, d, t in self.params
                               if d in ("in", "inout"))
        self.out_params = tuple((n, t) for n, d, t in self.params
                                if d in ("out", "inout"))


@dataclass
class AttributeDef:
    name: str
    type: IdlType
    readonly: bool = False


@dataclass
class InterfaceDef:
    """Resolved interface: own + inherited operations and attributes."""

    name: str
    scoped_name: str
    repo_id: str
    bases: list[str] = field(default_factory=list)
    operations: dict[str, OperationDef] = field(default_factory=dict)
    attributes: dict[str, AttributeDef] = field(default_factory=dict)

    def operation(self, name: str) -> OperationDef:
        try:
            return self.operations[name]
        except KeyError:
            raise IdlError(f"interface {self.scoped_name} has no "
                           f"operation {name!r}") from None


@dataclass
class ComponentDef:
    """Resolved IDL3 component: ports and attributes."""

    name: str
    scoped_name: str
    repo_id: str
    base: str | None = None
    supports: list[str] = field(default_factory=list)
    provides: dict[str, str] = field(default_factory=dict)   # port -> iface
    uses: dict[str, str] = field(default_factory=dict)
    attributes: dict[str, AttributeDef] = field(default_factory=dict)

    def all_ports(self) -> dict[str, tuple[str, str]]:
        """port name -> (kind, type scoped name)."""
        out: dict[str, tuple[str, str]] = {}
        for kind in ("provides", "uses"):
            for pname, tname in getattr(self, kind).items():
                out[pname] = (kind, tname)
        return out


@dataclass
class HomeDef:
    name: str
    scoped_name: str
    repo_id: str
    manages: str = ""
    factories: list[OperationDef] = field(default_factory=list)


@dataclass
class CompiledIdl:
    """The output of IDL compilation — a queryable model of the unit."""

    types: dict[str, IdlType] = field(default_factory=dict)
    interfaces: dict[str, InterfaceDef] = field(default_factory=dict)
    components: dict[str, ComponentDef] = field(default_factory=dict)
    homes: dict[str, HomeDef] = field(default_factory=dict)

    def interface(self, name: str) -> InterfaceDef:
        try:
            return self.interfaces[name]
        except KeyError:
            raise IdlError(f"unknown interface {name!r} "
                           f"(known: {sorted(self.interfaces)})") from None

    def component(self, name: str) -> ComponentDef:
        try:
            return self.components[name]
        except KeyError:
            raise IdlError(f"unknown component {name!r}") from None

    def home(self, name: str) -> HomeDef:
        try:
            return self.homes[name]
        except KeyError:
            raise IdlError(f"unknown home {name!r}") from None

    def home_for_component(self, component: str) -> HomeDef:
        for h in self.homes.values():
            if h.manages == component:
                return h
        raise IdlError(f"no home manages component {component!r}")

    def type(self, name: str) -> IdlType:
        try:
            return self.types[name]
        except KeyError:
            raise IdlError(f"unknown type {name!r}") from None

    def merge(self, other: "CompiledIdl") -> "CompiledIdl":
        """Combine two compiled units (duplicate names rejected)."""
        for attr in ("types", "interfaces", "components", "homes"):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            dup = set(mine) & set(theirs)
            if dup:
                raise IdlError(f"duplicate definitions on merge: {dup}")
            mine.update(theirs)
        return self


def compile_idl(source: str | ast.Specification) -> CompiledIdl:
    """Compile IDL source (or a parsed AST) into a :class:`CompiledIdl`."""
    spec = parse_idl(source) if isinstance(source, str) else source
    return _Compiler().compile(spec)


class _Compiler:
    def __init__(self) -> None:
        self.out = CompiledIdl()
        # raw declarations awaiting resolution: scoped name -> (scope, node)
        self._raw: dict[str, tuple[str, Any]] = {}
        self._kinds: dict[str, str] = {}
        self._resolving: set[str] = set()

    # -- pass 1: register declarations -------------------------------------
    def compile(self, spec: ast.Specification) -> CompiledIdl:
        self._register_all(spec.definitions, scope="")
        for name, kind in list(self._kinds.items()):
            self._resolve_symbol(name)
        return self.out

    def _register_all(self, defs: list[Any], scope: str) -> None:
        for node in defs:
            if isinstance(node, ast.ModuleDecl):
                inner = f"{scope}{node.name}::"
                self._register_all(node.definitions, inner)
                continue
            name = f"{scope}{node.name}"
            if name in self._kinds:
                raise IdlError(f"duplicate definition {name!r}")
            self._raw[name] = (scope, node)
            self._kinds[name] = type(node).__name__
            # nested declarations inside interfaces live in their scope
            if isinstance(node, ast.InterfaceDecl):
                nested_scope = f"{name}::"
                for item in node.body:
                    if isinstance(item, (ast.StructDecl, ast.EnumDecl,
                                         ast.TypedefDecl,
                                         ast.ExceptionDecl)):
                        nname = f"{nested_scope}{item.name}"
                        if nname in self._kinds:
                            raise IdlError(f"duplicate definition {nname!r}")
                        self._raw[nname] = (nested_scope, item)
                        self._kinds[nname] = type(item).__name__

    # -- name lookup --------------------------------------------------------
    def _lookup(self, name: str, scope: str) -> str:
        """Resolve a possibly-relative scoped name to its full name."""
        if name.startswith("::"):
            full = name[2:]
            if full in self._kinds:
                return full
            raise IdlError(f"unknown name {name!r}")
        parts = scope.split("::") if scope else []
        # walk outward through enclosing scopes
        while True:
            candidate = "::".join([p for p in parts if p] + [name])
            if candidate in self._kinds:
                return candidate
            if not parts:
                break
            parts = parts[:-1]
        if name in self._kinds:
            return name
        raise IdlError(f"unknown name {name!r} (scope {scope!r})")

    # -- pass 2: resolution ----------------------------------------------------
    def _resolve_symbol(self, full_name: str) -> Any:
        """Resolve one declaration (idempotent, cycle-checked)."""
        if full_name in self.out.types or full_name in self.out.interfaces \
                or full_name in self.out.components \
                or full_name in self.out.homes:
            return self._resolved_entry(full_name)
        if full_name in self._resolving:
            raise IdlError(f"circular definition involving {full_name!r}")
        self._resolving.add(full_name)
        try:
            scope, node = self._raw[full_name]
            if isinstance(node, ast.StructDecl):
                st = StructType(node.name, full_name, [
                    (mname, self._resolve_type(mtype, scope))
                    for mtype, mname in node.members])
                self.out.types[full_name] = st
            elif isinstance(node, ast.ExceptionDecl):
                ex = ExceptionType(node.name, full_name, [
                    (mname, self._resolve_type(mtype, scope))
                    for mtype, mname in node.members], repo_id(full_name))
                self.out.types[full_name] = ex
            elif isinstance(node, ast.EnumDecl):
                en = EnumType(node.name, full_name, node.members)
                self.out.types[full_name] = en
            elif isinstance(node, ast.TypedefDecl):
                self.out.types[full_name] = \
                    self._resolve_type(node.type_spec, scope)
            elif isinstance(node, ast.InterfaceDecl):
                self._resolve_interface(full_name, scope, node)
            elif isinstance(node, ast.ComponentDecl):
                self._resolve_component(full_name, scope, node)
            elif isinstance(node, ast.HomeDecl):
                self._resolve_home(full_name, scope, node)
            else:
                raise IdlError(f"cannot resolve {type(node).__name__}")
        finally:
            self._resolving.discard(full_name)
        return self._resolved_entry(full_name)

    def _resolved_entry(self, full_name: str) -> Any:
        for table in (self.out.interfaces, self.out.components,
                      self.out.homes, self.out.types):
            if full_name in table:
                return table[full_name]
        raise IdlError(f"symbol {full_name!r} did not resolve")

    def _resolve_type(self, t: IdlType, scope: str) -> IdlType:
        if isinstance(t, NamedTypeRef):
            if t.name == "Object":  # CORBA::Object — any object reference
                return ObjRefType("")
            full = self._lookup(t.name, scope)
            kind = self._kinds[full]
            if kind == "InterfaceDecl":
                self._resolve_symbol(full)
                return ObjRefType(full)
            if kind == "ComponentDecl":
                self._resolve_symbol(full)
                return ObjRefType(full)
            resolved = self._resolve_symbol(full)
            if not isinstance(resolved, IdlType):
                raise IdlError(f"{full!r} is not a type")
            return resolved
        if isinstance(t, SequenceType):
            elem = self._resolve_type(t.element, scope)
            return SequenceType(elem, t.bound) if elem is not t.element else t
        if isinstance(t, ArrayType):
            elem = self._resolve_type(t.element, scope)
            return ArrayType(elem, t.length) if elem is not t.element else t
        return t

    def _resolve_interface(self, full_name: str, scope: str,
                           node: ast.InterfaceDecl) -> None:
        idef = InterfaceDef(node.name, full_name, repo_id(full_name))
        self.out.interfaces[full_name] = idef  # allow self-reference
        inner_scope = f"{full_name}::"
        for base_name in node.bases:
            base_full = self._lookup(base_name, scope)
            base = self._resolve_symbol(base_full)
            if not isinstance(base, InterfaceDef):
                raise IdlError(f"{base_full!r} is not an interface")
            idef.bases.append(base_full)
            idef.operations.update(base.operations)
            idef.attributes.update(base.attributes)
        for item in node.body:
            if isinstance(item, ast.OperationDecl):
                op = self._resolve_operation(item, inner_scope)
                if op.name in idef.operations:
                    raise IdlError(f"duplicate operation {op.name!r} in "
                                   f"{full_name}")
                idef.operations[op.name] = op
            elif isinstance(item, ast.AttributeDecl):
                idef.attributes[item.name] = AttributeDef(
                    item.name, self._resolve_type(item.type_spec, inner_scope),
                    item.readonly)
            # nested type declarations were registered in pass 1

    def _resolve_operation(self, op: ast.OperationDecl,
                           scope: str) -> OperationDef:
        raises = []
        for ename in op.raises:
            efull = self._lookup(ename, scope)
            etype = self._resolve_symbol(efull)
            if not isinstance(etype, ExceptionType):
                raise IdlError(f"{efull!r} in raises clause is not an "
                               f"exception")
            raises.append(etype)
        return OperationDef(
            op.name,
            self._resolve_type(op.return_type, scope),
            [(p.name, p.direction, self._resolve_type(p.type_spec, scope))
             for p in op.params],
            raises,
            op.oneway)

    def _resolve_component(self, full_name: str, scope: str,
                           node: ast.ComponentDecl) -> None:
        cdef = ComponentDef(node.name, full_name, repo_id(full_name))
        self.out.components[full_name] = cdef
        if node.base is not None:
            base_full = self._lookup(node.base, scope)
            base = self._resolve_symbol(base_full)
            if not isinstance(base, ComponentDef):
                raise IdlError(f"{base_full!r} is not a component")
            cdef.base = base_full
            cdef.provides.update(base.provides)
            cdef.uses.update(base.uses)
            cdef.attributes.update(base.attributes)
        for sname in node.supports:
            sfull = self._lookup(sname, scope)
            if not isinstance(self._resolve_symbol(sfull), InterfaceDef):
                raise IdlError(f"{sfull!r} is not an interface")
            cdef.supports.append(sfull)
        for port in node.ports:
            tfull = self._lookup(port.type_name, scope)
            target = self._resolve_symbol(tfull)
            if not isinstance(target, InterfaceDef):
                raise IdlError(f"port {port.name!r}: {tfull!r} is not "
                               f"an interface")
            table = getattr(cdef, port.kind)
            if port.name in cdef.all_ports():
                raise IdlError(f"duplicate port {port.name!r} in {full_name}")
            table[port.name] = tfull
        for attr in node.attributes:
            cdef.attributes[attr.name] = AttributeDef(
                attr.name, self._resolve_type(attr.type_spec, scope),
                attr.readonly)

    def _resolve_home(self, full_name: str, scope: str,
                      node: ast.HomeDecl) -> None:
        manages_full = self._lookup(node.manages, scope)
        if not isinstance(self._resolve_symbol(manages_full), ComponentDef):
            raise IdlError(f"home {full_name!r} manages {manages_full!r} "
                           f"which is not a component")
        hdef = HomeDef(node.name, full_name, repo_id(full_name),
                       manages_full)
        self.out.homes[full_name] = hdef
        for item in node.body:
            if isinstance(item, ast.OperationDecl):
                # factory operations return the managed component
                if isinstance(item.return_type, NamedTypeRef) and \
                        item.return_type.name == "__managed__":
                    item = ast.OperationDecl(
                        item.name, NamedTypeRef(manages_full),
                        item.params, item.raises, item.oneway)
                hdef.factories.append(
                    self._resolve_operation(item, scope))
