"""The GridCCM compiler (paper Figure 5).

Input: the component's compiled IDL + its XML parallelism description.
Output: a :class:`ParallelPlan` containing

- one **internal interface** per parallel port: each parallel operation
  is rewritten so distributed ``sequence<T>`` arguments travel as chunks
  with total-length/source-rank metadata ("In the new IDL interface, the
  user arguments described as distributed have been replaced by their
  equivalent distributed data types");
- one **proxy interface** per parallel port: the original interface
  (so sequential clients interoperate unchanged) extended with the node
  enumeration operations parallel-aware clients use to bypass the proxy;
- per-operation metadata driving the runtime layer.

The original IDL interface is untouched and the ORB is never modified —
the whole extension lives in the generated layer, exactly as the paper
requires.  :meth:`ParallelPlan.emit_internal_idl` renders the generated
interfaces back to IDL text (the "New Component IDL description" box of
Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.parallelism import (
    ParallelismDescriptor,
    ParallelismError,
    ParallelOpSpec,
)
from repro.corba.idl.compiler import (
    CompiledIdl,
    ComponentDef,
    InterfaceDef,
    OperationDef,
    repo_id,
)
from repro.corba.idl.types import (
    IdlType,
    ObjRefType,
    PrimitiveType,
    SequenceType,
    StringType,
    StructType,
    EnumType,
    VOID,
)

ULONG = PrimitiveType("unsigned long")

#: numeric/octet sequence element kinds eligible for distribution
_DISTRIBUTABLE = frozenset((
    "short", "unsigned short", "long", "unsigned long", "long long",
    "unsigned long long", "float", "double", "octet"))


def _distributable(ptype) -> bool:
    """sequence<numeric>, or sequence<sequence<numeric>> (2D by rows —
    "a 2D array can be mapped to a sequence of sequences", §4.2.2)."""
    if not isinstance(ptype, SequenceType):
        return False
    elem = ptype.element
    if isinstance(elem, SequenceType):  # nested: distribute the outer dim
        elem = elem.element
    return isinstance(elem, PrimitiveType) and elem.kind in _DISTRIBUTABLE


@dataclass
class ParallelOpInfo:
    """Everything the runtime layer needs about one parallel operation."""

    port: str
    spec: ParallelOpSpec
    original: OperationDef
    internal: OperationDef
    #: in-parameter positions (within original in_params) that are
    #: distributed, with their sequence types
    dist_positions: dict[int, SequenceType] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.original.name

    @property
    def key(self) -> tuple[str, str]:
        return (self.port, self.original.name)


@dataclass
class ParallelPlan:
    """Compiled parallelism: generated interfaces + operation metadata."""

    component: ComponentDef
    descriptor: ParallelismDescriptor
    internal_interfaces: dict[str, InterfaceDef] = field(default_factory=dict)
    proxy_interfaces: dict[str, InterfaceDef] = field(default_factory=dict)
    ops: dict[tuple[str, str], ParallelOpInfo] = field(default_factory=dict)

    def ops_for_port(self, port: str) -> list[ParallelOpInfo]:
        return [info for (p, _n), info in self.ops.items() if p == port]

    def emit_internal_idl(self) -> str:
        """Render the generated interfaces as IDL text (the Figure 5
        artefact).  Each one is declared in its original's module, so
        this text compiled next to the original IDL yields the very
        definitions the runtime uses."""
        lines = ["// generated by the GridCCM compiler — do not edit"]
        for port, internal in sorted(self.internal_interfaces.items()):
            proxy = self.proxy_interfaces[port]
            lines += _in_module(internal.scoped_name, [
                f"// internal interface for port {port!r}",
                f"interface {internal.name} {{",
                *(f"    {_op_text(op)}"
                  for op in internal.operations.values()),
                "};",
                f"// proxy interface for port {port!r}",
                f"interface {proxy.name} : {proxy.bases[0]} {{",
                *(f"    {_op_text(proxy.operations[name])}"
                  for name in ("gridccm_size", "gridccm_node")),
                "};"])
        return "\n".join(lines) + "\n"


def _in_module(scoped_name: str, body: list[str]) -> list[str]:
    """``body`` wrapped in the modules enclosing ``scoped_name``."""
    modules = scoped_name.split("::")[:-1]
    return ([f"module {m} {{" for m in modules] + body
            + ["};"] * len(modules))


def _op_text(op: OperationDef) -> str:
    params = ", ".join(f"{d} {_idl_text(t)} {n}" for n, d, t in op.params)
    raises = (" raises (" + ", ".join(e.scoped_name for e in op.raises)
              + ")" if op.raises else "")
    return f"{_idl_text(op.return_type)} {op.name}({params}){raises};"


def _idl_text(t: IdlType) -> str:
    if isinstance(t, type(VOID)):
        return "void"
    if isinstance(t, PrimitiveType):
        return t.kind
    if isinstance(t, StringType):
        return f"string<{t.bound}>" if t.bound else "string"
    if isinstance(t, SequenceType):
        bound = f",{t.bound}" if t.bound else ""
        return f"sequence<{_idl_text(t.element)}{bound}>"
    if isinstance(t, (StructType, EnumType)):
        return t.scoped_name
    if isinstance(t, ObjRefType):
        return t.interface or "Object"
    return t.typename()


class GridCcmCompiler:
    """Derives internal + proxy interfaces from IDL and the XML."""

    def __init__(self, idl: CompiledIdl, descriptor: ParallelismDescriptor):
        self.idl = idl
        self.descriptor = descriptor

    def compile(self) -> ParallelPlan:
        """Build the plan and register generated interfaces in the IDL."""
        cdef = self.idl.component(self.descriptor.component)
        plan = ParallelPlan(cdef, self.descriptor)
        for port in self.descriptor.ports():
            if port not in cdef.provides:
                raise ParallelismError(
                    f"{cdef.scoped_name} has no provides port {port!r} "
                    f"(provides: {sorted(cdef.provides)})")
            iface = self.idl.interface(cdef.provides[port])
            self._compile_port(plan, port, iface)
        return plan

    # ------------------------------------------------------------------
    def _compile_port(self, plan: ParallelPlan, port: str,
                      iface: InterfaceDef) -> None:
        internal_name = _derived_name(iface.scoped_name, "GridCCM")
        internal = InterfaceDef(
            internal_name.split("::")[-1], internal_name,
            repo_id(internal_name))
        for (p, opname), spec in self.descriptor.operations.items():
            if p != port:
                continue
            if opname not in iface.operations:
                raise ParallelismError(
                    f"interface {iface.scoped_name} has no operation "
                    f"{opname!r}")
            info = self._compile_operation(port, spec,
                                           iface.operations[opname])
            internal.operations[opname] = info.internal
            plan.ops[info.key] = info

        proxy_name = _derived_name(iface.scoped_name, "GridCCMProxy")
        proxy = InterfaceDef(
            proxy_name.split("::")[-1], proxy_name, repo_id(proxy_name),
            bases=[iface.scoped_name])
        proxy.operations.update(iface.operations)
        proxy.attributes.update(iface.attributes)
        proxy.operations["gridccm_size"] = OperationDef(
            "gridccm_size", ULONG, [])
        proxy.operations["gridccm_node"] = OperationDef(
            "gridccm_node", ObjRefType(internal_name),
            [("rank", "in", ULONG)])

        plan.internal_interfaces[port] = internal
        plan.proxy_interfaces[port] = proxy
        for idef in (internal, proxy):
            if idef.scoped_name not in self.idl.interfaces:
                self.idl.interfaces[idef.scoped_name] = idef

    def _compile_operation(self, port: str, spec: ParallelOpSpec,
                           opdef: OperationDef) -> ParallelOpInfo:
        if opdef.oneway:
            raise ParallelismError(
                f"{opdef.name}: oneway operations cannot be parallel "
                f"(the layer needs completion replies)")
        if opdef.out_params:
            raise ParallelismError(
                f"{opdef.name}: out/inout parameters are not supported "
                f"on parallel operations")
        in_params = opdef.in_params
        names = [n for n, _t in in_params]
        dist_positions: dict[int, SequenceType] = {}
        for arg in spec.args:
            if arg.name not in names:
                raise ParallelismError(
                    f"{opdef.name}: no parameter {arg.name!r} "
                    f"(parameters: {names})")
            pos = names.index(arg.name)
            ptype = in_params[pos][1]
            if not _distributable(ptype):
                raise ParallelismError(
                    f"{opdef.name}: parameter {arg.name!r} has type "
                    f"{ptype.typename()}; only sequences of numeric "
                    f"types — or sequences of such sequences (2D arrays "
                    f"distributed by rows, §4.2.2) — can be distributed")
            dist_positions[pos] = ptype

        if not dist_positions:
            raise ParallelismError(
                f"{opdef.name}: a parallel operation needs at least one "
                f"distributed argument")
        if spec.result_policy == "sum" and \
                isinstance(opdef.return_type, type(VOID)):
            raise ParallelismError(
                f"{opdef.name}: result policy 'sum' on a void operation")
        if spec.result_policy == "concat" and not isinstance(
                opdef.return_type, SequenceType):
            raise ParallelismError(
                f"{opdef.name}: result policy 'concat' needs a sequence "
                f"return type")

        params: list[tuple[str, str, IdlType]] = [
            ("gridccm_request", "in", StringType()),
            ("gridccm_src_rank", "in", ULONG),
            ("gridccm_src_parts", "in", ULONG),
            ("gridccm_expected", "in", ULONG),
        ]
        for pos, (pname, ptype) in enumerate(in_params):
            if pos in dist_positions:
                params.append((f"{pname}_total", "in", ULONG))
                params.append((f"{pname}_chunk", "in", ptype))
            else:
                params.append((pname, "in", ptype))
        internal = OperationDef(opdef.name, opdef.return_type, params,
                                list(opdef.raises))
        return ParallelOpInfo(port, spec, opdef, internal, dist_positions)


def _derived_name(scoped: str, prefix: str) -> str:
    parts = scoped.split("::")
    parts[-1] = f"{prefix}_{parts[-1]}"
    return "::".join(parts)
