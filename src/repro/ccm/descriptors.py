"""CCM deployment descriptors (XML).

The CCM deployment model ships components as software packages with XML
descriptors (the OSD vocabulary) and wires applications with assembly
descriptors.  We implement the subset the paper's scenarios need —
facet-to-receptacle connections only; an event connection
(``<connectevent>``) is rejected:

Software package (``.csd``-flavoured)::

    <softpkg name="chemistry" version="1.2">
      <implementation id="DCE:chem-1">
        <component>App::Chemistry</component>
        <os name="Linux"/> <processor name="i686"/>
      </implementation>
    </softpkg>

Assembly (``.cad``-flavoured)::

    <componentassembly id="coupling">
      <componentfiles>
        <componentfile id="chem" softpkg="chemistry"/>
      </componentfiles>
      <instance id="chem0" componentfile="chem" destination="nodeA"/>
      <connection>
        <uses instance="chem0" port="output"/>
        <provides instance="transport0" port="input"/>
      </connection>
      <property instance="chem0" name="tolerance" value="0.01"/>
    </componentassembly>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any


class DescriptorError(Exception):
    """Malformed or inconsistent deployment descriptor."""


@dataclass(frozen=True)
class ImplementationDecl:
    impl_id: str
    component: str
    os: str | None = None
    processor: str | None = None
    #: inline GridCCM parallelism description (XML text), when the
    #: packaged code is an SPMD parallel component
    parallelism: str | None = None


@dataclass(frozen=True)
class SoftwarePackage:
    """Parsed software package descriptor."""

    name: str
    version: str
    implementations: tuple[ImplementationDecl, ...]

    @classmethod
    def parse(cls, xml_text: str) -> "SoftwarePackage":
        root = _parse_root(xml_text, "softpkg")
        impls = []
        for impl in root.findall("implementation"):
            comp = impl.findtext("component")
            if not comp:
                raise DescriptorError("implementation needs a <component>")
            os_el = impl.find("os")
            cpu_el = impl.find("processor")
            par_el = impl.find("parallelism")
            parallelism = (ET.tostring(par_el, encoding="unicode")
                           if par_el is not None else None)
            impls.append(ImplementationDecl(
                _req_attr(impl, "id"), comp.strip(),
                os_el.get("name") if os_el is not None else None,
                cpu_el.get("name") if cpu_el is not None else None,
                parallelism))
        if not impls:
            raise DescriptorError("softpkg declares no implementation")
        return cls(_req_attr(root, "name"), root.get("version", "1.0"),
                   tuple(impls))

    def implementation_for(self, component: str) -> ImplementationDecl:
        for impl in self.implementations:
            if impl.component == component:
                return impl
        raise DescriptorError(
            f"package {self.name!r} has no implementation of {component!r}")


@dataclass(frozen=True)
class InstanceDecl:
    id: str
    componentfile: str
    destination: str | None  # process name; None = planner decides
    constraints: tuple[str, ...] = ()  # host label constraints (§2)
    #: SPMD width for GridCCM parallel components (1 = sequential)
    nodes: int = 1


@dataclass(frozen=True)
class ConnectionDecl:
    user_instance: str   # the receptacle side
    user_port: str
    provider_instance: str
    provider_port: str


@dataclass
class AssemblyDescriptor:
    """Parsed component assembly."""

    id: str
    componentfiles: dict[str, str] = field(default_factory=dict)
    instances: list[InstanceDecl] = field(default_factory=list)
    connections: list[ConnectionDecl] = field(default_factory=list)
    properties: list[tuple[str, str, Any]] = field(default_factory=list)

    @classmethod
    def parse(cls, xml_text: str) -> "AssemblyDescriptor":
        root = _parse_root(xml_text, "componentassembly")
        asm = cls(_req_attr(root, "id"))
        files = root.find("componentfiles")
        if files is not None:
            for cf in files.findall("componentfile"):
                asm.componentfiles[_req_attr(cf, "id")] = \
                    _req_attr(cf, "softpkg")
        for inst in root.findall("instance"):
            constraints = tuple(
                c.get("label", "") for c in inst.findall("constraint"))
            nodes = int(inst.get("nodes", "1"))
            if nodes < 1:
                raise DescriptorError(
                    f"instance {inst.get('id')!r}: nodes must be >= 1")
            asm.instances.append(InstanceDecl(
                _req_attr(inst, "id"), _req_attr(inst, "componentfile"),
                inst.get("destination"), constraints, nodes))
        for conn in root.findall("connection"):
            uses = conn.find("uses")
            provides = conn.find("provides")
            if uses is None or provides is None:
                raise DescriptorError(
                    "<connection> needs <uses> and <provides>")
            asm.connections.append(ConnectionDecl(
                _req_attr(uses, "instance"), _req_attr(uses, "port"),
                _req_attr(provides, "instance"), _req_attr(provides, "port")))
        if root.find("connectevent") is not None:
            raise DescriptorError(
                f"assembly {asm.id!r}: event connections (<connectevent>) "
                f"are not supported")
        for prop in root.findall("property"):
            asm.properties.append((
                _req_attr(prop, "instance"), _req_attr(prop, "name"),
                _parse_value(prop)))
        asm.validate()
        return asm

    def validate(self) -> None:
        ids = [i.id for i in self.instances]
        if len(set(ids)) != len(ids):
            raise DescriptorError(f"duplicate instance ids in {self.id!r}")
        known = set(ids)
        for inst in self.instances:
            if inst.componentfile not in self.componentfiles:
                raise DescriptorError(
                    f"instance {inst.id!r} references unknown "
                    f"componentfile {inst.componentfile!r}")
        for conn in self.connections:
            for ref in (conn.user_instance, conn.provider_instance):
                if ref not in known:
                    raise DescriptorError(
                        f"connection references unknown instance {ref!r}")
        for inst_id, _name, _v in self.properties:
            if inst_id not in known:
                raise DescriptorError(
                    f"property references unknown instance {inst_id!r}")

    def instance(self, inst_id: str) -> InstanceDecl:
        for inst in self.instances:
            if inst.id == inst_id:
                return inst
        raise DescriptorError(f"no instance {inst_id!r}")


def _parse_root(xml_text: str, expected_tag: str) -> ET.Element:
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise DescriptorError(f"malformed XML: {exc}") from exc
    if root.tag != expected_tag:
        raise DescriptorError(
            f"expected <{expected_tag}> document, got <{root.tag}>")
    return root


def _req_attr(el: ET.Element, name: str) -> str:
    value = el.get(name)
    if not value:
        raise DescriptorError(f"<{el.tag}> is missing attribute {name!r}")
    return value


def _parse_value(el: ET.Element) -> Any:
    """Property values: typed by the ``type`` attribute."""
    raw = el.get("value", "")
    kind = el.get("type", "string")
    if kind == "string":
        return raw
    if kind in ("long", "short", "ulong"):
        return int(raw, 0)
    if kind in ("double", "float"):
        return float(raw)
    if kind == "boolean":
        return raw.lower() in ("true", "1", "yes")
    raise DescriptorError(f"unsupported property type {kind!r}")
