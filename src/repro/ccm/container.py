"""CCM execution model: containers, homes, component instances.

A :class:`Container` hosts component instances inside one PadicoTM
process on top of an ORB.  It activates, for each instance:

- one ``Components::CCMObject`` servant (generic navigation/lifecycle),
- one servant per *facet* (typed by the facet's IDL interface).

Everything a component shows the outside world is therefore an ordinary
CORBA object — which is exactly what lets GridCCM later substitute its
parallel proxies without the model noticing."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.ccm.component import ComponentImpl
from repro.ccm.idl import COMPONENTS_IDL
from repro.corba.idl.compiler import CompiledIdl, ComponentDef
from repro.corba.orb import ObjectRef, Orb
from repro.corba.profiles import OMNIORB4, OrbProfile

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess


class CcmError(Exception):
    """Local CCM usage error."""


class CcmContext:
    """Session context: the executor's window on its ports."""

    def __init__(self, instance: "ComponentInstance"):
        self._instance = instance

    def get_connection(self, port: str) -> ObjectRef:
        """The object connected to receptacle ``port``."""
        inst = self._instance
        if port not in inst.cdef.uses:
            raise CcmError(f"{inst.cdef.scoped_name} has no receptacle "
                           f"{port!r}")
        target = inst.receptacles.get(port)
        if target is None:
            raise CcmError(f"receptacle {port!r} is not connected")
        return target

    @property
    def component_ref(self) -> ObjectRef:
        """This component's own CCMObject reference."""
        return self._instance.ccm_ref


class ComponentInstance:
    """One live component: executor + servants + port state."""

    def __init__(self, container: "Container", cdef: ComponentDef,
                 executor: ComponentImpl, key: str):
        self.container = container
        self.cdef = cdef
        self.executor = executor
        self.key = key
        self.receptacles: dict[str, ObjectRef | None] = {
            p: None for p in cdef.uses}
        self.facet_refs: dict[str, ObjectRef] = {}
        self.removed = False
        self.activated = False

        executor.set_session_context(CcmContext(self))
        orb = container.orb
        for port, iface in cdef.provides.items():
            servant = self._facet_servant(port, iface)
            self.facet_refs[port] = orb.poa.activate_object(
                servant, key=f"{key}.facet.{port}")
        self.ccm_ref = orb.poa.activate_object(
            _CcmObjectServant(orb, self), key=key)

    # -- servant builders ---------------------------------------------------
    def _facet_servant(self, port: str, iface: str):
        orb = self.container.orb
        provider = getattr(self.executor, f"provide_{port}", None)
        impl = provider() if provider is not None else self.executor
        base = orb.servant_base(iface)

        class _Facet(base):  # type: ignore[misc, valid-type]
            """Thin delegator so one executor can serve several facets."""

            def __getattr__(self, name: str) -> Any:
                return getattr(impl, name)

            def __setattr__(self, name: str, value: Any) -> None:
                if name.startswith("_"):
                    object.__setattr__(self, name, value)
                else:  # IDL attribute writes reach the implementation
                    setattr(impl, name, value)

        return _Facet()

    def activate(self) -> None:
        if not self.activated:
            self.activated = True
            self.executor.ccm_activate()

    def remove(self) -> None:
        if self.removed:
            return
        if self.activated:
            self.executor.ccm_passivate()
        self.executor.ccm_remove()
        self.removed = True
        orb = self.container.orb
        for port in self.facet_refs:
            orb.poa.deactivate_object(f"{self.key}.facet.{port}")
        orb.poa.deactivate_object(self.key)
        self.container._instances.pop(self.key, None)


class _CcmObjectServant:
    """Servant for Components::CCMObject delegating to the instance."""

    def __init__(self, orb: Orb, instance: ComponentInstance):
        self._idef = orb.idl.interface("Components::CCMObject")
        self._orb = orb
        self._inst = instance

    def _exc(self, exc_name: str, **fields: Any):
        return self._orb.idl.type(f"Components::{exc_name}").make(**fields)

    def provide_facet(self, name: str) -> ObjectRef:
        ref = self._inst.facet_refs.get(name)
        if ref is None:
            raise self._exc("InvalidName", name=name)
        return ref

    def connect(self, name: str, target: ObjectRef) -> None:
        inst = self._inst
        if name not in inst.cdef.uses:
            raise self._exc("InvalidName", name=name)
        if inst.receptacles[name] is not None:
            raise self._exc("AlreadyConnected", port=name)
        if target is None:
            raise self._exc("InvalidConnection", why="nil reference")
        target = self._orb.adopt(target)
        expected = inst.cdef.uses[name]
        expected_repo = f"IDL:{expected.replace('::', '/')}:1.0"
        if target.ior.type_id != expected_repo and \
                not target._is_a(expected_repo):
            raise self._exc(
                "InvalidConnection",
                why=f"{target.ior.type_id} does not satisfy {expected}")
        inst.receptacles[name] = target

    def disconnect(self, name: str) -> None:
        inst = self._inst
        if name not in inst.cdef.uses:
            raise self._exc("InvalidName", name=name)
        if inst.receptacles[name] is None:
            raise self._exc("NoConnection", port=name)
        inst.receptacles[name] = None

    def configure(self, name: str, value: tuple) -> None:
        inst = self._inst
        if name not in inst.cdef.attributes:
            raise self._exc("InvalidName", name=name)
        _t, v = value
        setattr(inst.executor, name, v)

    def get_attribute(self, name: str) -> tuple:
        inst = self._inst
        attr = inst.cdef.attributes.get(name)
        if attr is None:
            raise self._exc("InvalidName", name=name)
        return (attr.type, getattr(inst.executor, name))

    def component_type(self) -> str:
        return self._inst.cdef.scoped_name

    def configuration_complete(self) -> None:
        self._inst.activate()

    def remove(self) -> None:
        self._inst.remove()


class Home:
    """A CCM home: factory for one component type."""

    def __init__(self, container: "Container", cdef: ComponentDef,
                 factory, name: str):
        self.container = container
        self.cdef = cdef
        self.factory = factory
        self.name = name
        self._counter = 0
        orb = container.orb
        base = orb.servant_base("Components::CCMHome")
        home = self

        class _HomeServant(base):  # type: ignore[misc, valid-type]
            def create(self) -> ObjectRef:
                try:
                    return home.create().ccm_ref
                except Exception as exc:  # noqa: BLE001 → CreateFailure
                    raise orb.idl.type("Components::CreateFailure").make(
                        why=f"{type(exc).__name__}: {exc}") from exc

            def remove_component(self, comp: ObjectRef) -> None:
                inst = home.container._instances.get(comp.ior.object_key)
                if inst is not None:
                    inst.remove()

        self.ref = orb.poa.activate_object(_HomeServant(),
                                           key=f"home.{name}")

    def create(self, **attributes: Any) -> ComponentInstance:
        """Instantiate the component locally; returns the live instance."""
        self._counter += 1
        key = f"{self.name}.{self._counter}"
        executor = self.factory()
        if not isinstance(executor, ComponentImpl):
            raise CcmError(f"factory for {self.name!r} must produce a "
                           f"ComponentImpl, got {type(executor).__name__}")
        for attr, value in attributes.items():
            if attr not in self.cdef.attributes:
                raise CcmError(f"{self.cdef.scoped_name} has no attribute "
                               f"{attr!r}")
            setattr(executor, attr, value)
        instance = ComponentInstance(self.container, self.cdef, executor,
                                     key)
        self.container._instances[key] = instance
        return instance


class Container:
    """CCM container bound to one PadicoTM process.

    ``profile`` selects the underlying ORB product — the lever behind
    the paper's MicoCCM vs OpenCCM comparison."""

    def __init__(self, process: "PadicoProcess", idl: CompiledIdl,
                 profile: OrbProfile = OMNIORB4, port: str | None = None):
        self.process = process
        orb = Orb(process, profile, idl, port=port)
        if "Components::CCMObject" not in orb.idl.interfaces:
            from repro.corba.idl.compiler import compile_idl
            orb.idl.merge(compile_idl(COMPONENTS_IDL))
        self.orb = orb
        self.orb.start()
        self.homes: dict[str, Home] = {}
        self._instances: dict[str, ComponentInstance] = {}

    @property
    def idl(self) -> CompiledIdl:
        return self.orb.idl

    def install_home(self, component: str, factory,
                     name: str | None = None) -> Home:
        """Install a home for IDL component type ``component``."""
        cdef = self.idl.component(component)
        name = name or f"{cdef.name}Home{len(self.homes)}"
        if name in self.homes:
            raise CcmError(f"home {name!r} already installed")
        home = Home(self, cdef, factory, name)
        self.homes[name] = home
        return home

    def instance(self, key: str) -> ComponentInstance:
        try:
            return self._instances[key]
        except KeyError:
            raise CcmError(f"no component instance {key!r}") from None
