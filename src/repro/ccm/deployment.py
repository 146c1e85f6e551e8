"""CCM deployment: component servers and the deployment engine.

This is the machinery behind the paper's deployment scenarios (§2): a
:class:`ComponentServer` runs on every grid node willing to host
components and registers itself with the Naming Service; the
:class:`DeploymentEngine`, running anywhere on the grid, reads an
assembly descriptor, installs homes through the component servers
(looking executor factories up in the implementation repository — the
stand-in for binary packages), instantiates components, wires ports and
finally signals ``configuration_complete`` — all over ordinary GIOP."""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.ccm.component import ImplementationRepository
from repro.ccm.container import Container
from repro.ccm.descriptors import (
    AssemblyDescriptor,
    DescriptorError,
    ImplementationDecl,
    SoftwarePackage,
)
from repro.corba.naming import NamingContext
from repro.corba.orb import ObjectRef, Orb


def executor_factory(impl_id: str, component: str):
    """The executor factory registered as ``impl_id``, which must
    implement the IDL component ``component`` its package declares."""
    declared, factory = ImplementationRepository.lookup(impl_id)
    if declared != component:
        raise DescriptorError(
            f"implementation {impl_id!r} implements {declared!r}, "
            f"not {component!r}")
    return factory


class ComponentServer:
    """Per-node component hosting service.

    With ``access_policy`` set, home installation requires the caller's
    GIOP Principal to carry an authorised grid credential (the paper's
    §6 'grid-wide authentication mechanism')."""

    NAME_PREFIX = "ComponentServer."

    def __init__(self, container: Container,
                 naming: NamingContext | None = None,
                 access_policy=None):
        self.container = container
        self.access_policy = access_policy
        orb = container.orb
        base = orb.servant_base("Components::ComponentServer")
        server = self

        class _Servant(base):  # type: ignore[misc, valid-type]
            def install_home(self, component: str,
                             impl_id: str) -> ObjectRef:
                try:
                    server._authenticate()
                    home = server._install(component, impl_id)
                except Exception as exc:  # noqa: BLE001 → CreateFailure
                    raise orb.idl.type("Components::CreateFailure").make(
                        why=f"{type(exc).__name__}: {exc}") from exc
                return home.ref

            def installed_homes(self) -> list[str]:
                return sorted(server.container.homes)

        self.ref = orb.poa.activate_object(_Servant(),
                                           key="ComponentServer")
        self._naming = naming

    def _authenticate(self) -> None:
        if self.access_policy is not None:
            self.access_policy.check(self.container.orb.caller_principal())

    @property
    def registry_name(self) -> str:
        return f"{self.NAME_PREFIX}{self.container.process.name}"

    def register(self) -> None:
        """Advertise this server in the naming service (in a sim thread)."""
        if self._naming is None:
            raise RuntimeError("component server has no naming context")
        self._naming.rebind(self.registry_name, self.ref)

    def _install(self, component: str, impl_id: str):
        factory = executor_factory(impl_id, component)
        safe_impl = impl_id.replace(":", "_").replace("/", "_") \
            .replace("#", "_")
        name = f"{component.replace('::', '_')}-{safe_impl}"
        if name in self.container.homes:
            return self.container.homes[name]
        return self.container.install_home(component, factory, name=name)


@dataclass
class DeployedApplication:
    """Handle on a deployed assembly: instance id → component ref."""

    assembly_id: str
    components: dict[str, ObjectRef] = field(default_factory=dict)
    placement: dict[str, str] = field(default_factory=dict)

    def component(self, instance_id: str) -> ObjectRef:
        try:
            return self.components[instance_id]
        except KeyError:
            raise DescriptorError(
                f"no deployed instance {instance_id!r}") from None

    def teardown(self) -> None:
        """Destroy every component instance (call from a sim thread)."""
        for ref in self.components.values():
            ref.remove()
        self.components.clear()


class DeploymentEngine:
    """Drives a whole assembly deployment across the grid."""

    def __init__(self, orb: Orb, naming: NamingContext,
                 packages: dict[str, SoftwarePackage]):
        self.orb = orb
        self.naming = naming
        self.packages = packages

    # -- resolution helpers ---------------------------------------------------
    def _component_server(self, process_name: str) -> ObjectRef:
        ref = self.naming.resolve(
            f"{ComponentServer.NAME_PREFIX}{process_name}")
        return self.orb.narrow(ref, "Components::ComponentServer")

    def implementation(self, assembly: AssemblyDescriptor,
                       componentfile: str) -> ImplementationDecl:
        """The implementation a componentfile id deploys: the first one
        of its software package."""
        pkg_name = assembly.componentfiles[componentfile]
        try:
            pkg = self.packages[pkg_name]
        except KeyError:
            raise DescriptorError(
                f"unknown software package {pkg_name!r}") from None
        return pkg.implementations[0]

    # -- the deployment pipeline ----------------------------------------------
    def deploy(self, assembly: AssemblyDescriptor,
               placement: dict[str, str] | None = None
               ) -> DeployedApplication:
        """Deploy ``assembly``; must run inside a simulated thread.

        ``placement`` overrides/extends the descriptor's ``destination``
        fields (instance id → PadicoTM process name) — typically produced
        by the deployment planner from machine discovery (§2).
        """
        placement = dict(placement or {})
        app = DeployedApplication(assembly.id)

        # 1. instantiate every component on its destination node
        for inst in assembly.instances:
            destination = placement.get(inst.id, inst.destination)
            if destination is None:
                raise DescriptorError(
                    f"instance {inst.id!r} has no destination (descriptor "
                    f"or placement)")
            placement[inst.id] = destination
            impl = self.implementation(assembly, inst.componentfile)
            server = self._component_server(destination)
            home = self.orb.narrow(
                server.install_home(impl.component, impl.impl_id),
                "Components::CCMHome")
            comp = self.orb.narrow(home.create(), "Components::CCMObject")
            app.components[inst.id] = comp
        app.placement = placement

        # 2. configure attributes
        for inst_id, name, value in assembly.properties:
            comp = app.component(inst_id)
            component = self.implementation(
                assembly, assembly.instance(inst_id).componentfile).component
            attr = self.orb.idl.component(component).attributes.get(name)
            if attr is None:
                raise DescriptorError(
                    f"{component} has no attribute {name!r}")
            comp.configure(name, (attr.type, value))

        # 3. wire connections
        for conn in assembly.connections:
            provider = app.component(conn.provider_instance)
            user = app.component(conn.user_instance)
            user.connect(conn.user_port,
                         provider.provide_facet(conn.provider_port))

        # 4. activation
        for comp in app.components.values():
            comp.configuration_complete()
        return app
