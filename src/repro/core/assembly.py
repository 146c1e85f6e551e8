"""Hybrid assembly deployment: standard CCM + GridCCM instances.

The paper's deployment story ends with "Deployment mechanisms should
still be improved"; this module is that improvement: one assembly
descriptor can now mix ordinary components with parallel ones —

    <instance id="transport0" componentfile="trans" nodes="4"/>

— where the software package carries the parallelism description::

    <implementation id="DCE:trans-1">
      <component>App::Transport</component>
      <parallelism component="App::Transport"> ... </parallelism>
    </implementation>

The :class:`HybridDeployer` routes sequential instances through the
standard CCM :class:`~repro.ccm.deployment.DeploymentEngine` and spins
parallel instances up as :class:`~repro.core.runtime.ParallelComponent`
groups; connections from standard receptacles land on the parallel
proxies, which is legal because proxies advertise the original
interface."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.ccm.deployment import (
    DeployedApplication,
    DeploymentEngine,
    executor_factory,
)
from repro.ccm.descriptors import (
    AssemblyDescriptor,
    DescriptorError,
    InstanceDecl,
)
from repro.core.runtime import GridCcmError, ParallelComponent
from repro.corba.orb import ObjectRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoRuntime


@dataclass
class HybridApplication:
    """Handle on a deployed hybrid assembly."""

    assembly_id: str
    standard: DeployedApplication
    parallel: dict[str, ParallelComponent] = field(default_factory=dict)

    def component(self, instance_id: str) -> ObjectRef:
        return self.standard.component(instance_id)

    def parallel_component(self, instance_id: str) -> ParallelComponent:
        try:
            return self.parallel[instance_id]
        except KeyError:
            raise DescriptorError(
                f"{instance_id!r} is not a parallel instance") from None

    def teardown(self) -> None:
        self.standard.teardown()
        for comp in self.parallel.values():
            comp.remove()
        self.parallel.clear()


class HybridDeployer:
    """Deploys assemblies mixing sequential and parallel instances."""

    def __init__(self, runtime: "PadicoRuntime", engine: DeploymentEngine,
                 idl_source: str):
        self.runtime = runtime
        self.engine = engine
        self.idl_source = idl_source

    # ------------------------------------------------------------------
    def deploy(self, assembly: AssemblyDescriptor,
               placement: dict[str, Any] | None = None
               ) -> HybridApplication:
        """Deploy ``assembly``; call from a simulated thread.

        ``placement`` entries for parallel instances are *lists* of
        PadicoTM process names (one per node); sequential instances use
        plain process names as usual."""
        placement = dict(placement or {})
        parallel_insts = [i for i in assembly.instances
                          if self._is_parallel(assembly, i)]
        parallel_ids = {i.id for i in parallel_insts}

        # 1. parallel instances first (their proxies must exist before
        #    the standard engine wires connections to them)
        parallel: dict[str, ParallelComponent] = {}
        for inst in parallel_insts:
            parallel[inst.id] = self._deploy_parallel(assembly, inst,
                                                      placement)

        # 2. standard instances through the normal engine, with the
        #    parallel pieces carved out of the descriptor
        sub = self._sequential_subassembly(assembly, parallel_ids)
        app = self.engine.deploy(sub, placement={
            k: v for k, v in placement.items() if k not in parallel_ids})

        # 3. connections that touch a parallel instance
        for conn in assembly.connections:
            provider_par = conn.provider_instance in parallel_ids
            user_par = conn.user_instance in parallel_ids
            if not provider_par and not user_par:
                continue  # already wired by the engine
            if user_par:
                raise DescriptorError(
                    f"connection {conn.user_instance!r}->"
                    f"{conn.provider_instance!r}: receptacles on "
                    f"parallel instances are not supported yet")
            comp = parallel[conn.provider_instance]
            proxy = self.engine.orb.adopt(
                comp.proxy_refs.get(conn.provider_port))
            if proxy is None:
                raise DescriptorError(
                    f"parallel instance {conn.provider_instance!r} has "
                    f"no parallel port {conn.provider_port!r}")
            app.component(conn.user_instance).connect(conn.user_port,
                                                      proxy)

        # 4. configuration of parallel instances + activation
        for inst_id, name, value in assembly.properties:
            if inst_id in parallel_ids:
                parallel[inst_id].configure(name, value)
        for comp in parallel.values():
            comp.activate()

        return HybridApplication(assembly.id, app, parallel)

    # ------------------------------------------------------------------
    @staticmethod
    def _is_parallel(assembly: AssemblyDescriptor,
                     inst: InstanceDecl) -> bool:
        return inst.nodes > 1

    def _deploy_parallel(self, assembly: AssemblyDescriptor,
                         inst: InstanceDecl,
                         placement: dict[str, Any]) -> ParallelComponent:
        impl = self.engine.implementation(assembly, inst.componentfile)
        if impl.parallelism is None:
            raise DescriptorError(
                f"instance {inst.id!r} requests {inst.nodes} nodes but "
                f"implementation {impl.impl_id!r} declares no "
                f"<parallelism>")
        process_names = placement.get(inst.id)
        if not isinstance(process_names, (list, tuple)) or \
                len(process_names) != inst.nodes:
            raise DescriptorError(
                f"parallel instance {inst.id!r} needs a placement list "
                f"of exactly {inst.nodes} process names")
        processes = [self.runtime.process(p) for p in process_names]
        factory = executor_factory(impl.impl_id, impl.component)
        try:
            return ParallelComponent.create(
                self.runtime, inst.id, processes, self.idl_source,
                impl.parallelism, factory)
        except GridCcmError as exc:
            raise DescriptorError(
                f"cannot deploy parallel instance {inst.id!r}: {exc}") \
                from exc

    @staticmethod
    def _sequential_subassembly(assembly: AssemblyDescriptor,
                                parallel_ids: set[str]
                                ) -> AssemblyDescriptor:
        sub = AssemblyDescriptor(assembly.id)
        sub.componentfiles = dict(assembly.componentfiles)
        sub.instances = [i for i in assembly.instances
                         if i.id not in parallel_ids]
        sub.connections = [
            c for c in assembly.connections
            if c.user_instance not in parallel_ids
            and c.provider_instance not in parallel_ids]
        sub.properties = [
            p for p in assembly.properties if p[0] not in parallel_ids]
        return sub
