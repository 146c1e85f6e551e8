"""CORBA Component Model (CCM) runtime — paper §3.2.

Implements the four CCM models the paper describes:

- **abstract model**: components with facets, receptacles and
  attributes, declared in IDL 3 (:mod:`repro.corba.idl` handles
  ``component``/``home``);
- **programming model**: executors (:class:`ComponentImpl`) with
  lifecycle callbacks and a session context for port access;
- **execution model**: :class:`Container` + :class:`Home` hosting
  component instances on an ORB, with every port interaction carried
  over GIOP;
- **deployment model**: software packages and assembly descriptors (XML,
  :mod:`repro.ccm.descriptors`) deployed over the grid through
  :class:`ComponentServer` objects (:mod:`repro.ccm.deployment`).

Event ports (``emits``/``publishes``/``consumes``, ``eventtype``) and
CIDL compositions are not modelled: no paper experiment or GridCCM
scenario uses them, so the IDL compiler and the assembly parser reject
them.
"""

from repro.ccm.component import (
    ComponentImpl,
    ImplementationRepository,
    implementation,
)
from repro.ccm.container import (
    CcmContext,
    CcmError,
    ComponentInstance,
    Container,
    Home,
)
from repro.ccm.descriptors import (
    AssemblyDescriptor,
    ConnectionDecl,
    DescriptorError,
    InstanceDecl,
    SoftwarePackage,
)
from repro.ccm.deployment import ComponentServer, DeploymentEngine
from repro.ccm.idl import COMPONENTS_IDL, components_idl

__all__ = [
    "ComponentImpl",
    "ImplementationRepository",
    "implementation",
    "Container",
    "Home",
    "CcmContext",
    "CcmError",
    "ComponentInstance",
    "SoftwarePackage",
    "AssemblyDescriptor",
    "InstanceDecl",
    "ConnectionDecl",
    "DescriptorError",
    "ComponentServer",
    "DeploymentEngine",
    "COMPONENTS_IDL",
    "components_idl",
]
