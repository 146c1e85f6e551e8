"""Simulated grid network substrate.

This package replaces the paper's physical networking hardware
(Myrinet-2000, SCI, Fast-Ethernet, wide-area links) with a deterministic
flow-level simulation:

- :mod:`repro.net.devices` — calibrated technology models
  (:data:`MYRINET_2000`, :data:`SCI`, :data:`ETHERNET_100`, :data:`WAN`);
- :mod:`repro.net.topology` — hosts, switches, *fabrics* (one network of
  one technology), links, routing (lowest-latency live paths);
- :mod:`repro.net.flows` — the max-min fair bandwidth allocator and the
  :class:`FlowNetwork` transfer engine.

Why flow-level?  Every quantity the paper's evaluation reports —
per-middleware peak bandwidth, fair sharing between concurrent CORBA and
MPI traffic, latency accumulation along the software stack — is a
property of *rates on shared links*, which the fluid max-min model
computes exactly, with O(1) events per transfer regardless of message
size.
"""

from repro.net.devices import (
    ETHERNET_100,
    GIGABIT_ETHERNET,
    LOOPBACK,
    MYRINET_2000,
    SCI,
    WAN,
    NetworkTechnology,
)
from repro.net.flows import Flow, FlowNetwork, TransferError
from repro.net.topology import (
    Fabric,
    Host,
    Link,
    NoRouteError,
    Topology,
    build_cluster,
    build_grid,
    build_two_site_grid,
)

__all__ = [
    "NetworkTechnology",
    "MYRINET_2000",
    "SCI",
    "ETHERNET_100",
    "GIGABIT_ETHERNET",
    "WAN",
    "LOOPBACK",
    "Topology",
    "Fabric",
    "Host",
    "Link",
    "NoRouteError",
    "build_cluster",
    "build_grid",
    "build_two_site_grid",
    "FlowNetwork",
    "Flow",
    "TransferError",
]
