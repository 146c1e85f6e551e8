"""Machine registry and discovery.

Machines willing to host components advertise themselves (typically at
component-server startup); deployers query by capability.  The paper's
"machine discovery" scenario: "The features of the machines (network
technologies, processors, etc.) are not known statically."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.net.topology import Topology


class DiscoveryError(LookupError):
    """No machine satisfies a discovery query."""


@dataclass
class MachineInfo:
    """One advertised machine."""

    host: str
    process: str              # PadicoTM process name of its component server
    site: str = "default"
    labels: frozenset[str] = frozenset()
    cpus: int = 2
    memory: float = 512e6     # bytes (the paper's nodes have 512 MB)
    fabrics: frozenset[str] = frozenset()
    #: running component instances (load metric for the planner)
    load: int = 0

    def satisfies(self, labels: Iterable[str] = (), site: str | None = None,
                  fabric: str | None = None) -> bool:
        return (set(labels) <= self.labels
                and (site is None or self.site == site)
                and (fabric is None or fabric in self.fabrics))


class MachineRegistry:
    """Registry + discovery over advertised machines."""

    def __init__(self, topology: Topology | None = None):
        self.topology = topology
        self._machines: dict[str, MachineInfo] = {}

    # -- advertisement --------------------------------------------------------
    def advertise(self, host: str, process: str,
                  labels: Iterable[str] = ()) -> MachineInfo:
        """Register a machine; topology-derived facts are filled in."""
        if process in self._machines:
            raise ValueError(f"process {process!r} already advertised")
        site, fabrics = "default", frozenset()
        if self.topology is not None:
            if host not in self.topology.hosts:
                raise ValueError(f"unknown host {host!r}")
            h = self.topology.hosts[host]
            site, fabrics = h.site, frozenset(h.fabrics)
        info = MachineInfo(host, process, site, frozenset(labels),
                           fabrics=fabrics)
        self._machines[process] = info
        return info

    def withdraw(self, process: str) -> None:
        self._machines.pop(process, None)

    def machine(self, process: str) -> MachineInfo:
        try:
            return self._machines[process]
        except KeyError:
            raise DiscoveryError(f"no machine advertised as {process!r}") \
                from None

    def machines(self) -> list[MachineInfo]:
        return sorted(self._machines.values(), key=lambda m: m.process)

    # -- discovery --------------------------------------------------------------
    def discover(self, labels: Iterable[str] = (), site: str | None = None,
                 fabric: str | None = None,
                 require: bool = True) -> list[MachineInfo]:
        """Machines matching every criterion, least-loaded first."""
        found = [m for m in self.machines()
                 if m.satisfies(labels, site, fabric)]
        found.sort(key=lambda m: (m.load, m.process))
        if require and not found:
            raise DiscoveryError(
                f"no machine matches labels={sorted(labels)} site={site!r} "
                f"fabric={fabric!r}")
        return found
