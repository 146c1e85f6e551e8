"""Automatic fabric/driver selection (paper §4.3.2).

"The abstraction layer is responsible for automatically and dynamically
choosing the best available service from the low-level arbitration layer
according to the available hardware."

Policy: among fabrics that connect the endpoints (all pairs, for a
group), pick the highest-bandwidth one.  The resulting *mapping kind*
records whether the abstract paradigm matches the hardware paradigm
(straight) or not (cross-paradigm)."""

from __future__ import annotations

from dataclasses import dataclass

# paradigm names are compared as plain strings from NetworkTechnology
from repro.net.topology import Fabric, NoRouteError, Topology

STRAIGHT = "straight"
CROSS_PARADIGM = "cross-paradigm"
LOOPBACK_MAPPING = "loopback"


@dataclass(frozen=True)
class MappingChoice:
    """Outcome of automatic selection for one endpoint set."""

    fabric: Fabric | None  # None: all endpoints share a host (loopback)
    mapping: str           # straight | cross-paradigm | loopback

    @property
    def fabric_name(self) -> str | None:
        return self.fabric.name if self.fabric else None


def _mapping_kind(abstract_paradigm: str, fabric: Fabric | None) -> str:
    if fabric is None:
        return LOOPBACK_MAPPING
    hw = fabric.technology.paradigm
    return STRAIGHT if hw == abstract_paradigm else CROSS_PARADIGM


def select_pair_fabric(topology: Topology, src_host: str, dst_host: str,
                       abstract_paradigm: str,
                       forced_fabric: str | None = None) -> MappingChoice:
    """Choose the fabric for one endpoint pair.

    ``abstract_paradigm`` is the paradigm of the *interface* requesting
    the mapping (``"parallel"`` for Circuit, ``"distributed"`` for
    VLink); it only affects the reported mapping kind, never the choice —
    per the paper, the interface never knows nor chooses the hardware.
    """
    if forced_fabric is not None:
        fab = topology.fabrics[forced_fabric]
        fab.route(src_host, dst_host)  # raises NoRouteError if unusable
        return MappingChoice(fab, _mapping_kind(abstract_paradigm, fab))
    if src_host == dst_host:
        return MappingChoice(None, LOOPBACK_MAPPING)
    candidates = topology.fabrics_connecting(src_host, dst_host)
    if not candidates:
        raise NoRouteError(f"no fabric connects {src_host!r} and {dst_host!r}")
    fab = candidates[0]  # fabrics_connecting sorts best-bandwidth first
    return MappingChoice(fab, _mapping_kind(abstract_paradigm, fab))


def select_group_fabric(topology: Topology, hosts: list[str],
                        abstract_paradigm: str,
                        forced_fabric: str | None = None) -> MappingChoice:
    """Choose one fabric connecting *every* pair of a process group."""
    distinct = sorted(set(hosts))
    if forced_fabric is not None:
        fab = topology.fabrics[forced_fabric]
        _check_full_connectivity(fab, distinct)
        return MappingChoice(fab, _mapping_kind(abstract_paradigm, fab))
    if len(distinct) <= 1:
        return MappingChoice(None, LOOPBACK_MAPPING)
    ref = distinct[0]
    for fab in topology.fabrics_connecting(ref, distinct[1]):
        try:
            _check_full_connectivity(fab, distinct)
        except NoRouteError:
            continue
        return MappingChoice(fab, _mapping_kind(abstract_paradigm, fab))
    raise NoRouteError(f"no single fabric connects all of {distinct}")


def _check_full_connectivity(fabric: Fabric, hosts: list[str]) -> None:
    ref = hosts[0]
    for other in hosts[1:]:
        fabric.route(ref, other)  # fabric graphs are connected components
