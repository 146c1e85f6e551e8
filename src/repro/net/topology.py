"""Grid topology: hosts, fabrics, switches, links, routing.

A :class:`Topology` holds a set of :class:`Host` machines and a set of
:class:`Fabric` networks.  A fabric is *one* network of *one*
technology — e.g. the Myrinet SAN of a cluster, a site LAN, or the
wide-area interconnect — mirroring the paper's view that a grid node may
own several NICs on different networks and that the runtime (PadicoTM)
picks which one to use per communication.

Each fabric is an undirected graph whose nodes are host names and
switch names; every edge materialises as a *pair of simplex*
:class:`Link` objects (full-duplex cable), which is what makes the
max-min allocator in :mod:`repro.net.flows` attribute send and receive
bandwidth independently.  Routes are lowest-latency paths over live
links (Dijkstra, :meth:`Fabric.route`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import count
from typing import Iterable

from repro.net.devices import ETHERNET_100, MYRINET_2000, WAN, NetworkTechnology


class NoRouteError(RuntimeError):
    """No live path between two endpoints on the requested fabric."""


class Link:
    """A simplex (one-direction) network link.

    ``up`` is read-only: a downed link is skipped by routing and
    refused by flow admission.  Its one writer is :meth:`_set_up`,
    which also invalidates the owning fabric's route cache; the flow
    network's ``fail_link`` / ``restore_link`` call it for both
    directions of a cable, so the flows crossing a failed cable learn
    of it in the same step.
    """

    __slots__ = ("name", "src", "dst", "fabric", "bandwidth", "latency",
                 "_up")

    def __init__(self, name: str, src: str, dst: str, fabric: "Fabric",
                 bandwidth: float, latency: float):
        self.name = name
        self.src = src
        self.dst = dst
        self.fabric = fabric
        self.bandwidth = bandwidth
        self.latency = latency
        self._up = True

    @property
    def up(self) -> bool:
        return self._up

    def _set_up(self, value: bool) -> None:
        if value != self._up:
            self._up = value
            self.fabric._invalidate_routes()

    def __repr__(self) -> str:
        state = "up" if self.up else "DOWN"
        return f"<Link {self.name} {self.bandwidth/1e6:.0f}MB/s {state}>"


@dataclass
class Host:
    """A grid machine: its site and the fabrics its NICs attach to."""

    name: str
    site: str = "default"
    fabrics: set[str] = field(default_factory=set)

    def __hash__(self) -> int:
        return hash(self.name)


class Fabric:
    """One network of one technology inside a :class:`Topology`.

    ``site`` is an optional locality tag: fabrics private to one grid
    site (a cluster SAN, a site LAN) carry the site name, the wide-area
    interconnect carries ``None``.  The hierarchical max-min solver in
    :mod:`repro.net.flows` uses the tag to shard flows by site.
    """

    def __init__(self, name: str, technology: NetworkTechnology,
                 site: str | None = None):
        self.name = name
        self.technology = technology
        self.site = site
        #: node → {neighbour: simplex link node→neighbour}, neighbours
        #: in cabling order (the order Dijkstra visits them in)
        self._adj: dict[str, dict[str, Link]] = {}
        self._links: dict[tuple[str, str], Link] = {}
        #: shortest-path results keyed on (src, dst); invalidated by any
        #: link state change or graph growth.  Dijkstra over a 10k-host
        #: fabric is a measurable per-transfer cost; repeated transfers
        #: between the same endpoints are the common case.
        self._route_cache: dict[tuple[str, str], list[Link]] = {}
        #: plain-int cache counters, kept off the monitor (like the
        #: FlowNetwork solver counters) so traces stay identical whether
        #: or not the cache hits; benchmarks republish them post-run
        self.route_cache_hits = 0
        self.route_cache_misses = 0

    def _invalidate_routes(self) -> None:
        self._route_cache.clear()

    def _add_edge(self, a: str, b: str, bandwidth: float,
                  latency: float) -> None:
        if a == b:
            raise ValueError(f"self-loop {a!r} in fabric {self.name!r}")
        for src, dst in ((a, b), (b, a)):
            link = Link(f"{self.name}:{src}->{dst}", src, dst, self,
                        bandwidth, latency)
            self._links[(src, dst)] = link
            self._add_node(src)[dst] = link
        self._invalidate_routes()

    def _add_node(self, name: str) -> dict[str, Link]:
        """Register a host or switch; returns its neighbour table."""
        return self._adj.setdefault(name, {})

    def link(self, src: str, dst: str) -> Link:
        return self._links[(src, dst)]

    def links(self) -> Iterable[Link]:
        return self._links.values()

    def route(self, src: str, dst: str) -> list[Link]:
        """Directed links along the lowest-latency live path src→dst.

        Results are cached per ``(src, dst)``; the cache is cleared by
        every link state change (:meth:`Link._set_up`, reached through
        ``FlowNetwork.fail_link`` / ``restore_link``) and by attaching
        new cables, so a cached route is always exactly what a fresh
        Dijkstra would return.
        """
        if src == dst:
            return []
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            self.route_cache_hits += 1
            return list(cached)
        self.route_cache_misses += 1
        if src not in self._adj or dst not in self._adj:
            raise NoRouteError(
                f"{src!r} or {dst!r} not attached to fabric {self.name!r}")
        route = self._dijkstra(src, dst)
        self._route_cache[(src, dst)] = route
        return list(route)

    def _dijkstra(self, src: str, dst: str) -> list[Link]:
        """Lowest-latency live path, by bidirectional Dijkstra.

        Ties break exactly as in networkx's ``bidirectional_dijkstra``
        (what ``shortest_path(G, src, dst, weight=...)`` runs), so every
        route, flow and digest is the one that code produced: the two
        searches alternate, forward first, over heaps of ``(distance,
        counter, node)`` sharing one counter; neighbours are scanned in
        cabling order; a predecessor is replaced only by a strictly
        shorter distance; a down link is hidden; the meeting node is the
        first to strictly improve the best total, and the search stops
        when one node is settled from both ends.  Pinned against
        networkx by ``tests/net/test_routing_oracle.py``.
        """
        adj = self._adj
        dists: tuple[dict, dict] = ({}, {})
        preds: tuple[dict, dict] = ({src: None}, {dst: None})
        seen: tuple[dict, dict] = ({src: 0}, {dst: 0})
        tick = count()
        fringe = ([(0, next(tick), src)], [(0, next(tick), dst)])
        best = meet = None
        way = 1
        while fringe[0] and fringe[1]:
            way = 1 - way
            dist, _, node = heappop(fringe[way])
            done = dists[way]
            if node in done:
                continue
            done[node] = dist
            if node in dists[1 - way]:
                return self._meet_path(preds, meet)
            near, far = seen[way], seen[1 - way]
            for peer, out in adj[node].items():
                link = out if way == 0 else adj[peer][node]
                if not link.up or peer in done:
                    continue
                d = dist + link.latency
                if peer not in near or d < near[peer]:
                    near[peer] = d
                    heappush(fringe[way], (d, next(tick), peer))
                    preds[way][peer] = node
                    if peer in far:
                        total = d + far[peer]
                        if best is None or best > total:
                            best, meet = total, peer
        raise NoRouteError(
            f"no live path {src!r}->{dst!r} on fabric {self.name!r}")

    def _meet_path(self, preds: tuple[dict, dict], meet: str) -> list[Link]:
        nodes = _walk(preds[0], meet)[::-1] + _walk(preds[1], preds[1][meet])
        return [self._adj[a][b] for a, b in zip(nodes, nodes[1:])]

    def path_latency(self, src: str, dst: str) -> float:
        return sum(l.latency for l in self.route(src, dst))

    def __repr__(self) -> str:
        return (f"<Fabric {self.name} ({self.technology.name}) "
                f"{len(self._adj)} nodes>")


def _walk(pred: dict, node: str | None) -> list[str]:
    """``node`` and its predecessors, up to the end of the chain."""
    chain = []
    while node is not None:
        chain.append(node)
        node = pred[node]
    return chain


class Topology:
    """The whole simulated grid: hosts plus fabrics."""

    def __init__(self) -> None:
        self.hosts: dict[str, Host] = {}
        self.fabrics: dict[str, Fabric] = {}

    # -- construction ---------------------------------------------------
    def add_host(self, name: str, site: str = "default") -> Host:
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host = Host(name, site)
        self.hosts[name] = host
        return host

    def add_fabric(self, name: str, technology: NetworkTechnology,
                   site: str | None = None) -> Fabric:
        if name in self.fabrics:
            raise ValueError(f"duplicate fabric {name!r}")
        fabric = Fabric(name, technology, site=site)
        self.fabrics[name] = fabric
        return fabric

    def add_switch(self, fabric: str | Fabric, name: str) -> str:
        """Register a switch node on a fabric; returns its name."""
        self._fabric(fabric)._add_node(name)
        return name

    def attach(self, host: str | Host, fabric: str | Fabric,
               peer: str, bandwidth: float | None = None,
               latency: float | None = None) -> None:
        """Cable a host NIC to ``peer`` (a switch or another host)."""
        fab = self._fabric(fabric)
        hostname = host.name if isinstance(host, Host) else host
        if hostname not in self.hosts:
            raise ValueError(f"unknown host {hostname!r}")
        tech = fab.technology
        fab._add_edge(hostname, peer,
                      tech.bandwidth if bandwidth is None else bandwidth,
                      tech.latency if latency is None else latency)
        self.hosts[hostname].fabrics.add(fab.name)

    def link_switches(self, fabric: str | Fabric, a: str, b: str,
                      latency: float | None = None) -> None:
        fab = self._fabric(fabric)
        tech = fab.technology
        fab._add_edge(a, b, tech.bandwidth,
                      tech.latency if latency is None else latency)

    # -- queries ---------------------------------------------------------
    def _fabric(self, fabric: str | Fabric) -> Fabric:
        if isinstance(fabric, Fabric):
            return fabric
        try:
            return self.fabrics[fabric]
        except KeyError:
            raise ValueError(f"unknown fabric {fabric!r}") from None

    def route(self, src: str, dst: str, fabric: str | Fabric) -> list[Link]:
        return self._fabric(fabric).route(src, dst)

    def fabrics_connecting(self, src: str, dst: str) -> list[Fabric]:
        """All fabrics offering a live path src→dst, best bandwidth first.

        This is the raw material for PadicoTM's automatic network
        selection (§4.3.2): given two endpoints, which wires could carry
        the traffic and which is fastest.
        """
        out: list[Fabric] = []
        for fab in self.fabrics.values():
            try:
                fab.route(src, dst)
            except NoRouteError:
                continue
            out.append(fab)
        out.sort(key=lambda f: (-f.technology.bandwidth, f.name))
        return out

    def route_cache_stats(self) -> tuple[int, int]:
        """Aggregate ``(hits, misses)`` of every fabric's route cache."""
        hits = misses = 0
        for fab in self.fabrics.values():
            hits += fab.route_cache_hits
            misses += fab.route_cache_misses
        return hits, misses


# ---------------------------------------------------------------------------
# convenience builders used across tests, examples and benchmarks
# ---------------------------------------------------------------------------

def build_cluster(topo: Topology, name: str, n_hosts: int,
                  san: NetworkTechnology | None = MYRINET_2000,
                  lan: NetworkTechnology | None = ETHERNET_100,
                  site: str | None = None,
                  switch_fanout: int | None = None,
                  host_prefix: str | None = None) -> list[Host]:
    """A cluster: ``n_hosts`` machines on a SAN and/or a LAN.

    Mirrors the paper's testbed: every node has a Myrinet-2000 NIC into
    the SAN switch and a Fast-Ethernet NIC into the site LAN switch.
    Fabrics are named ``{name}-san`` / ``{name}-lan`` and carry the
    cluster's site as their locality tag (the flow solver's shard key).

    ``switch_fanout`` bounds the port count of one switch: above it,
    hosts are spread over leaf switches (``{name}-san-sw0``, ``-sw1``,
    …, ``fanout`` hosts each) that uplink to a spine (``{name}-san-sw``)
    at the technology's native rate — the realistic shape of a large
    Myrinet/SCI island.  With ``None`` (default) every host plugs into
    the single flat switch, exactly as before.

    ``host_prefix`` overrides the host-name prefix (default ``name``):
    callers generating many numbered clusters pass a prefix ending in a
    non-digit so ``{prefix}{i}`` cannot collide across clusters
    (``g1`` + ``10`` vs ``g11`` + ``0``).
    """
    site = site or name
    host_prefix = host_prefix or name
    hosts = []
    san_fab = topo.add_fabric(f"{name}-san", san, site=site) if san else None
    lan_fab = topo.add_fabric(f"{name}-lan", lan, site=site) if lan else None
    fanned = switch_fanout is not None and n_hosts > switch_fanout

    def _spine(fab: Fabric, kind: str) -> str:
        spine = f"{name}-{kind}-sw"
        topo.add_switch(fab, spine)
        if fanned:
            n_leaves = (n_hosts + switch_fanout - 1) // switch_fanout
            for k in range(n_leaves):
                topo.add_switch(fab, f"{spine}{k}")
                topo.link_switches(fab, f"{spine}{k}", spine)
        return spine

    san_spine = _spine(san_fab, "san") if san_fab else None
    lan_spine = _spine(lan_fab, "lan") if lan_fab else None
    for i in range(n_hosts):
        host = topo.add_host(f"{host_prefix}{i}", site=site)
        leaf = f"{i // switch_fanout}" if fanned else ""
        if san_fab:
            topo.attach(host, san_fab, f"{san_spine}{leaf}")
        if lan_fab:
            topo.attach(host, lan_fab, f"{lan_spine}{leaf}")
        hosts.append(host)
    return hosts


def build_grid(sites: int = 2, hosts_per_site: int = 4,
               san: NetworkTechnology | None = MYRINET_2000,
               switch_fanout: int | None = None,
               ) -> tuple[Topology, dict[str, list[Host]]]:
    """A multi-site grid: ``sites`` clusters joined by wide-area links.

    The paper's Figure-1 environment scaled up: every site is a
    high-performance cluster built with :func:`build_cluster` (its own
    ``san`` fabric, tagged with the site name, and no LAN;
    ``switch_fanout`` spreads large sites over leaf switches), and a
    single site-less ``g-wan`` fabric couples the sites — one router
    switch per site, all routers cabled to a core switch at the WAN's
    rates, every host cabled to its site router at Fast-Ethernet rates.

    Returns ``(topology, {site_name: hosts})``.  Site names are ``g0``
    … ``g{sites-1}``; intra-site traffic routes over the site SAN,
    cross-site traffic over the WAN fabric only — the decomposition
    seam the hierarchical max-min solver shards on.
    """
    if sites < 1:
        raise ValueError("a grid needs at least one site")
    topo = Topology()
    wan = topo.add_fabric("g-wan", WAN)
    core = topo.add_switch(wan, "g-wan-core")
    site_hosts: dict[str, list[Host]] = {}
    for i in range(sites):
        site = f"g{i}"
        hosts = build_cluster(topo, site, hosts_per_site, san=san, lan=None,
                              site=site, switch_fanout=switch_fanout,
                              host_prefix=f"{site}n")
        router = topo.add_switch(wan, f"g-wan-r{i}")
        topo.link_switches(wan, router, core)
        for h in hosts:
            topo.attach(h, wan, router, bandwidth=ETHERNET_100.bandwidth,
                        latency=ETHERNET_100.latency)
        site_hosts[site] = hosts
    return topo, site_hosts


def build_two_site_grid(n_per_site: int = 4,
                        ) -> tuple[Topology, list[Host], list[Host]]:
    """The paper's §2 deployment: two clusters joined by a wide-area link.

    Returns ``(topology, site_a_hosts, site_b_hosts)``.  The WAN fabric
    reaches every host through its site router (Ethernet hop to the
    router, WAN hop between routers), so cross-site traffic is slow and
    insecure while intra-site traffic can use the SAN.
    """
    topo = Topology()
    a_hosts = build_cluster(topo, "a", n_per_site, site="site-a")
    b_hosts = build_cluster(topo, "b", n_per_site, site="site-b")
    wan = topo.add_fabric("wan", WAN)
    topo.add_switch(wan, "router-a")
    topo.add_switch(wan, "router-b")
    topo.link_switches(wan, "router-a", "router-b")
    for h in a_hosts:
        topo.attach(h, wan, "router-a",
                    bandwidth=ETHERNET_100.bandwidth,
                    latency=ETHERNET_100.latency)
    for h in b_hosts:
        topo.attach(h, wan, "router-b",
                    bandwidth=ETHERNET_100.bandwidth,
                    latency=ETHERNET_100.latency)
    return topo, a_hosts, b_hosts
