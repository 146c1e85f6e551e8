"""Topology-aware collective hierarchy (MPICH-G2 style, paper Fig. 8).

MPICH-G2 (Karonis et al.) showed that multi-site MPI collectives must be
*topology-depth aware*: what a collective costs is what it puts on the
wide-area critical path.  Every collective of :class:`repro.mpi.Comm`
runs cluster-local stages under a per-site *leader*, and only leaders
talk over the WAN: a rooted operation crosses it ``sites - 1`` times on
a binomial tree of leaders; ``barrier``, ``allgather`` and ``allreduce``
make one symmetric exchange among the leaders (``log2(sites)`` steps)
and finish inside every site in parallel.  This module holds the site
hierarchy they route through:

- :class:`SiteMap` — each group rank resolved to its host's topology
  ``site`` tag, with per-site member lists and the deterministic leader
  rule (lowest rank per site, except the root's site where the root
  itself leads, so data never takes an extra intra-site hop).  A map
  with a single block is the degenerate case: the leaders stage has one
  participant and vanishes, and what is left is the classic whole-group
  binomial tree;
- :class:`CollShared` — the state all ranks of one communicator share:
  the site map, the one-block map a reduction falls back to when the
  site layout would reorder its operands, lazily-established per-site
  subcircuits (the PadicoTM selector picks the site SAN for those), and
  the plain-integer WAN-crossing/byte counters behind
  ``Comm.coll_stats`` (plain ints perturb nothing when no monitor is
  attached; the ``mpi.wan_*`` obs counters are emitted by the
  communicator under ``mon is not None`` guards).

Rank-local ``Comm`` objects cannot share state directly, so
:func:`shared_state` caches one :class:`CollShared` per communicator
context on the (shared) Circuit object.
"""

from __future__ import annotations

from repro.padicotm.abstraction.circuit import Circuit

__all__ = ["CollStats", "SiteMap", "CollShared", "shared_state"]


class CollStats:
    """Per-communicator WAN traffic counters (plain ints/floats —
    maintained whether or not a monitor is attached)."""

    __slots__ = ("wan_crossings", "wan_bytes")

    def __init__(self) -> None:
        self.wan_crossings = 0
        self.wan_bytes: dict[str, float] = {}

    def count(self, op: str, nbytes: float) -> None:
        self.wan_crossings += 1
        self.wan_bytes[op] = self.wan_bytes.get(op, 0.0) + float(nbytes)


class SiteMap:
    """Group ranks resolved to topology sites.

    Sites are indexed in order of first appearance in rank order, so
    every rank derives the identical map without communicating."""

    def __init__(self, tags: list[str]):
        self.tags = tags
        self.sites: list[str] = []
        self.site_of: list[int] = []
        index: dict[str, int] = {}
        for tag in tags:
            si = index.get(tag)
            if si is None:
                si = index[tag] = len(self.sites)
                self.sites.append(tag)
            self.site_of.append(si)
        self.members: list[list[int]] = [[] for _ in self.sites]
        for rank, si in enumerate(self.site_of):
            self.members[si].append(rank)
        # contiguous == every site's ranks form one unbroken block, which
        # is what lets a per-site pre-reduction keep operands in rank order
        self.contiguous = all(
            m[-1] - m[0] + 1 == len(m) for m in self.members)

    @property
    def nsites(self) -> int:
        return len(self.sites)

    @property
    def multi_site(self) -> bool:
        return len(self.sites) > 1

    def leader(self, si: int, root: int) -> int:
        """Deterministic per-site leader for a collective rooted at
        ``root``: the root itself on its own site (no extra hop for the
        root's data), the lowest member rank elsewhere."""
        if si == self.site_of[root]:
            return root
        return self.members[si][0]

    def leaders(self, root: int) -> list[int]:
        return [self.leader(si, root) for si in range(self.nsites)]


class CollShared:
    """State shared by all ranks of one communicator (cached on the
    Circuit, see :func:`shared_state`)."""

    def __init__(self, circuit: Circuit, group: list[int], context: str):
        self.stats = CollStats()
        self.sitemap = SiteMap(
            [circuit.members[g].host.site for g in group])
        #: the whole group as a single block: what a reduction runs
        #: over when the site layout would reorder its operands
        self.one_block = SiteMap([""] * len(group))
        self._circuit = circuit
        self._group = list(group)
        self._context = context
        self._site_circuits: dict[int, tuple[Circuit, list[int | None]]] = {}

    def site_channel(self, si: int) -> tuple[Circuit, list[int | None]]:
        """The per-site subcircuit and the subcircuit rank of each group
        rank (None off the site).

        Established lazily (first collective that routes an intra-site
        edge) as a subcircuit of the group circuit, so it closes with
        it; the PadicoTM selector picks the best fabric connecting just
        the site's hosts — the site SAN on a grid topology."""
        got = self._site_circuits.get(si)
        if got is None:
            ranks = self.sitemap.members[si]
            sub = self._circuit.subcircuit(
                f"{self._context}|site:{self.sitemap.sites[si]}",
                [self._group[r] for r in ranks])
            index: list[int | None] = [None] * len(self._group)
            for i, r in enumerate(ranks):
                index[r] = i
            got = (sub, index)
            self._site_circuits[si] = got
        return got


def shared_state(circuit: Circuit, group: list[int],
                 context: str) -> CollShared:
    """One :class:`CollShared` per communicator, shared across its
    rank-local ``Comm`` objects via a cache on the Circuit (the first
    rank to ask builds it)."""
    cache = circuit.__dict__.setdefault("_coll_shared", {})
    key = (context, tuple(group))
    shared = cache.get(key)
    if shared is None:
        shared = cache[key] = CollShared(circuit, group, context)
    return shared
