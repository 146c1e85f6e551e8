"""Redistribution planning: who sends which indices to whom.

Given a source distribution over N client nodes and a target
distribution over M server nodes of the same global index space, a plan
lists the required :class:`Transfer` objects.  The plan depends only on
the two distributions, so every node computes its own share with no
coordination — the paper's "all processes of a parallel component
participate to inter-component communications, to avoid bottlenecks":
a sending rank asks for its *row* (``src=rank``: what it sends), a
receiving rank for its *column* (``dst=rank``: what it receives).
Block→block is closed-form interval intersection and its transfers are
slices; any other pair splits the calling rank's own indices by owner.
Who sends to whom at all (:attr:`RedistributionPlan.senders`, which a
client needs for every server node) comes from interval arithmetic on
the block bounds, not from the transfers.  Planning therefore costs
O(local length + ranks) per rank, never O(global length × ranks).

§4.2.2: the redistribution *site* — client side, server side, or during
communication — is a policy decision; :func:`choose_redistribution_site`
implements the paper's feasibility (memory) / efficiency (network
performance) heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.distribution import (
    BlockDistribution,
    Distribution,
    DistributionError,
)


@dataclass(frozen=True)
class Transfer:
    """One message of a redistribution.

    ``src_index``/``dst_index`` select the moved elements in the source
    part's and target part's local arrays: a ``slice`` when the set is
    a unit-stride range (every block→block transfer), an index array
    otherwise; both always select ``size`` elements.
    """

    src: int
    dst: int
    src_index: slice | np.ndarray
    dst_index: slice | np.ndarray

    @property
    def size(self) -> int:
        idx = self.src_index
        return idx.stop - idx.start if isinstance(idx, slice) else len(idx)

    @cached_property
    def src_slice(self) -> slice | None:
        """``src_index`` as a slice, or None when it is not unit-stride.

        Block→block plans always qualify, which is what lets the wire
        path gather pieces as views instead of fancy-index copies."""
        return _as_slice(self.src_index)

    @cached_property
    def dst_slice(self) -> slice | None:
        """``dst_index`` as a slice, or None when it is not unit-stride."""
        return _as_slice(self.dst_index)

    @cached_property
    def src_local(self) -> np.ndarray:
        """``src_index`` as an index array (materialised on first read)."""
        return _as_array(self.src_index)

    @cached_property
    def dst_local(self) -> np.ndarray:
        """``dst_index`` as an index array (materialised on first read)."""
        return _as_array(self.dst_index)

    def __eq__(self, other: object) -> bool:  # ndarray-aware equality
        return (isinstance(other, Transfer) and other.src == self.src
                and other.dst == self.dst
                and np.array_equal(other.src_local, self.src_local)
                and np.array_equal(other.dst_local, self.dst_local))


def _as_slice(idx: slice | np.ndarray) -> slice | None:
    """A slice equivalent to ``idx``, or None if it is not unit-stride."""
    if isinstance(idx, slice):
        return idx
    idx = np.asarray(idx)
    n = len(idx)
    if n == 0:
        return slice(0, 0)
    first = int(idx[0])
    if int(idx[-1]) - first != n - 1:
        return None
    if n > 2 and not np.array_equal(idx, np.arange(first, first + n,
                                                   dtype=idx.dtype)):
        return None
    return slice(first, first + n)


def _as_array(idx: slice | np.ndarray) -> np.ndarray:
    if isinstance(idx, slice):
        return np.arange(idx.start, idx.stop, dtype=np.int64)
    return idx


def _compact(idx: np.ndarray) -> slice | np.ndarray:
    """Non-empty, strictly ascending ``idx`` as a slice when its span
    equals its length (which then makes it unit-stride), else as is."""
    first, last = int(idx[0]), int(idx[-1])
    return slice(first, last + 1) if last - first == len(idx) - 1 else idx


@dataclass
class RedistributionPlan:
    """Transfers from ``source`` to ``target`` distribution: all of
    them, or one sender's row / one receiver's column of them."""

    source: Distribution
    target: Distribution
    transfers: list[Transfer]
    #: dst -> ascending source ranks that send it anything, for *every*
    #: dst, whichever row or column ``transfers`` is restricted to
    senders: dict[int, tuple[int, ...]]

    def __post_init__(self) -> None:
        self._by_pair = {(t.src, t.dst): t for t in self.transfers}

    def transfer(self, src: int, dst: int) -> Transfer | None:
        """The transfer from ``src`` to ``dst``, if this plan has one."""
        return self._by_pair.get((src, dst))

    def outgoing(self, src: int) -> list[Transfer]:
        return [t for t in self.transfers if t.src == src]

    def incoming(self, dst: int) -> list[Transfer]:
        return [t for t in self.transfers if t.dst == dst]

    def apply(self, locals_in: list[np.ndarray]) -> list[np.ndarray]:
        """Execute the plan in-memory (reference semantics for tests).

        ``locals_in[p]`` is part p's local array under ``source``;
        returns the local arrays under ``target``.
        """
        if len(locals_in) != self.source.parts:
            raise DistributionError(
                f"expected {self.source.parts} local arrays")
        dtype = locals_in[0].dtype if locals_in else np.float64
        out = [np.zeros(self.target.local_size(p), dtype=dtype)
               for p in range(self.target.parts)]
        for t in self.transfers:
            out[t.dst][t.dst_local] = locals_in[t.src][t.src_local]
        return out


def redistribute_schedule(source: Distribution, target: Distribution, *,
                          src: int | None = None,
                          dst: int | None = None) -> RedistributionPlan:
    """Compute the transfer schedule from ``source`` to ``target``.

    ``src=`` / ``dst=`` keep only that sender's / receiver's transfers —
    the same objects, in the same order, as filtering the full plan —
    and compute nothing for any other rank."""
    if source.length != target.length:
        raise DistributionError(
            f"length mismatch: {source.length} != {target.length}")
    if src is not None:
        source._check_part(src)
    if dst is not None:
        target._check_part(dst)
    if isinstance(source, BlockDistribution) and \
            isinstance(target, BlockDistribution):
        transfers = _block_block(source, target, src, dst)
    else:
        transfers = _generic(source, target, src, dst)
    return RedistributionPlan(source, target, transfers,
                              _senders(source, target))


def _block_block(source: BlockDistribution, target: BlockDistribution,
                 src: int | None = None,
                 dst: int | None = None) -> list[Transfer]:
    """Closed-form interval intersection: O(N + M) slice transfers."""
    if dst is None:
        rows = range(source.parts)
    elif target.local_size(dst):
        rows = source.owners_in(target.start(dst), target.end(dst))
    else:
        rows = ()
    if src is not None:
        rows = (src,) if src in rows else ()
    transfers: list[Transfer] = []
    for s in rows:
        s0, s1 = source.start(s), source.end(s)
        if s0 == s1:
            continue
        for d in target.owners_in(s0, s1) if dst is None else (dst,):
            t0, t1 = target.start(d), target.end(d)
            lo, hi = max(s0, t0), min(s1, t1)
            if lo >= hi:
                continue
            transfers.append(Transfer(s, d, slice(lo - s0, hi - s0),
                                      slice(lo - t0, hi - t0)))
    return transfers


def _generic(source: Distribution, target: Distribution,
             src: int | None = None,
             dst: int | None = None) -> list[Transfer]:
    """Vectorised owner arithmetic for any distribution pair: each
    sender's indices split by receiver — or, for one receiver's column,
    that receiver's indices split by sender, which yields the same
    element order (ascending global index) without visiting any other
    rank's indices."""
    if dst is not None:
        return [Transfer(peer, dst, theirs, mine)
                for peer, mine, theirs in _split(target, source, dst)
                if src is None or peer == src]
    return [Transfer(s, peer, mine, theirs)
            for s in (range(source.parts) if src is None else (src,))
            for peer, mine, theirs in _split(source, target, s)]


def _split(own: Distribution, other: Distribution, part: int):
    """Split ``own``'s ``part`` by owner under ``other``.

    Yields ``(peer, own_index, peer_index)`` per owning peer, ascending:
    positions in ``part``'s local array and the matching positions in
    the peer's.  One stable argsort of the owner array keeps equal-owner
    indices in ascending position order, so each run of the sorted owner
    array is exactly the subset an ``owners == peer`` mask would select,
    in the same order — tests/core/ pins that against the masking pass.
    """
    gidx = own.global_indices(part)  # ascending: local position k is gidx[k]
    if len(gidx) == 0:
        return
    owners = other.owner(gidx)
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    cut = np.flatnonzero(np.diff(sorted_owners)) + 1
    starts = np.concatenate(([0], cut))
    ends = np.concatenate((cut, [len(sorted_owners)]))
    for s, e in zip(starts, ends):
        sel = order[s:e]
        peer = int(sorted_owners[s])
        yield (peer, _compact(sel),
               _compact(other.local_of_global(peer, gidx[sel])))


def _senders(source: Distribution,
             target: Distribution) -> dict[int, tuple[int, ...]]:
    """Which source ranks send anything to each target rank.

    A block source is a list of intervals, and every target kind knows
    which of its parts an interval touches; only a non-block source
    needs the owner arrays, counted in one pass."""
    n, m = source.parts, target.parts
    table: list[list[int]] = [[] for _ in range(m)]
    if isinstance(source, BlockDistribution):
        for s in range(n):
            if source.local_size(s):
                for d in target.owners_in(source.start(s), source.end(s)):
                    table[d].append(s)
    elif source.length:
        g = np.arange(source.length, dtype=np.int64)
        pairs = np.bincount(source.owner(g) * m + target.owner(g),
                            minlength=n * m).reshape(n, m)
        table = [np.flatnonzero(pairs[:, d]).tolist() for d in range(m)]
    return {d: tuple(srcs) for d, srcs in enumerate(table)}


# ---------------------------------------------------------------------------
# placement policy (§4.2.2)
# ---------------------------------------------------------------------------

CLIENT_SIDE = "client"
SERVER_SIDE = "server"
IN_TRANSIT = "in-transit"


def choose_redistribution_site(nbytes: float,
                               client_free_memory: float,
                               server_free_memory: float,
                               client_net_bandwidth: float,
                               server_net_bandwidth: float,
                               ) -> str:
    """Where should the data be rearranged?

    The paper: "It can perform a redistribution of the data on the
    client side, on the server side or during the communication between
    the client and the server.  The decision depends on several
    constraints like feasibility (mainly memory requirements) and
    efficiency (client network performance versus server network
    performance)."

    - rearranging on a side needs roughly one extra copy of the data in
      that side's memory (feasibility);
    - otherwise prefer rearranging on the side with the *faster*
      internal network, since rearrangement costs intra-component
      traffic there (efficiency);
    - if neither side has the memory, stream pieces and rearrange
      in-transit (no full extra copy, but per-piece overhead).
    """
    client_ok = client_free_memory >= nbytes
    server_ok = server_free_memory >= nbytes
    if not client_ok and not server_ok:
        return IN_TRANSIT
    if client_ok and not server_ok:
        return CLIENT_SIDE
    if server_ok and not client_ok:
        return SERVER_SIDE
    return (CLIENT_SIDE if client_net_bandwidth >= server_net_bandwidth
            else SERVER_SIDE)
