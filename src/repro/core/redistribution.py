"""Redistribution planning: who sends which indices to whom.

Given a source distribution over N client nodes and a target
distribution over M server nodes of the same global index space, a plan
lists the required :class:`Transfer` objects.  The plan depends only on
the two distributions, so every node computes its own share with no
coordination — the paper's "all processes of a parallel component
participate to inter-component communications, to avoid bottlenecks":
a sending rank asks for its *row* (``src=rank``: what it sends), a
receiving rank for its *column* (``dst=rank``: what it receives).

A block source — every GridCCM client, whose arguments are canonical
blocks — is planned in closed form whatever the target: each source
part is one interval, and the target kind says where each of its parts'
indices fall in it (``Distribution.owned_in``).  The receiver side of
every such piece is one slice of the receiver's local array; the sender
side is a slice for a block target, a stepped slice ``slice(a, b,
parts)`` for a cyclic one, and for a block-cyclic one an index array of
``block_size``-long runs built by arithmetic.  A row or column thus
costs O(ranks) for block and cyclic targets and O(piece length) with no
sort for block-cyclic ones.  Only a non-block source, which no GridCCM
caller builds, splits the calling rank's own indices by owner with a
stable argsort — O(local length · log) per rank.  Who sends to whom at
all (:attr:`RedistributionPlan.senders`, which a client needs for every
server node) comes from interval arithmetic on the block bounds, not
from the transfers.  No plan costs O(global length × ranks).

§4.2.2 leaves the redistribution *site* — client side, server side, or
during communication — as a policy decision.  :mod:`repro.core.runtime`
always redistributes during the communication: each client rank cuts
its own chunk into the pieces every server node owns
(``_CallEngine._wire_args``) and sends each piece straight to its
owner, and each server node assembles its local block from the pieces
it receives (``_ServerPortLayer._assemble``).  Neither side holds a
rearranged copy of the whole argument.
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
    part's and target part's local arrays, ``size`` of each, in the
    same order: a ``slice`` or an index array, either of which indexes
    a local array directly.  A unit-stride index array is stored as the
    slice it equals.  From a block source the receiver side is always
    one unit-stride slice; the sender side is one too for a block
    target, a stepped ``slice(a, b, parts)`` for a cyclic one, and an
    index array of ``block_size``-long runs for a block-cyclic one.
    """

    src: int
    dst: int
    src_index: slice | np.ndarray
    dst_index: slice | np.ndarray

    def __post_init__(self) -> None:
        for name in ("src_index", "dst_index"):
            idx = getattr(self, name)
            if not isinstance(idx, slice) and \
                    (sl := _as_slice(idx)) is not None:
                object.__setattr__(self, name, sl)

    @property
    def size(self) -> int:
        idx = self.src_index
        return len(range(idx.start, idx.stop, idx.step or 1)) \
            if isinstance(idx, slice) else len(idx)

    @property
    def src_slice(self) -> slice | None:
        """``src_index`` if it is a slice (stepped for a cyclic
        target), else None."""
        idx = self.src_index
        return idx if isinstance(idx, slice) else None

    @property
    def dst_slice(self) -> slice | None:
        """``dst_index`` if it is a slice, else None."""
        idx = self.dst_index
        return idx if isinstance(idx, slice) else None

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


def _as_slice(idx: np.ndarray) -> slice | None:
    """A slice equivalent to ``idx``, or None if it is not unit-stride."""
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
        return np.arange(idx.start, idx.stop, idx.step or 1, dtype=np.int64)
    return idx


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
            out[t.dst][t.dst_index] = locals_in[t.src][t.src_index]
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
    senders = _senders(source, target)
    if isinstance(source, BlockDistribution):
        transfers = _from_block(source, target, senders, src, dst)
    else:
        transfers = _generic(source, target, src, dst)
    return RedistributionPlan(source, target, transfers, senders)


def _from_block(source: BlockDistribution, target: Distribution,
                senders: dict[int, tuple[int, ...]],
                src: int | None = None,
                dst: int | None = None) -> list[Transfer]:
    """Closed form for a block source, whatever the target: each source
    part is one interval, and the target says where its parts' indices
    fall in it (:meth:`~repro.core.distribution.Distribution.owned_in`).
    A row visits the owners of its interval, a column its senders."""
    if dst is None:
        rows = range(source.parts) if src is None else (src,)
    else:
        rows = senders[dst] if src is None else \
            (src,) if src in senders[dst] else ()
    transfers: list[Transfer] = []
    for s in rows:
        s0, s1 = source.start(s), source.end(s)
        if s0 == s1:
            continue
        for d in target.owners_in(s0, s1) if dst is None else (dst,):
            transfers.append(Transfer(s, d, *target.owned_in(d, s0, s1)))
    return transfers


def _generic(source: Distribution, target: Distribution,
             src: int | None = None,
             dst: int | None = None) -> list[Transfer]:
    """Vectorised owner arithmetic for any distribution pair: each
    sender's indices split by receiver — or, for one receiver's column,
    that receiver's indices split by sender, which yields the same
    element order (ascending global index) without visiting any other
    rank's indices.  Planning reaches it only for a non-block source;
    for a block one it is the closed form's test reference."""
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
        yield peer, sel, other.local_of_global(peer, gidx[sel])


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
