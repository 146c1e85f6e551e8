"""Redistribution planning: who sends which indices to whom.

Given a source distribution over N client nodes and a target
distribution over M server nodes of the same global index space, a plan
lists the required :class:`Transfer` objects.  The plan depends only on
the two distributions, so every node computes its own share with no
coordination — the paper's "all processes of a parallel component
participate to inter-component communications, to avoid bottlenecks":
a sending rank asks for its *row* (``src=rank``: what it sends), a
receiving rank for its *column* (``dst=rank``: what it receives).

The source is always a block distribution — every GridCCM client's
arguments are canonical blocks, and the runtime refuses a chunk that is
not — and is planned in closed form whatever the target: each source
part is one interval, and the target kind says where each of its parts'
indices fall in it (``Distribution.owned_in``).  The receiver side of
every such piece is one slice of the receiver's local array; the sender
side is a slice for a block target, a stepped slice ``slice(a, b,
parts)`` for a cyclic one, and for a block-cyclic one an index array of
``block_size``-long runs built by arithmetic.  A row or column thus
costs O(ranks) for block and cyclic targets and O(piece length) with no
sort for block-cyclic ones.  Who sends to whom at all
(:attr:`RedistributionPlan.senders`, which a client needs for every
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

import numpy as np

from repro.core.distribution import (
    BlockDistribution,
    Distribution,
    DistributionError,
)


@dataclass(frozen=True, eq=False)
class Transfer:
    """One message of a redistribution.

    ``src_index``/``dst_index`` select the moved elements in the source
    part's and target part's local arrays, ``size`` of each, in the
    same order, and index a local array directly.  The receiver side is
    always one unit-stride slice; the sender side is one too for a
    block target, a stepped ``slice(a, b, parts)`` for a cyclic one,
    and an index array of ``block_size``-long runs for a block-cyclic
    one (a slice when the piece is a single run).
    """

    src: int
    dst: int
    src_index: slice | np.ndarray
    dst_index: slice

    @property
    def size(self) -> int:
        idx = self.dst_index
        return idx.stop - idx.start


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


def redistribute_schedule(source: Distribution, target: Distribution, *,
                          src: int | None = None,
                          dst: int | None = None) -> RedistributionPlan:
    """Compute the transfer schedule from the block ``source`` to
    ``target``; any other source kind raises :class:`DistributionError`.

    ``src=`` / ``dst=`` keep only that sender's / receiver's transfers —
    the same objects, in the same order, as filtering the full plan —
    and compute nothing for any other rank."""
    if not isinstance(source, BlockDistribution):
        raise DistributionError(
            f"a redistribution source must be block, not {source.kind}")
    if source.length != target.length:
        raise DistributionError(
            f"length mismatch: {source.length} != {target.length}")
    if src is not None:
        source._check_part(src)
    if dst is not None:
        target._check_part(dst)
    senders = _senders(source, target)
    return RedistributionPlan(
        source, target, _from_block(source, target, senders, src, dst),
        senders)


def _from_block(source: BlockDistribution, target: Distribution,
                senders: dict[int, tuple[int, ...]], src: int | None,
                dst: int | None) -> list[Transfer]:
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


def _senders(source: BlockDistribution,
             target: Distribution) -> dict[int, tuple[int, ...]]:
    """Which source ranks send anything to each target rank: a block
    source is a list of intervals, and every target kind knows which of
    its parts an interval touches."""
    table: list[list[int]] = [[] for _ in range(target.parts)]
    for s in range(source.parts):
        if source.local_size(s):
            for d in target.owners_in(source.start(s), source.end(s)):
                table[d].append(s)
    return {d: tuple(srcs) for d, srcs in enumerate(table)}
