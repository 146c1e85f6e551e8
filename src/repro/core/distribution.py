"""1D data distributions (block, cyclic, block-cyclic).

A distribution maps the ``length`` global indices of a 1D array onto
``parts`` owners.  GridCCM's current model distributes IDL sequences —
1D arrays — exactly as the paper describes ("one dimension distribution
can automatically be applied"); multidimensional arrays map to nested
sequences whose outer dimension is distributed.

Redistribution planning (:mod:`repro.core.redistribution`) asks a
distribution two things, both answered by interval arithmetic without an
index array: which parts own some index of an interval (``owners_in``)
and where those indices sit on both sides (``owned_in``).
``global_indices`` spells a part's share out in full, for checks and
oracles.
"""

from __future__ import annotations

import numpy as np


class DistributionError(ValueError):
    """Invalid distribution parameters or indices."""


class Distribution:
    """Base class: a partition of ``range(length)`` into ``parts``.
    Each kind also counts a part's indices, ``local_size(part)``, in
    closed form."""

    kind = "abstract"

    def __init__(self, parts: int, length: int):
        if parts < 1:
            raise DistributionError(f"parts must be >= 1, got {parts}")
        if length < 0:
            raise DistributionError(f"length must be >= 0, got {length}")
        self.parts = parts
        self.length = length

    # -- interface --------------------------------------------------------
    def global_indices(self, part: int) -> np.ndarray:
        """Sorted global indices owned by ``part``."""
        raise NotImplementedError

    def owners_in(self, lo: int, hi: int) -> list[int]:
        """Sorted parts owning some index of the non-empty interval
        ``[lo, hi)`` — by interval arithmetic, without an index array."""
        raise NotImplementedError

    def owned_in(self, part: int, lo: int,
                 hi: int) -> tuple[slice | np.ndarray, slice]:
        """Where the indices of ``[lo, hi)`` that ``part`` owns sit —
        ``part`` being one of :meth:`owners_in` ``(lo, hi)``: as
        ascending offsets from ``lo`` (a slice for a block or cyclic
        distribution, an index array of runs for a block-cyclic one
        unless they form one run) and as positions in ``part``'s local
        array, which they always fill contiguously.  By arithmetic,
        without visiting the interval."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------
    def _check_part(self, part: int) -> None:
        if not 0 <= part < self.parts:
            raise DistributionError(
                f"part {part} out of range (parts={self.parts})")

    def _key(self) -> tuple:
        """The defining fields: equality and hashing see nothing else."""
        return (type(self), self.parts, self.length)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Distribution) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} parts={self.parts} "
                f"length={self.length}>")


class BlockDistribution(Distribution):
    """Contiguous blocks; the first ``length % parts`` blocks get one
    extra element (standard HPF BLOCK)."""

    kind = "block"

    def __init__(self, parts: int, length: int):
        super().__init__(parts, length)
        base, extra = divmod(length, parts)
        p = np.arange(parts + 1, dtype=np.int64)
        #: part p owns [_bounds[p], _bounds[p + 1])
        self._bounds = p * base + np.minimum(p, extra)

    def start(self, part: int) -> int:
        self._check_part(part)
        return int(self._bounds[part])

    def end(self, part: int) -> int:
        self._check_part(part)
        return int(self._bounds[part + 1])

    def global_indices(self, part: int) -> np.ndarray:
        return np.arange(self.start(part), self.end(part), dtype=np.int64)

    def local_size(self, part: int) -> int:
        return self.end(part) - self.start(part)

    def owners_in(self, lo: int, hi: int) -> list[int]:
        first, last = np.searchsorted(self._bounds, (lo, hi - 1),
                                      side="right") - 1
        return list(range(first, last + 1))

    def owned_in(self, part, lo, hi):
        t0, t1 = self.start(part), self.end(part)
        a, b = max(lo, t0), min(hi, t1)
        return slice(a - lo, b - lo), slice(a - t0, b - t0)


class CyclicDistribution(Distribution):
    """Round-robin element distribution (HPF CYCLIC)."""

    kind = "cyclic"

    def global_indices(self, part: int) -> np.ndarray:
        self._check_part(part)
        return np.arange(part, self.length, self.parts, dtype=np.int64)

    def local_size(self, part: int) -> int:
        self._check_part(part)
        if part >= self.length:
            return 0
        return int((self.length - part - 1) // self.parts + 1)

    def owners_in(self, lo: int, hi: int) -> list[int]:
        return _residues(lo, hi - 1, self.parts)

    def owned_in(self, part, lo, hi):
        p = self.parts
        first = lo + (part - lo) % p
        n = (hi - 1 - first) // p + 1
        a, k = first - lo, (first - part) // p
        # every p-th offset: a stepped slice, unit-stride when it can be
        mine = slice(a, a + (n - 1) * p + 1, p) if n > 1 and p > 1 \
            else slice(a, a + n)
        return mine, slice(k, k + n)


class BlockCyclicDistribution(Distribution):
    """Blocks of ``block_size`` dealt round-robin (HPF CYCLIC(k))."""

    kind = "block-cyclic"

    def __init__(self, parts: int, length: int, block_size: int):
        super().__init__(parts, length)
        if block_size < 1:
            raise DistributionError(
                f"block_size must be >= 1, got {block_size}")
        self.block_size = block_size

    def _key(self) -> tuple:
        return super()._key() + (self.block_size,)

    def global_indices(self, part: int) -> np.ndarray:
        self._check_part(part)
        bs = self.block_size
        blocks = np.arange(part, -(-self.length // bs), self.parts,
                           dtype=np.int64)
        idx = (blocks[:, None] * bs + np.arange(bs, dtype=np.int64)).ravel()
        return idx[idx < self.length]  # the globally last block may be short

    def local_size(self, part: int) -> int:
        self._check_part(part)
        full, rest = divmod(self.length, self.block_size)
        mine = max(0, -(-(full - part) // self.parts))  # full blocks owned
        return mine * self.block_size + (rest if full % self.parts == part
                                         else 0)

    def owners_in(self, lo: int, hi: int) -> list[int]:
        return _residues(lo // self.block_size, (hi - 1) // self.block_size,
                         self.parts)

    def owned_in(self, part, lo, hi):
        bs, p = self.block_size, self.parts
        first, last = lo // bs, (hi - 1) // bs   # blocks [lo, hi) touches
        b0 = first + (part - first) % p          # part's first and last
        b1 = last - (last - part) % p            # blocks among them
        a, e = max(lo, b0 * bs), min(hi, (b1 + 1) * bs)
        k = b0 // p * bs + a - b0 * bs           # local position of a
        if b0 == b1 or p == 1:
            return slice(a - lo, e - lo), slice(k, k + e - a)
        # bs-long runs every p·bs offsets; only the end runs may be cut
        runs = np.arange(b0 * bs - lo, b1 * bs - lo + 1, p * bs,
                         dtype=np.int64)
        idx = (runs[:, None] + np.arange(bs, dtype=np.int64)).ravel()
        idx = idx[a - b0 * bs:len(idx) - ((b1 + 1) * bs - e)]
        return idx, slice(k, k + len(idx))


def _residues(first: int, last: int, parts: int) -> list[int]:
    """Sorted ``{b % parts for b in range(first, last + 1)}``."""
    if last - first + 1 >= parts:
        return list(range(parts))
    return sorted(b % parts for b in range(first, last + 1))


def make_distribution(kind: str, parts: int, length: int,
                      block_size: int | None = None) -> Distribution:
    """Factory used by the parallelism descriptor."""
    if kind == "block":
        return BlockDistribution(parts, length)
    if kind == "cyclic":
        return CyclicDistribution(parts, length)
    if kind == "block-cyclic":
        if block_size is None:
            raise DistributionError("block-cyclic needs a block_size")
        return BlockCyclicDistribution(parts, length, block_size)
    raise DistributionError(f"unknown distribution kind {kind!r}")
