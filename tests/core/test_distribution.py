"""Property-based and directed tests for 1D distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    BlockCyclicDistribution,
    BlockDistribution,
    CyclicDistribution,
    DistributionError,
    make_distribution,
)

DISTS = st.one_of(
    st.tuples(st.just("block"), st.integers(1, 8), st.integers(0, 200)),
    st.tuples(st.just("cyclic"), st.integers(1, 8), st.integers(0, 200)),
    st.tuples(st.just("block-cyclic"), st.integers(1, 8),
              st.integers(0, 200), st.integers(1, 9)),
)


def _make(spec):
    kind, parts, length = spec[:3]
    bs = spec[3] if len(spec) > 3 else None
    return make_distribution(kind, parts, length, bs)


@settings(max_examples=200, deadline=None)
@given(DISTS)
def test_partition_property(spec):
    """Every global index is owned by exactly one part, and each part's
    sorted indices number its local size."""
    dist = _make(spec)
    seen = np.full(dist.length, -1, dtype=np.int64)
    total = 0
    for part in range(dist.parts):
        gidx = dist.global_indices(part)
        assert dist.local_size(part) == len(gidx)
        total += len(gidx)
        assert np.all(np.diff(gidx) > 0)  # sorted, unique
        assert np.all(seen[gidx] == -1)   # no other part owns them
        seen[gidx] = part
    assert total == dist.length
    assert np.all(seen >= 0)


def test_block_sizes_balanced():
    d = BlockDistribution(3, 10)
    assert [d.local_size(p) for p in range(3)] == [4, 3, 3]
    assert d.start(0) == 0 and d.end(0) == 4
    assert d.start(2) == 7 and d.end(2) == 10


def test_block_owner_scalar_and_array():
    """The owners of one index, and of an index range."""
    d = BlockDistribution(2, 10)
    assert d.owners_in(0, 1) == [0]
    assert d.owners_in(5, 6) == [1]
    assert d.owners_in(0, 5) == [0]
    assert d.owners_in(4, 10) == [0, 1]


def test_cyclic_round_robin():
    d = CyclicDistribution(3, 7)
    assert np.array_equal(d.global_indices(0), [0, 3, 6])
    assert np.array_equal(d.global_indices(2), [2, 5])
    assert d.owners_in(4, 5) == [1]
    assert d.local_size(0) == 3
    assert d.local_size(1) == 2


def test_block_cyclic():
    d = BlockCyclicDistribution(2, 10, block_size=2)
    # blocks: [0,1]->0 [2,3]->1 [4,5]->0 [6,7]->1 [8,9]->0
    assert np.array_equal(d.global_indices(0), [0, 1, 4, 5, 8, 9])
    assert d.owners_in(3, 4) == [1]
    # part 0's share of [0, 10): offsets 0 1 4 5 8 9, its whole array
    offsets, local = d.owned_in(0, 0, 10)
    assert offsets.tolist() == [0, 1, 4, 5, 8, 9]
    assert local == slice(0, 6)


def test_validation():
    with pytest.raises(DistributionError):
        BlockDistribution(0, 10)
    with pytest.raises(DistributionError):
        BlockDistribution(2, -1)
    with pytest.raises(DistributionError):
        BlockCyclicDistribution(2, 10, 0)
    with pytest.raises(DistributionError):
        CyclicDistribution(2, 10).local_size(2)
    with pytest.raises(DistributionError):
        BlockDistribution(2, 10).global_indices(2)
    with pytest.raises(DistributionError):
        make_distribution("block-cyclic", 2, 10)
    with pytest.raises(DistributionError):
        make_distribution("weird", 2, 10)


def test_equality():
    assert BlockDistribution(2, 10) == BlockDistribution(2, 10)
    assert BlockDistribution(2, 10) != BlockDistribution(3, 10)
    assert BlockDistribution(2, 10) != CyclicDistribution(2, 10)


def test_equality_and_hash_survive_every_method_call():
    """Equality and hashing read the defining fields only: exercising
    one of two equal distributions (anything it caches included) must
    not tell them apart.  Fails at the parent for any cached attribute,
    because ``__eq__``/``__hash__`` compared ``__dict__``."""
    for make in (lambda: BlockDistribution(3, 10),
                 lambda: CyclicDistribution(3, 10),
                 lambda: BlockCyclicDistribution(3, 10, 2)):
        used, fresh = make(), make()
        for part in range(3):
            used.global_indices(part)
            used.local_size(part)
        for part in used.owners_in(2, 9):
            used.owned_in(part, 2, 9)
        if isinstance(used, BlockDistribution):
            used.start(1), used.end(1)
        used.scratch = np.arange(4)  # what a cached attribute looks like
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert len({used, fresh}) == 1
    assert BlockCyclicDistribution(3, 10, 2) != \
        BlockCyclicDistribution(3, 10, 5)


# ---------------------------------------------------------------------------
# brute force: a pure-Python definition that shares no code with the
# closed forms (the e2e benchmark's oracle trusts ``global_indices``)
# ---------------------------------------------------------------------------

def _owner_by_definition(kind, parts, length, block_size, g):
    if kind == "block":  # HPF BLOCK: the first length % parts get one more
        bounds, at = [], 0
        for p in range(parts):
            at += length // parts + (1 if p < length % parts else 0)
            bounds.append(at)
        return next(p for p in range(parts) if g < bounds[p])
    if kind == "cyclic":
        return g % parts
    return (g // block_size) % parts


def _check_against_definition(kind, parts, length, block_size):
    dist = make_distribution(kind, parts, length, block_size)
    owners = [_owner_by_definition(kind, parts, length, block_size, g)
              for g in range(length)]
    position = {}  # global index -> its place in its owner's local array
    for part in range(parts):
        mine = [g for g in range(length) if owners[g] == part]
        gidx = dist.global_indices(part)
        assert gidx.dtype == np.int64 and gidx.tolist() == mine
        assert dist.local_size(part) == len(mine)
        position.update((g, k) for k, g in enumerate(mine))
    # interval ownership: the redistribution plans rest on it alone
    for lo, hi in ((0, length), (length // 3, length // 3 + parts - 1),
                   (length // 2, length // 2 + 1),
                   (length // 4, length - length // 4)):
        if 0 <= lo < hi <= length:
            assert dist.owners_in(lo, hi) == sorted(set(owners[lo:hi]))
            for part in dist.owners_in(lo, hi):
                want = [g for g in range(lo, hi) if owners[g] == part]
                offsets, local = dist.owned_in(part, lo, hi)
                assert np.arange(hi - lo)[offsets].tolist() == \
                    [g - lo for g in want]
                assert np.arange(owners.count(part))[local].tolist() == \
                    [position[g] for g in want]


@pytest.mark.parametrize("parts", range(1, 8))
def test_distributions_match_brute_force_definition(parts):
    for length in range(201):
        _check_against_definition("block", parts, length, None)
        _check_against_definition("cyclic", parts, length, None)
        for block_size in range(1, 10):
            _check_against_definition("block-cyclic", parts, length,
                                      block_size)
