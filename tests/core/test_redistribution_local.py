"""Every plan against a brute-force oracle, and rank-local plans: a
block source's full plan, each sender's row, each receiver's column and
the sender table must be what ``global_indices`` alone says, and
block→block and block→cyclic planning must allocate nothing
proportional to the vector length."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    BlockDistribution,
    DistributionError,
    make_distribution,
)
from repro.core.redistribution import redistribute_schedule

_target_spec = st.one_of(
    st.tuples(st.just("block"), st.integers(1, 7)),
    st.tuples(st.just("cyclic"), st.integers(1, 7)),
    st.tuples(st.just("block-cyclic"), st.integers(1, 7),
              st.integers(1, 9)),
)


def _make(spec, length):
    kind, parts = spec[:2]
    bs = spec[2] if len(spec) > 2 else None
    return make_distribution(kind, parts, length, bs)


def _oracle(source, target):
    """``(src, dst, src positions, dst positions)`` for every pair that
    shares an index, in the plan's order — from ``global_indices``
    alone: the shared indices ascending, located on each side."""
    out = []
    for s in range(source.parts):
        mine = source.global_indices(s)
        for d in range(target.parts):
            theirs = target.global_indices(d)
            g = np.intersect1d(mine, theirs)
            if len(g):
                out.append((s, d, np.searchsorted(mine, g),
                            np.searchsorted(theirs, g)))
    return out


def _assert_is_oracle(transfers, want, source, target):
    assert [(t.src, t.dst) for t in transfers] == \
        [(s, d) for s, d, _, _ in want]
    for t, (s, d, src_pos, dst_pos) in zip(transfers, want):
        assert t.size == len(src_pos)
        assert np.array_equal(
            np.arange(source.local_size(s))[t.src_index], src_pos)
        assert np.array_equal(
            np.arange(target.local_size(d))[t.dst_index], dst_pos)
        # the receiver side is one run; the sender side an index array
        # only for a block-cyclic target, and never a single run there
        assert isinstance(t.dst_index, slice) and t.dst_index.step is None
        if isinstance(t.src_index, slice):
            assert t.src_index.step in (None, target.parts)
        else:
            assert target.kind == "block-cyclic"
            assert np.any(np.diff(t.src_index) != 1)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 7), _target_spec, st.integers(0, 300))
@example(7, ("cyclic", 5), 3)              # length < parts on both sides
@example(3, ("block", 7), 5)               # empty target parts
@example(4, ("block-cyclic", 3, 4), 29)    # short final block
@example(2, ("block-cyclic", 3, 9), 7)     # block_size > length
@example(5, ("block-cyclic", 2, 1), 41)    # runs of one element
@example(1, ("cyclic", 1), 17)             # one part each: one run
def test_row_column_and_senders_equal_the_full_plan(n, dst_spec, length):
    """A block source to every target kind: the full plan, each row,
    each column, each single pair and the sender table are the
    oracle's — the same transfers, order and element order."""
    source, target = BlockDistribution(n, length), _make(dst_spec, length)
    want = _oracle(source, target)
    senders = {d: tuple(s for s, dd, _, _ in want if dd == d)
               for d in range(target.parts)}
    full = redistribute_schedule(source, target)
    _assert_is_oracle(full.transfers, want, source, target)
    assert full.senders == senders

    for r in range(n):
        row = redistribute_schedule(source, target, src=r)
        _assert_is_oracle(row.transfers, [w for w in want if w[0] == r],
                          source, target)
        assert row.senders == senders
    for r in range(target.parts):
        col = redistribute_schedule(source, target, dst=r)
        _assert_is_oracle(col.transfers, [w for w in want if w[1] == r],
                          source, target)
        assert col.senders == senders
        for s in range(n):
            one = redistribute_schedule(source, target, src=s, dst=r)
            _assert_is_oracle(one.transfers, [w for w in want
                                              if w[:2] == (s, r)],
                              source, target)

    # O(1) lookup finds each transfer, and misses read None
    for t in full.transfers:
        assert full.transfer(t.src, t.dst) is t
    assert full.transfer(n, 0) is None


def test_restriction_is_keyword_only_and_validated():
    source, target = BlockDistribution(2, 10), BlockDistribution(3, 10)
    with pytest.raises(TypeError):
        redistribute_schedule(source, target, 0)
    with pytest.raises(DistributionError):
        redistribute_schedule(source, target, src=2)
    with pytest.raises(DistributionError):
        redistribute_schedule(source, make_distribution("cyclic", 3, 10),
                              dst=3)


def test_block_block_plan_allocates_nothing_proportional_to_length():
    """No clock needed: a 10^9-element 8→8 plan, built and queried the
    way both GridCCM layers do, stays under 64 KiB of traced memory (one
    int64 index vector of a single transfer would be 1 GB)."""
    length = 10 ** 9
    tracemalloc.start()
    try:
        source = BlockDistribution(8, length + 3)
        target = BlockDistribution(8, length + 3)
        plans = [redistribute_schedule(source, target)]
        plans += [redistribute_schedule(source, target, src=r)
                  for r in range(8)]
        plans += [redistribute_schedule(source, target, dst=r)
                  for r in range(8)]
        moved = 0
        for plan in plans:
            for t in plan.transfers:
                assert plan.transfer(t.src, t.dst) is t
                assert isinstance(t.src_index, slice)
                assert t.src_index.stop - t.src_index.start == t.size
                moved += t.size
            assert plan.senders[7] == (7,)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moved == 3 * (length + 3)
    assert peak < 64 * 1024


def test_uneven_block_block_column_matches_full_plan_at_scale():
    """3→7 over a length no test materialises: the column's slices are
    the full plan's (both closed-form, computed by different loops)."""
    source = BlockDistribution(3, 10 ** 12 + 5)
    target = BlockDistribution(7, 10 ** 12 + 5)
    full = redistribute_schedule(source, target)
    for r in range(7):
        col = redistribute_schedule(source, target, dst=r).transfers
        want = [t for t in full.transfers if t.dst == r]
        assert [(t.src, t.dst, t.src_index, t.dst_index) for t in col] == \
            [(t.src, t.dst, t.src_index, t.dst_index) for t in want]


def test_generic_transfers_store_slices_where_unit_stride():
    """Block → cyclic: each receiver's side is a contiguous run of its
    local array and the sender's side every 4th element of its own —
    both slices, found by arithmetic, the sender's stepped."""
    source = BlockDistribution(2, 40)
    target = make_distribution("cyclic", 4, 40)
    for t in redistribute_schedule(source, target, src=1).transfers:
        assert isinstance(t.dst_index, slice)
        assert isinstance(t.src_index, slice) and t.src_index.step == 4
        assert t.size == len(range(40)[t.src_index]) == \
            len(range(40)[t.dst_index]) == 5


def test_block_to_cyclic_plan_allocates_nothing_proportional_to_length():
    """8→8 block→cyclic over 10^7 elements: each rank's row and column,
    built and queried alone the way the GridCCM layers do, stays under
    64 KiB of traced memory (one int64 index vector of a single piece
    would be 10 MB), and nobody materialises an index array."""
    length = 10 ** 7
    source = BlockDistribution(8, length + 3)
    target = make_distribution("cyclic", 8, length + 3)
    moved = 0
    for side in ("src", "dst"):
        for r in range(8):
            tracemalloc.start()
            try:
                plan = redistribute_schedule(source, target, **{side: r})
                for t in plan.transfers:
                    assert plan.transfer(t.src, t.dst) is t
                    moved += t.size
                indices = [(t.src_index, t.dst_index)
                           for t in plan.transfers]
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024
            assert all(isinstance(idx, slice)
                       for pair in indices for idx in pair)
            assert plan.senders[7] == tuple(range(8))
    assert moved == 2 * (length + 3)
