"""Rank-local, slice-backed plans: a sender's row and a receiver's
column must be the full plan's transfers, and block→block planning must
allocate nothing proportional to the vector length."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    BlockDistribution,
    DistributionError,
    make_distribution,
)
from repro.core.redistribution import redistribute_schedule

_dist_spec = st.one_of(
    st.tuples(st.just("block"), st.integers(1, 6)),
    st.tuples(st.just("cyclic"), st.integers(1, 6)),
    st.tuples(st.just("block-cyclic"), st.integers(1, 6),
              st.integers(1, 7)),
)


def _make(spec, length):
    kind, parts = spec[:2]
    bs = spec[2] if len(spec) > 2 else None
    return make_distribution(kind, parts, length, bs)


def _assert_same_transfers(got, want):
    assert [(t.src, t.dst) for t in got] == [(t.src, t.dst) for t in want]
    for t_got, t_want in zip(got, want):
        assert t_got.size == t_want.size
        assert np.array_equal(t_got.src_local, t_want.src_local)
        assert np.array_equal(t_got.dst_local, t_want.dst_local)
        assert t_got.src_slice == t_want.src_slice
        assert t_got.dst_slice == t_want.dst_slice


@settings(max_examples=300, deadline=None)
@given(_dist_spec, _dist_spec, st.integers(0, 150))
def test_row_column_and_senders_equal_the_full_plan(src_spec, dst_spec,
                                                    length):
    source, target = _make(src_spec, length), _make(dst_spec, length)
    full = redistribute_schedule(source, target)
    senders = {d: tuple(sorted({t.src for t in full.incoming(d)}))
               for d in range(target.parts)}
    assert full.senders == senders

    for r in range(source.parts):
        row = redistribute_schedule(source, target, src=r)
        _assert_same_transfers(row.transfers, full.outgoing(r))
        assert row.senders == senders
    for r in range(target.parts):
        col = redistribute_schedule(source, target, dst=r)
        _assert_same_transfers(col.transfers, full.incoming(r))
        assert col.senders == senders
        for s in range(source.parts):
            one = redistribute_schedule(source, target, src=s, dst=r)
            _assert_same_transfers(
                one.transfers, [t for t in full.incoming(r) if t.src == s])

    # O(1) lookup agrees with the scans, and misses read None
    for t in full.transfers:
        assert full.transfer(t.src, t.dst) is t
    assert full.transfer(source.parts, 0) is None
    assert len({(t.src, t.dst) for t in full.transfers}) == \
        len(full.transfers)

    # the rows together still move every element exactly once
    data = np.arange(length, dtype="f8") * 1.5 + 3.0
    out = full.apply([data[source.global_indices(p)]
                      for p in range(source.parts)])
    for p in range(target.parts):
        assert np.array_equal(out[p], data[target.global_indices(p)])


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
                assert t.src_slice is not None and t.dst_slice is not None
                assert t.src_slice.stop - t.src_slice.start == t.size
                moved += t.size
            assert plan.senders[7] == (7,)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moved == 3 * (length + 3)
    assert peak < 64 * 1024
    for plan in plans:
        for t in plan.transfers:
            assert "src_local" not in vars(t) and "dst_local" not in vars(t)


def test_uneven_block_block_column_matches_full_plan_at_scale():
    """3→7 over a length no test materialises: the column's slices are
    the full plan's (both closed-form, computed by different loops)."""
    source = BlockDistribution(3, 10 ** 12 + 5)
    target = BlockDistribution(7, 10 ** 12 + 5)
    full = redistribute_schedule(source, target)
    for r in range(7):
        col = redistribute_schedule(source, target, dst=r).transfers
        want = full.incoming(r)
        assert [(t.src, t.dst, t.src_slice, t.dst_slice) for t in col] == \
            [(t.src, t.dst, t.src_slice, t.dst_slice) for t in want]


def test_generic_transfers_store_slices_where_unit_stride():
    """Block → cyclic: each receiver's side is a contiguous run of its
    local array and the sender's side every 4th element of its own —
    both slices, found by arithmetic, the sender's stepped."""
    source = BlockDistribution(2, 40)
    target = make_distribution("cyclic", 4, 40)
    for t in redistribute_schedule(source, target, src=1).transfers:
        assert isinstance(t.dst_index, slice)
        assert isinstance(t.src_index, slice) and t.src_index.step == 4
        assert t.dst_slice == t.dst_index and t.src_slice == t.src_index
        assert t.size == len(t.src_local) == len(t.dst_local) == 5


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
                slices = [(t.src_slice, t.dst_slice) for t in plan.transfers]
                _now, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024
            assert all(sl is not None for pair in slices for sl in pair)
            assert plan.senders[7] == tuple(range(8))
            for t in plan.transfers:
                assert "src_local" not in vars(t)
                assert "dst_local" not in vars(t)
    assert moved == 2 * (length + 3)
