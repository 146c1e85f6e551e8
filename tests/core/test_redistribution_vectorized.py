"""The argsort-based ``_generic`` must equal the old masking pass.

The old implementation rescanned all ``n`` source indices once per
distinct destination owner (``owners == dst`` per destination); the new
one does a single stable argsort and cuts the runs.  The reference
implementation below is the pre-optimisation code, kept verbatim so the
equivalence is pinned against the real thing, not a paraphrase.

``_generic`` is in turn the reference for the closed form that plans
every block source (``_from_block``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distribution import (
    BlockDistribution,
    Distribution,
    make_distribution,
)
from repro.core.redistribution import (
    Transfer,
    _as_slice,
    _from_block,
    _generic,
    _senders,
)


def _generic_reference(source: Distribution,
                       target: Distribution) -> list[Transfer]:
    """The old per-destination masking implementation (pre-argsort)."""
    transfers: list[Transfer] = []
    for src in range(source.parts):
        gidx = source.global_indices(src)
        if len(gidx) == 0:
            continue
        owners = target.owner(gidx)
        src_local = source.local_of_global(src, gidx)
        for dst in np.unique(owners):
            mask = owners == dst
            g_sub = gidx[mask]
            transfers.append(Transfer(
                src, int(dst),
                src_local[mask],
                target.local_of_global(int(dst), g_sub)))
    return transfers


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


@settings(max_examples=300, deadline=None)
@given(_dist_spec, _dist_spec, st.integers(0, 200))
def test_generic_equals_reference(src_spec, dst_spec, length):
    """Same transfers, same order, same index arrays — exactly."""
    source = _make(src_spec, length)
    target = _make(dst_spec, length)
    new = _generic(source, target)
    old = _generic_reference(source, target)
    assert len(new) == len(old)
    for t_new, t_old in zip(new, old):
        assert t_new.src == t_old.src
        assert t_new.dst == t_old.dst
        assert np.array_equal(t_new.src_local, t_old.src_local)
        assert np.array_equal(t_new.dst_local, t_old.dst_local)


def _same_index(new, old, stepped_ok: bool) -> bool:
    """The same elements in the same order, in the same representation
    — save that ``stepped_ok`` lets a stepped slice stand for ``old``'s
    index array."""
    if isinstance(old, slice):
        return new == old
    if isinstance(new, slice):
        return stepped_ok and (new.step or 1) > 1 and np.array_equal(
            np.arange(new.start, new.stop, new.step), old)
    return np.array_equal(new, old)


def _assert_same_plan(new: list[Transfer], old: list[Transfer],
                      cyclic: bool) -> None:
    assert [(t.src, t.dst, t.size) for t in new] == \
        [(t.src, t.dst, t.size) for t in old]
    for t_new, t_old in zip(new, old):
        assert _same_index(t_new.src_index, t_old.src_index, cyclic)
        assert _same_index(t_new.dst_index, t_old.dst_index, False)


_target_spec = st.one_of(
    st.tuples(st.just("block"), st.integers(1, 7)),
    st.tuples(st.just("cyclic"), st.integers(1, 7)),
    st.tuples(st.just("block-cyclic"), st.integers(1, 7),
              st.integers(1, 9)),
)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 7), _target_spec, st.integers(0, 300))
@example(7, ("cyclic", 5), 3)              # length < parts on both sides
@example(3, ("block", 7), 5)               # empty target parts
@example(4, ("block-cyclic", 3, 4), 29)    # short final block
@example(2, ("block-cyclic", 3, 9), 7)     # block_size > length
@example(5, ("block-cyclic", 2, 1), 41)    # runs of one element
@example(1, ("cyclic", 1), 17)             # one part each: one run
def test_block_source_closed_form_equals_generic(n, dst_spec, length):
    """Every block-source plan — full, each row, each column — is
    ``_generic``'s: the same transfers, order and element order, and
    the same slices and arrays but for a cyclic target's sender side."""
    source = BlockDistribution(n, length)
    target = _make(dst_spec, length)
    senders = _senders(source, target)
    cyclic = target.kind == "cyclic"
    _assert_same_plan(_from_block(source, target, senders),
                      _generic(source, target), cyclic)
    for r in range(n):
        _assert_same_plan(_from_block(source, target, senders, src=r),
                          _generic(source, target, src=r), cyclic)
    for r in range(target.parts):
        _assert_same_plan(_from_block(source, target, senders, dst=r),
                          _generic(source, target, dst=r), cyclic)


# ---------------------------------------------------------------------------
# slice detection on Transfer (a unit-stride index array is stored as a slice)
# ---------------------------------------------------------------------------

def test_as_slice_unit_stride():
    assert _as_slice(np.arange(3, 9)) == slice(3, 9)
    assert _as_slice(np.array([5])) == slice(5, 6)
    assert _as_slice(np.array([2, 3])) == slice(2, 4)
    assert _as_slice(np.array([], dtype=np.int64)) == slice(0, 0)


def test_as_slice_rejects_non_contiguous():
    assert _as_slice(np.array([0, 2, 4])) is None        # stride 2
    assert _as_slice(np.array([5, 4, 3])) is None        # descending
    assert _as_slice(np.array([0, 2, 2])) is None        # same span, dupes
    assert _as_slice(np.array([1, 3, 2, 4])) is None     # permuted


def test_as_slice_accepts_python_lists():
    assert _as_slice([4, 5, 6]) == slice(4, 7)
    assert _as_slice([4, 6, 5]) is None


def test_transfer_slices_cached():
    t = Transfer(0, 1, np.arange(10), np.array([0, 2, 4, 6, 8, 1, 3, 5,
                                                7, 9]))
    assert t.src_slice == slice(0, 10)
    assert t.dst_slice is None
    # cached_property: same object on re-access
    assert t.src_slice is t.src_slice


def test_block_block_transfers_are_sliceable():
    source = make_distribution("block", 3, 100, None)
    target = make_distribution("block", 4, 100, None)
    from repro.core.redistribution import redistribute_schedule
    plan = redistribute_schedule(source, target)
    assert plan.transfers
    for t in plan.transfers:
        assert t.src_slice is not None
        assert t.dst_slice is not None


def test_cyclic_transfers_are_not_sliceable():
    source = make_distribution("cyclic", 2, 40, None)
    target = make_distribution("block", 2, 40, None)
    from repro.core.redistribution import redistribute_schedule
    plan = redistribute_schedule(source, target)
    # cyclic part 0 owns every even global index: its local indices are
    # contiguous but the block-side placement is strided
    assert any(t.dst_slice is None for t in plan.transfers)
