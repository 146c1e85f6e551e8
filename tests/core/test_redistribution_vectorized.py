"""How a plan's index sets are stored: a ``slice`` wherever the moved
elements form one run (or an evenly stepped set), an index array only
for the runs a block-cyclic target deals out.  Every plan's elements
are checked against the oracle in ``test_redistribution_local``; here
the closed form is also held, slice for slice, to a generic planner
that knows nothing of the target's kind but how a set is stored."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.distribution import BlockDistribution, make_distribution
from repro.core.redistribution import redistribute_schedule


def _make(spec, length):
    kind, parts = spec[:2]
    bs = spec[2] if len(spec) > 2 else None
    return make_distribution(kind, parts, length, bs)


def _stored(pos: np.ndarray, stepped_ok: bool) -> slice | np.ndarray:
    """Ascending positions as a plan stores them: one run is a slice,
    an evenly stepped set a stepped slice where ``stepped_ok``, and
    anything else the array itself."""
    a, b = int(pos[0]), int(pos[-1]) + 1
    steps = np.unique(np.diff(pos))
    if len(pos) == 1 or steps.tolist() == [1]:
        return slice(a, b)
    if stepped_ok and len(steps) == 1:
        return slice(a, b, int(steps[0]))
    return pos


def _generic(source, target) -> list[tuple[int, int, object, slice]]:
    """``(src, dst, src_index, dst_index)`` for every pair that shares
    an index, in plan order, from ``global_indices`` alone; the
    receiver's positions must be one run."""
    out = []
    for s in range(source.parts):
        mine = source.global_indices(s)
        for d in range(target.parts):
            theirs = target.global_indices(d)
            g = np.intersect1d(mine, theirs)
            if not len(g):
                continue
            dst_index = _stored(np.searchsorted(theirs, g), False)
            assert isinstance(dst_index, slice)
            out.append((s, d,
                        _stored(np.searchsorted(mine, g),
                                target.kind == "cyclic"),
                        dst_index))
    return out


def _same_index(got, want) -> bool:
    if isinstance(want, slice):
        return isinstance(got, slice) and got == want
    return isinstance(got, np.ndarray) and np.array_equal(got, want)


def _assert_same_plan(transfers, want) -> None:
    assert [(t.src, t.dst) for t in transfers] == \
        [(s, d) for s, d, _, _ in want]
    for t, (_, _, src_index, dst_index) in zip(transfers, want):
        assert _same_index(t.src_index, src_index)
        assert t.dst_index == dst_index
        assert t.size == dst_index.stop - dst_index.start


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
    """Every block-source plan — full, each row, each column — is the
    generic planner's: the same transfers, order and element order,
    and the same slices (bounds and step) and arrays."""
    source = BlockDistribution(n, length)
    target = _make(dst_spec, length)
    want = _generic(source, target)
    _assert_same_plan(redistribute_schedule(source, target).transfers, want)
    for r in range(n):
        _assert_same_plan(
            redistribute_schedule(source, target, src=r).transfers,
            [w for w in want if w[0] == r])
    for r in range(target.parts):
        _assert_same_plan(
            redistribute_schedule(source, target, dst=r).transfers,
            [w for w in want if w[1] == r])


def test_block_block_transfers_are_sliceable():
    source = make_distribution("block", 3, 100, None)
    target = make_distribution("block", 4, 100, None)
    plan = redistribute_schedule(source, target)
    assert plan.transfers
    for t in plan.transfers:
        assert isinstance(t.src_index, slice)
        assert isinstance(t.dst_index, slice)


def test_cyclic_transfers_are_not_sliceable():
    """Block → block-cyclic(3) over 2 parts: block 0 (indices 0..19)
    holds runs of 3 for part 0 every 6 indices — an index array on the
    sender side; the receiver's side is still one run of its array."""
    source = make_distribution("block", 2, 40, None)
    target = make_distribution("block-cyclic", 2, 40, 3)
    t = redistribute_schedule(source, target).transfer(0, 0)
    assert isinstance(t.src_index, np.ndarray)
    assert t.src_index.tolist() == [0, 1, 2, 6, 7, 8, 12, 13, 14, 18, 19]
    assert t.dst_index == slice(0, 11)
