"""Redistribution schedules: correctness from a block source to every
target kind, and the refusal of any other source."""

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


def _apply(plan, locals_in):
    """Run ``plan`` in memory: ``locals_in[p]`` is source part p's local
    array; returns the target parts' local arrays."""
    out = [np.zeros(plan.target.local_size(p))
           for p in range(plan.target.parts)]
    for t in plan.transfers:
        out[t.dst][t.dst_index] = locals_in[t.src][t.src_index]
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), _dist_spec, st.integers(0, 150))
def test_redistribution_moves_every_element_once(n, dst_spec, length):
    """Applying the schedule to the clients' blocks reproduces the exact
    target layout of the global array — the core GridCCM invariant."""
    src = BlockDistribution(n, length)
    dst = _make(dst_spec, length)
    plan = redistribute_schedule(src, dst)

    global_data = np.arange(length, dtype="f8") * 1.5 + 3.0
    locals_in = [global_data[src.global_indices(p)]
                 for p in range(src.parts)]
    locals_out = _apply(plan, locals_in)
    for p in range(dst.parts):
        assert np.array_equal(locals_out[p],
                              global_data[dst.global_indices(p)])

    # total transferred volume equals the global length
    assert sum(t.size for t in plan.transfers) == length
    # no empty transfers
    assert all(t.size > 0 for t in plan.transfers)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 200))
def test_block_block_transfer_count(n, m, length):
    """Block→block produces at most N+M-1 contiguous transfers."""
    plan = redistribute_schedule(BlockDistribution(n, length),
                                 BlockDistribution(m, length))
    assert len(plan.transfers) <= n + m - 1
    for t in plan.transfers:
        # contiguous pieces on both sides
        assert t.src_index.step is None and t.dst_index.step is None


def test_identity_redistribution_is_node_to_node():
    """Same block layout on both sides: rank i talks only to rank i —
    the Figure-8 n→n experiment's communication pattern."""
    plan = redistribute_schedule(BlockDistribution(4, 100),
                                 BlockDistribution(4, 100))
    assert len(plan.transfers) == 4
    for t in plan.transfers:
        assert t.src == t.dst


def test_scatter_gather_patterns():
    scatter = redistribute_schedule(BlockDistribution(1, 12),
                                    BlockDistribution(3, 12))
    assert [(t.src, t.dst, t.size) for t in scatter.transfers] == \
        [(0, 0, 4), (0, 1, 4), (0, 2, 4)]
    gather = redistribute_schedule(BlockDistribution(3, 12),
                                   BlockDistribution(1, 12))
    assert [(t.src, t.dst, t.size) for t in gather.transfers] == \
        [(0, 0, 4), (1, 0, 4), (2, 0, 4)]


def test_block_to_cyclic():
    plan = redistribute_schedule(BlockDistribution(2, 6),
                                 CyclicDistribution(2, 6))
    data = np.array([10.0, 11, 12, 13, 14, 15])
    out = _apply(plan, [data[:3], data[3:]])
    assert np.array_equal(out[0], [10, 12, 14])
    assert np.array_equal(out[1], [11, 13, 15])


def test_length_mismatch_rejected():
    with pytest.raises(DistributionError):
        redistribute_schedule(BlockDistribution(2, 10),
                              BlockDistribution(2, 11))


def test_incoming_outgoing_views():
    source, target = BlockDistribution(2, 10), BlockDistribution(5, 10)
    plan = redistribute_schedule(source, target)
    assert {t.dst for t in plan.outgoing(0)} == {0, 1, 2}
    column = redistribute_schedule(source, target, dst=4)
    assert [t.src for t in column.transfers] == [1]
    assert column.senders[4] == (1,)


@pytest.mark.parametrize("source", [CyclicDistribution(2, 10),
                                    BlockCyclicDistribution(2, 10, 3)],
                         ids=lambda d: d.kind)
def test_non_block_source_is_refused(source):
    """Only a block source is planned — the layout every GridCCM
    client's chunk has; any other kind is named in the refusal."""
    with pytest.raises(DistributionError, match=f"not {source.kind}$"):
        redistribute_schedule(source, BlockDistribution(3, 10))
    with pytest.raises(DistributionError, match=f"not {source.kind}$"):
        redistribute_schedule(source, CyclicDistribution(3, 10), dst=0)

