"""Scatterv/Gatherv and blocking probe."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.mpi import ANY_SOURCE, ANY_TAG, SUM, MpiError, Status

from tests.mpi.conftest import run_spmd


def test_scatterv_uneven_counts(runtime):
    counts = [5, 3, 2]

    def body(proc, comm):
        recv = np.zeros(counts[comm.rank])
        if comm.rank == 0:
            send = np.arange(10.0)
            comm.Scatterv(send, counts, recv, root=0)
        else:
            comm.Scatterv(None, None, recv, root=0)
        return recv

    results = run_spmd(runtime, 3, body)
    assert np.array_equal(results[0], [0, 1, 2, 3, 4])
    assert np.array_equal(results[1], [5, 6, 7])
    assert np.array_equal(results[2], [8, 9])


def test_gatherv_reassembles(runtime):
    counts = [1, 4, 2]

    def body(proc, comm):
        send = np.full(counts[comm.rank], float(comm.rank))
        if comm.rank == 0:
            recv = np.zeros(7)
            comm.Gatherv(send, recv, counts, root=0)
            return recv
        comm.Gatherv(send, None, None, root=0)
        return None

    results = run_spmd(runtime, 3, body)
    assert np.array_equal(results[0], [0, 1, 1, 1, 1, 2, 2])


def test_scatterv_gatherv_roundtrip(runtime):
    """scatterv then gatherv with the same counts is the identity."""
    counts = [3, 0, 5]  # a rank may get nothing

    def body(proc, comm):
        recv = np.zeros(counts[comm.rank])
        if comm.rank == 0:
            data = np.arange(8.0) * 1.5
            comm.Scatterv(data, counts, recv, root=0)
            back = np.zeros(8)
            comm.Gatherv(recv, back, counts, root=0)
            return (data, back)
        comm.Scatterv(None, None, recv, root=0)
        comm.Gatherv(recv, None, None, root=0)
        return None

    results = run_spmd(runtime, 3, body)
    data, back = results[0]
    assert np.array_equal(data, back)


def test_scatterv_validation(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            with pytest.raises(MpiError):
                comm.Scatterv(np.zeros(4), [1, 2], np.zeros(1))  # sum≠size
            with pytest.raises(MpiError):
                comm.Scatterv(None, None, np.zeros(1))  # root needs buf
        return True

    assert run_spmd(runtime, 2, body) == [True, True]


def test_probe_blocks_until_message(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            st = Status()
            t0 = comm.Wtime()
            comm.probe(source=ANY_SOURCE, tag=ANY_TAG, status=st)
            waited = comm.Wtime() - t0
            # probed but not consumed: the receive still sees it
            obj = comm.recv(source=st.Get_source(), tag=st.Get_tag())
            return (waited, st.Get_source(), st.Get_tag(), obj)
        proc.sleep(0.005)
        comm.send("late delivery", dest=0, tag=42)
        return None

    results = run_spmd(runtime, 2, body)
    waited, src, tag, obj = results[0]
    assert waited >= 0.005
    assert (src, tag, obj) == (1, 42, "late delivery")


def test_probe_is_selective(runtime):
    def body(proc, comm):
        if comm.rank == 0:
            comm.probe(source=1, tag=7)  # must skip the tag-5 message
            first = comm.recv(source=1, tag=5)
            second = comm.recv(source=1, tag=7)
            return (first, second)
        comm.send("five", dest=0, tag=5)
        comm.send("seven", dest=0, tag=7)
        return None

    results = run_spmd(runtime, 2, body)
    assert results[0] == ("five", "seven")


def test_buffer_collectives_raise_mpi_error_on_a_mismatched_buffer(runtime):
    """Every receiving side of a buffer collective checks its buffer
    (the other ranks complete; nothing raises numpy's ValueError)."""
    def mismatch(here):
        return pytest.raises(MpiError) if here else nullcontext()

    def body(proc, comm):
        root, other = comm.rank == 0, comm.rank == 1
        with mismatch(other):
            comm.Bcast(np.zeros(4 if root else 3), root=0)
        with mismatch(other):
            comm.Scatterv(np.arange(4.0) if root else None,
                          [2, 2] if root else None,
                          np.zeros(2 if root else 3), root=0)
        with mismatch(root):
            comm.Gatherv(np.ones(1 if root else 3),
                         np.zeros(3) if root else None,
                         [1, 2] if root else None, root=0)
        with mismatch(root):
            comm.Reduce(np.ones(4), np.zeros(3) if root else None, SUM)
        with mismatch(other):
            comm.Allreduce(np.ones(4), np.zeros(4 if root else 5), SUM)
        return True

    assert run_spmd(runtime, 2, body) == [True, True]
