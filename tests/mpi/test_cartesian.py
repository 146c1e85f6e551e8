"""Cartesian process topologies and a 2D halo-exchange stencil."""

import numpy as np
import pytest

from repro.mpi import PROC_NULL, MpiError, SUM

from tests.mpi.conftest import run_spmd


def test_coords_roundtrip(runtime):
    def body(proc, comm):
        cart = comm.Create_cart([2, 3])
        coords = cart.coords
        assert cart.Get_cart_rank(coords) == cart.rank
        return coords

    results = run_spmd(runtime, 6, body)
    assert results == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]


def test_shift_periodic_and_bounded(runtime):
    def body(proc, comm):
        cart = comm.Create_cart([4], periods=[False])
        src, dst = cart.Shift(0, 1)
        pcart = comm.Create_cart([4], periods=[True])
        psrc, pdst = pcart.Shift(0, 1)
        return (src, dst, psrc, pdst)

    results = run_spmd(runtime, 4, body)
    # non-periodic: edges have no neighbour
    assert results[0][:2] == (PROC_NULL, 1)
    assert results[3][:2] == (2, PROC_NULL)
    # periodic: wraps
    assert results[0][2:] == (3, 1)
    assert results[3][2:] == (2, 0)



def test_non_periodic_halo_exchange_ends_at_proc_null(runtime):
    """The boundary ranks of a non-periodic shift send to and receive
    from PROC_NULL, which completes at once with nothing."""
    def body(proc, comm):
        cart = comm.Create_cart([3], periods=[False])
        src, dst = cart.Shift(0, 1)
        got = cart.sendrecv(10 * cart.rank, dest=dst, source=src)
        halo = np.full(2, -1.0)
        req = cart.Isend(np.full(2, float(cart.rank)), dest=dst)
        cart.Recv(halo, source=src)
        req.wait()
        return got, halo.tolist()

    assert run_spmd(runtime, 3, body) == [
        (None, [-1.0, -1.0]), (0, [0.0, 0.0]), (10, [1.0, 1.0])]


def test_cart_validation(runtime):
    def body(proc, comm):
        with pytest.raises(MpiError):
            comm.Create_cart([5])       # 5 slots for 4 ranks
        with pytest.raises(MpiError):
            comm.Create_cart([2, 2], periods=[True])  # length mismatch
        with pytest.raises(MpiError):
            comm.Create_cart([0, 4])
        cart = comm.Create_cart([2, 2])
        with pytest.raises(MpiError):
            cart.Shift(2)
        with pytest.raises(MpiError):
            cart.Get_coords(99)
        return True

    assert all(run_spmd(runtime, 4, body))


def test_2d_jacobi_halo_exchange(runtime):
    """A 2×2 process grid smooths a field with halo exchanges through
    Shift(); the result must equal the sequential computation."""
    P, Q = 2, 2
    n = 8  # local block is (n, n); global field is (P*n, Q*n)
    rng = np.random.default_rng(3)
    global_field = rng.random((P * n, Q * n))

    def body(proc, comm):
        cart = comm.Create_cart([P, Q], periods=[True, True])
        r, c = cart.coords
        local = global_field[r * n:(r + 1) * n, c * n:(c + 1) * n].copy()

        up_src, up_dst = cart.Shift(0, 1)
        left_src, left_dst = cart.Shift(1, 1)
        # exchange row halos (axis 0) and column halos (axis 1)
        top_halo = comm.sendrecv(local[-1].copy(), dest=up_dst,
                                 source=up_src)
        bottom_halo = comm.sendrecv(local[0].copy(), dest=up_src,
                                    source=up_dst)
        right_halo = comm.sendrecv(local[:, -1].copy(), dest=left_dst,
                                   source=left_src)
        left_halo = comm.sendrecv(local[:, 0].copy(), dest=left_src,
                                  source=left_dst)

        padded = np.zeros((n + 2, n + 2))
        padded[1:-1, 1:-1] = local
        padded[0, 1:-1] = top_halo
        padded[-1, 1:-1] = bottom_halo
        padded[1:-1, 0] = right_halo
        padded[1:-1, -1] = left_halo
        smoothed = (padded[:-2, 1:-1] + padded[2:, 1:-1] +
                    padded[1:-1, :-2] + padded[1:-1, 2:]) / 4
        return (r, c, smoothed)

    results = run_spmd(runtime, P * Q, body)
    # sequential reference with periodic wrap
    ref = (np.roll(global_field, 1, 0) + np.roll(global_field, -1, 0) +
           np.roll(global_field, 1, 1) + np.roll(global_field, -1, 1)) / 4
    for r, c, smoothed in results:
        np.testing.assert_allclose(
            smoothed, ref[r * n:(r + 1) * n, c * n:(c + 1) * n])
