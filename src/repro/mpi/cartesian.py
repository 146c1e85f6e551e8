"""Cartesian process topologies (MPI_Cart_create and friends).

Stencil-based SPMD codes — exactly the numerical kernels the paper's
coupling scenarios encapsulate — address neighbours through a Cartesian
view of the communicator.  :meth:`repro.mpi.communicator.Comm.Create_cart`
returns a :class:`CartComm` adding coordinate arithmetic and neighbour
shifts on top of the plain communicator."""

from __future__ import annotations

import math
from typing import Sequence

from repro.mpi.communicator import PROC_NULL, Comm, MpiError


class CartComm(Comm):
    """A communicator with an attached Cartesian topology."""

    def __init__(self, circuit, group, rank, context,
                 dims: Sequence[int], periods: Sequence[bool]):
        super().__init__(circuit, group, rank, context)
        self.dims = list(dims)
        self.periods = list(periods)

    # -- coordinate arithmetic -------------------------------------------
    def Get_coords(self, rank: int) -> list[int]:
        """Row-major coordinates of ``rank``."""
        if not 0 <= rank < self.size:
            raise MpiError(f"rank {rank} out of range")
        coords = []
        remainder = rank
        for extent in reversed(self.dims):
            coords.append(remainder % extent)
            remainder //= extent
        return list(reversed(coords))

    @property
    def coords(self) -> list[int]:
        return self.Get_coords(self.rank)

    def Get_cart_rank(self, coords: Sequence[int]) -> int:
        """Rank at ``coords`` (periodic dimensions wrap; out-of-range on
        a non-periodic dimension returns :data:`PROC_NULL`)."""
        if len(coords) != len(self.dims):
            raise MpiError(f"expected {len(self.dims)} coordinates")
        normalised = []
        for c, extent, periodic in zip(coords, self.dims, self.periods):
            if periodic:
                c %= extent
            elif not 0 <= c < extent:
                return PROC_NULL
            normalised.append(c)
        rank = 0
        for c, extent in zip(normalised, self.dims):
            rank = rank * extent + c
        return rank

    def Shift(self, direction: int, disp: int = 1) -> tuple[int, int]:
        """``(source, dest)`` for a shift of ``disp`` along ``direction``
        — the ranks to receive from and send to in a halo exchange."""
        if not 0 <= direction < len(self.dims):
            raise MpiError(f"no dimension {direction}")
        here = self.coords
        up = list(here)
        up[direction] += disp
        down = list(here)
        down[direction] -= disp
        return self.Get_cart_rank(down), self.Get_cart_rank(up)

    def Get_topo(self) -> tuple[list[int], list[bool], list[int]]:
        return list(self.dims), list(self.periods), self.coords


def create_cart(comm: Comm, dims: Sequence[int],
                periods: Sequence[bool] | None = None) -> CartComm:
    """Build a Cartesian view over ``comm`` (collective).

    ``math.prod(dims)`` must equal the communicator size; ranks keep
    their identity (no reordering — the simulated network is uniform)."""
    dims = list(dims)
    if any(d < 1 for d in dims):
        raise MpiError(f"dimensions must be >= 1, got {dims}")
    if math.prod(dims) != comm.size:
        raise MpiError(
            f"grid {dims} has {math.prod(dims)} slots for "
            f"{comm.size} ranks")
    periods = list(periods) if periods is not None else [False] * len(dims)
    if len(periods) != len(dims):
        raise MpiError("periods must match dims in length")
    comm.allgather(0)  # synchronise the context generation
    return comm._derive(f"cart{comm._coll_seq}", list(range(comm.size)),
                        CartComm, dims=dims, periods=periods)
