"""MPI on PadicoTM — a faithful MPICH/Madeleine-style implementation.

The paper ports MPICH/Madeleine onto PadicoTM "with very few changes";
we implement the MPI subset grid middleware actually needs, directly on
the Circuit abstraction, following the mpi4py API conventions the HPC
community expects:

- **lowercase** methods (``send``/``recv``/``bcast``...) communicate
  arbitrary Python objects by pickling them — convenient, but the
  serialisation copy costs CPU time on both sides (charged to the
  virtual clock);
- **uppercase** methods (``Send``/``Recv``/``Bcast``...) communicate
  numpy buffers on the zero-copy fast path (Madeleine DMA in the paper),
  which is how MPI reaches 240 MB/s in Figure 7.

Entry points: :func:`create_world` builds a world over PadicoTM
processes; :func:`spmd` runs one function per rank.
"""

from repro.mpi.cartesian import CartComm
from repro.mpi.coll import CollStats
from repro.mpi.communicator import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    Comm,
    MpiError,
    Status,
)
from repro.mpi.ops import BAND, BOR, LAND, LOR, MAX, MAXLOC, MIN, MINLOC, PROD, SUM
from repro.mpi.request import Request
from repro.mpi.world import MpiModule, World, create_world, spmd

__all__ = [
    "Comm",
    "CollStats",
    "Status",
    "Request",
    "MpiError",
    "ANY_SOURCE",
    "PROC_NULL",
    "CartComm",
    "ANY_TAG",
    "SUM", "PROD", "MAX", "MIN", "LAND", "LOR", "BAND", "BOR",
    "MAXLOC", "MINLOC",
    "World",
    "create_world",
    "spmd",
    "MpiModule",
]
