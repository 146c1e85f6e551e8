"""Shared MPI test fixtures and helpers."""

import pytest

from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime
from repro.mpi import create_world, spmd


@pytest.fixture()
def runtime():
    topo = Topology()
    build_cluster(topo, "a", 8)
    rt = PadicoRuntime(topo)
    yield rt
    rt.shutdown()


def run_spmd(rt, n_ranks, fn, *args, procs_per_host=1):
    """Create a world of ``n_ranks`` and run ``fn`` on every rank.

    Returns the list of per-rank results.
    """
    procs = [rt.create_process(f"a{i // procs_per_host}", f"rank{i}")
             for i in range(n_ranks)]
    world = create_world(rt, "w", procs)
    threads = spmd(world, fn, *args)
    rt.run()  # raises if a rank is left blocked
    for t in threads:
        assert t.exc is None
    return [t.result for t in threads]
