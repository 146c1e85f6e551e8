"""The leaders' exchange against the rooted compositions it replaced.

``barrier``, ``allgather`` and ``allreduce`` / ``Allreduce`` used to be a
rooted operation to rank 0 followed by a broadcast from it.  That code is
gone, so its virtual times are literals here, captured at the parent
commit with :func:`sweep_point` itself (PYTHONPATH on the parent's
``src``); the full layouts x sizes sweep in docs/PERFORMANCE.md
("Topology-aware hierarchical collectives") is the same function over
more sizes.
"""

import numpy as np
import pytest

from repro.mpi.ops import SUM
from tests.mpi.test_hierarchy import _grid, _procs, _run

#: bytes of the allgather bundle (all ranks' pieces together) and of the
#: allreduce vector
SIZES = (16 << 10, 256 << 10)


def sweep_point(sites, hosts_per_site, interleaved=False, sizes=SIZES):
    """Virtual seconds from the first rank entering to the last rank
    leaving, per ``"<op>@<bytes>"``, on ``sites`` x ``hosts_per_site``
    (ranks site-major, or dealt round-robin over the sites)."""
    rt, site_hosts = _grid(sites, hosts_per_site)
    procs = _procs(rt, site_hosts,
                   "interleaved" if interleaved else "contiguous")
    spans = {}

    def body(proc, comm):
        def timed(name, fn):
            comm.barrier()
            t0 = comm.Wtime()
            fn()
            spans.setdefault(name, []).append((t0, comm.Wtime()))

        timed("barrier@0", comm.barrier)
        for size in sizes:
            piece = bytes(size // comm.size)
            vec, out = np.ones(size // 8), np.zeros(size // 8)
            timed(f"allgather@{size}", lambda: comm.allgather(piece))
            timed(f"allreduce@{size}", lambda: comm.allreduce(vec, SUM))
            timed(f"Allreduce@{size}", lambda: comm.Allreduce(vec, out, SUM))

    _run(rt, procs, body)
    rt.shutdown()
    return {name: max(t1 for _t0, t1 in ss) - min(t0 for t0, _t1 in ss)
            for name, ss in spans.items()}


#: layout -> parent's virtual seconds, in :func:`sweep_point` key order
#: (barrier, then allgather / allreduce / Allreduce per size)
PARENT = {
    (2, 8, False): (0.020234, 0.026741, 0.029233, 0.028836,
                    0.122943, 0.163177, 0.157860),
    (4, 5, False): (0.040385, 0.042062, 0.057604, 0.057167,
                    0.214815, 0.313932, 0.309071),
    (8, 2, False): (0.060518, 0.056631, 0.085754, 0.085231,
                    0.296321, 0.461371, 0.455919),
    (3, 3, False): (0.040352, 0.050184, 0.053223, 0.052903,
                    0.208149, 0.300582, 0.296780),
    (5, 3, False): (0.050442, 0.063926, 0.071668, 0.071185,
                    0.292524, 0.442327, 0.437932),
    (6, 2, False): (0.060498, 0.065053, 0.081540, 0.081115,
                    0.293524, 0.450227, 0.445824),
    (7, 2, False): (0.060498, 0.065979, 0.085701, 0.085211,
                    0.295804, 0.460826, 0.455899),
    # non-contiguous sites: the reduction falls back to one block
    (3, 2, True): (0.040333, 0.050070, 0.071337, 0.070945,
                   0.206977, 0.383013, 0.379169),
}


@pytest.mark.parametrize(
    "layout", list(PARENT),
    ids=lambda l: f"{l[0]}x{l[1]}{'-interleaved' if l[2] else ''}")
def test_exchange_is_no_slower_than_the_rooted_composition(layout):
    """Never slower at a power-of-two site count; within 5 % elsewhere
    (the fold of a non-power-of-two leaders' reduction costs one WAN
    step going in and one coming out — 3 sites is its soft spot)."""
    sites = layout[0]
    floor = 1.0 if sites & (sites - 1) == 0 else 0.95
    now = sweep_point(*layout)
    assert len(now) == len(PARENT[layout])
    for (name, seconds), was in zip(now.items(), PARENT[layout]):
        assert was / seconds >= floor, \
            f"{name} on {layout}: {was / seconds:.3f}x of the parent"
