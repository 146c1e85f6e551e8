#!/usr/bin/env python
"""Topology-aware MPI collectives on a multi-site grid.

MPICH-G2's two-level scheme on the reproduction's grid topology: each
communicator resolves its ranks to topology sites, elects one leader
per site, and routes every collective through intra-site binomial
subtrees glued by a leaders-only wide-area stage.  A rooted operation
runs a tree over the leaders — a broadcast crosses the expensive links
exactly ``sites - 1`` times instead of once per cross-site tree edge.
A symmetric one (barrier, allgather, allreduce) makes one exchange
among the leaders: ``log2(sites)`` wide-area steps instead of the
``2 * log2(sites)`` of a reduce followed by a broadcast, paid for with
``sites * log2(sites)`` crossings instead of ``2 * (sites - 1)``.
There is nothing to switch on: this is the one schedule ``repro.mpi``
has.

Prints the virtual-clock time and the WAN-crossing count of each
operation (each on its own ``dup()``, whose counters are then exactly
that operation's).

Run:  python examples/collectives_grid.py
"""

import numpy as np

from repro.mpi import SUM, create_world, spmd
from repro.net import build_grid
from repro.net.devices import MYRINET_2000
from repro.padicotm import PadicoRuntime

SITES = 4
HOSTS_PER_SITE = 4
PAYLOAD = 1024 * 1024  # 1 MiB


def main() -> None:
    topo, site_hosts = build_grid(sites=SITES,
                                  hosts_per_site=HOSTS_PER_SITE,
                                  san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    procs = [rt.create_process(h, f"p-{h.name}")
             for hosts in site_hosts.values() for h in hosts]
    world = create_world(rt, "grid", procs)
    ops = {
        "bcast": lambda c: c.bcast(
            bytes(PAYLOAD) if c.rank == 0 else None, root=0),
        "allgather": lambda c: c.allgather(bytes(PAYLOAD // c.size)),
        "allreduce": lambda c: c.allreduce(
            np.full(PAYLOAD // 8, c.rank + 1.0), SUM),
        "alltoall": lambda c: c.alltoall(
            [bytes(PAYLOAD // c.size)] * c.size),
        "barrier": lambda c: c.barrier(),
    }
    rows: dict[str, tuple[float, int]] = {}

    def rank_main(proc, comm):
        for op, fn in ops.items():
            sub = comm.dup()
            comm.barrier()
            t0 = comm.Wtime()
            fn(sub)
            comm.barrier()  # rank 0 reads the clock once all are done
            if comm.rank == 0:
                rows[op] = (comm.Wtime() - t0,
                            sub.coll_stats.wan_crossings)

    spmd(world, rank_main)
    rt.run()
    rt.shutdown()
    assert rows["bcast"][1] == SITES - 1
    for op in ("barrier", "allgather", "allreduce"):
        assert rows[op][1] == SITES * (SITES.bit_length() - 1)
    print(f"{SITES} sites x {HOSTS_PER_SITE} hosts "
          f"({SITES * HOSTS_PER_SITE} ranks), 1 MiB payloads")
    for op, (seconds, crossings) in rows.items():
        print(f"  {op:<10}{seconds:8.3f} sim-s, "
              f"{crossings:3d} WAN crossings")


if __name__ == "__main__":
    main()
