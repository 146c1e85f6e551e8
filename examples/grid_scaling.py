#!/usr/bin/env python
"""Grid-scale flow churn on a :func:`build_grid` federation.

The paper's Figure-1 environment scaled up: a multi-site grid —
Myrinet islands behind leaf/spine switches, joined by WAN links — with
per-site flow rings plus cross-site WAN transfers, admitted in batches
and re-solved by the max-min solver.  Midway through the
second wave the live allocation is checked against a from-scratch
:func:`maxmin_rates` solve over every flow: bit-for-bit equal.

The constants below are the whole configuration.  The defaults run in a
second, with 32 flows per site: below the solver's whole-shard gate,
so every solve walks components.  ``SITES = 20``, ``HOSTS_PER_SITE =
500`` and ``FLOWS_PER_HOST = 10`` give the 10 000-host grid with 100 020
concurrent flows, where completions re-solve whole sites from the
column form of the live-flow state (docs/PERFORMANCE.md) — there the
from-scratch check, a scalar solve over every flow, is the slow part.

Run:  python examples/grid_scaling.py
"""

from repro.net import build_grid
from repro.net.flows import FlowNetwork, maxmin_rates
from repro.sim import SimKernel

SITES = 8
HOSTS_PER_SITE = 32
FLOWS_PER_HOST = 1  # ring offsets 1..FLOWS_PER_HOST, all concurrent
FLOW_MB = 4.0


def main() -> None:
    topo, site_hosts = build_grid(sites=SITES,
                                  hosts_per_site=HOSTS_PER_SITE,
                                  switch_fanout=16)
    kernel = SimKernel()
    net = FlowNetwork(kernel, topo)

    def ramp() -> None:
        batch = []
        for site, hosts in site_hosts.items():
            names = [h.name for h in hosts]
            for i, src in enumerate(names):
                for k in range(1, FLOWS_PER_HOST + 1):
                    route = topo.route(src, names[(i + k) % len(names)],
                                       f"{site}-san")
                    batch.append((route, FLOW_MB * 1e6, lambda flow: None))
        # one WAN transfer per site, to the next site's first host
        sites = sorted(site_hosts)
        for i, site in enumerate(sites):
            src = site_hosts[site][0].name
            dst = site_hosts[sites[(i + 1) % len(sites)]][0].name
            batch.append((topo.route(src, dst, "g-wan"), FLOW_MB * 1e6,
                          lambda flow: None))
        net.start_flows(batch)  # one re-solve for the whole ramp

    kernel.schedule(0.0, ramp)
    kernel.schedule(5.0, ramp)  # second wave: same routes, cache hits
    kernel.run(until=5.001)
    live = net.active_flows
    assert {f: f.rate for f in live} == maxmin_rates(live)  # bit-for-bit
    kernel.run()
    n = SITES * HOSTS_PER_SITE
    print(f"{SITES} sites x {HOSTS_PER_SITE} hosts "
          f"({n} hosts, {len(net.flow_log)} flows)")
    print(f"  solver:         {net.solver_solves} solves, "
          f"{net.solver_iterations} bottleneck rounds")
    hits, misses = topo.route_cache_stats()
    print(f"  route cache:    {hits} hits / {misses} misses")
    print(f"  {len(live)} live rates equal the from-scratch solve")


if __name__ == "__main__":
    main()
