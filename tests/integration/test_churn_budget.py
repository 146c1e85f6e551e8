"""What a loaded flow network computes, pinned as counts and digests.

The ``flow_churn`` shape at smoke size, through the public API only: a
two-site grid of 64 hosts per site, every host keeping four intra-site
flows alive (three one leaf switch over, one to the site hub) plus one
WAN flow per site — 514 concurrent flows — ramped in ``start_flows``
batches and refilled on completion until 150 transfers have finished.
Next to :mod:`tests.integration.test_event_budget`, which pins the
other end of the range (two hosts, one or two live flows).
"""

import hashlib
from unittest import mock

from repro.net import FlowNetwork, build_grid
from repro.net import flows as flows_mod
from repro.sim import SimKernel

SITES, HOSTS, FANOUT = 2, 64, 32
FLOWS_PER_HOST = 4
RAMP_BATCH = 128
COMPLETIONS = 150
CHUNK_S = 2e-3


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _run(network_cls=FlowNetwork):
    topo, sites = build_grid(sites=SITES, hosts_per_site=HOSTS,
                             switch_fanout=FANOUT)
    kernel = SimKernel()
    net = network_cls(kernel, topo)
    names = list(sites)
    intra = []
    for s in names:
        hosts = [h.name for h in sites[s]]
        for i, host in enumerate(hosts):
            cross = hosts[(i + FANOUT) % len(hosts)]
            hub = hosts[0] if i else hosts[1]
            intra.append(topo.route(host, cross, f"{s}-san"))
            intra.append(topo.route(host, hub, f"{s}-san"))
    wan = [topo.route(sites[s][0].name,
                      sites[names[(si + 1) % len(names)]][0].name, "g-wan")
           for si, s in enumerate(names)]
    routes = intra + wan
    launched = [0]
    pending: list[int] = []

    def request(route_i):
        launched[0] += 1
        # a deterministic spread, so completions interleave
        size = 1_000_000.0 * (1 + launched[0] % 7)
        return routes[route_i], size, lambda flow, r=route_i: completed(r)

    def completed(route_i):
        # completions of one instant are refilled as one batch
        if not pending:
            kernel.schedule(0.0, flush)
        pending.append(route_i)

    def flush():
        requests = [request(i) for i in pending]
        pending.clear()
        net.start_flows(requests)

    def start_batch(slots):
        net.start_flows([request(i) for i in slots])

    adds = [i for _ in range(FLOWS_PER_HOST - 1)
            for i in range(0, len(intra), 2)]
    adds += range(1, len(intra), 2)
    adds += range(len(intra), len(routes))
    batches = [adds[k:k + RAMP_BATCH]
               for k in range(0, len(adds), RAMP_BATCH)]
    for k, slots in enumerate(batches):
        kernel.schedule(k * 1e-6, start_batch, slots)
    horizon = len(batches) * 1e-6
    try:
        kernel.run(until=horizon)
        while net.completed_flows < COMPLETIONS:
            horizon += CHUNK_S
            kernel.run(until=horizon)
    finally:
        kernel.shutdown()
    return net, {
        "events_processed": kernel.events_processed,
        "events_skipped": kernel.events_skipped,
        "solver_solves": net.solver_solves,
        "solver_iterations": net.solver_iterations,
        "solver_flows_resolved": net.solver_flows_resolved,
        "timer_reuses": net.timer_reuses,
        "completed_flows": net.completed_flows,
        "live_flows": len(net.active_flows),
        "now": repr(kernel.now),
        "flow_log": _sha(net.flow_log),
        "link_bytes": _sha([(link.name, moved)
                            for link, moved in net.link_bytes.items()]),
        "survivors": _sha([(f.seq, f.rate, f.remaining)
                           for f in net.active_flows]),
    }


class _FormCensus(FlowNetwork):
    """Counts the advances that moved the clock, by the form they ran in."""

    def __init__(self, kernel, topology):
        super().__init__(kernel, topology)
        self.advances = {"object": 0, "column": 0}

    def _advance(self):
        if self.kernel.now > self._last_update:
            form = "object" if self._table is None else "column"
            self.advances[form] += 1
        super()._advance()


class _TierCensus(_FormCensus):
    """... and the solves, by the tier that ran them; for whole shards,
    also the rows the fill received against the flows they solved."""

    def __init__(self, kernel, topology):
        super().__init__(kernel, topology)
        self.tiers = {"shard": 0, "walk": 0, "lone": 0}
        self.shard_fill = {"rows": 0, "flows": 0}

    def _solve_lone(self, flow):
        lone = super()._solve_lone(flow)
        self.tiers["lone"] += lone
        return lone

    def _solve_shards(self, shards):
        self.tiers["shard"] += 1
        flows = self.solver_flows_resolved
        fill = flows_mod._progressive_fill_vec

        def counted(lens, *args):  # keeps no view of the table's columns
            self.shard_fill["rows"] += len(lens)
            return fill(lens, *args)

        with mock.patch.object(flows_mod, "_progressive_fill_vec", counted):
            super()._solve_shards(shards)
        self.shard_fill["flows"] += self.solver_flows_resolved - flows

    def _solve(self, subset):
        self.tiers["walk"] += 1
        super()._solve(subset)


def test_churn_budget():
    """Every literal was captured at 9984772, the parent of the column
    form: per-object loops over all 514 flows at every event.  The
    column form is host-side only, so none of them may move by a bit —
    events, solver work, timer reuse, the clock, every logged transfer,
    every per-link byte total (and the order links were first credited
    in) and every surviving flow's rate and bytes left.  The solver
    work stayed put when whole-shard solves stopped waiting on a
    component-size estimate: the four column-form walks they replaced
    each covered whole shards, so both filled the same flows in the
    same rounds.

    Solving once per instant moved the solver work and the timer counts
    (and nothing else): each refill lands at its completion's instant,
    and the completion's solve, which the refill's overwrote unseen, is
    folded into the refill's — solves 145 → 75, rounds 600 → 342,
    re-solved flows 42 085 → 21 762, whole-shard solves 142 → 72 — and
    the completion timer is pushed once per instant, not by the
    completion and then again by the refill: 47 reuses and 23 of the
    27 cancelled entries were that second push.
    """
    assert _run()[1] == BUDGET
    net, counts = _run(_TierCensus)  # and again: counts, not clocks
    assert counts == BUDGET
    # the ramp's second and third batches arrive on 128 and 256 flows
    # held as objects (the table is built after the advance that finds
    # the count over the threshold); every later event is in column form
    assert net.advances == {"object": 2, "column": 72}
    # whole shards from the third batch on; the first two batches are
    # walked before there is a table, the two WAN flows' batch is the
    # coupling tier's (with the estimate: 138 / 6 / 1 / 0, solving per
    # change: 142 / 3 / 0); a walk takes the scalar fill whatever its
    # size, so the three are one count
    assert net.tiers == {"shard": 72, "walk": 3, "lone": 0}
    # ... and sees one row per route class: a host's three cross-leaf
    # flows share one route and its hub flow takes another, so 128 rows
    # stand for a full site's 256 flows (the per-flow fill: rows == flows)
    assert net.shard_fill == {"rows": 10542, "flows": 21376}


BUDGET = {
    "events_processed": 145,
    "events_skipped": 4,
    "solver_solves": 75,
    "solver_iterations": 342,
    "solver_flows_resolved": 21762,
    "timer_reuses": 0,
    "completed_flows": 157,      # flows finish in simultaneous groups
    "live_flows": 514,
    "now": "0.5340050000000004",
    "flow_log": "8d799ffbb465cd35",
    "link_bytes": "4b184fd2e4258d9d",
    "survivors": "497335e3798f4b9d",
}
