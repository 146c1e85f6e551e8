"""Differential tests: the production solve pipeline ≡ from-scratch solves.

The solver's whole claim (docs/PERFORMANCE.md) is that restricting
progressive filling to the link-connected component (or site shard) of
a change is *exact* — bit-for-bit, not approximately.  The slow-but-
obviously-right variants live here, on the test side, as two
``FlowNetwork`` subclasses, and the claim is checked three ways:

1. :class:`CheckedFlowNetwork` asserts, after every single reallocation
   of a randomised workload, that the live rates equal a from-scratch
   :func:`maxmin_rates` solve — same values, same flow order;
2. whole runs replayed on :class:`ScratchFlowNetwork` (every
   reallocation re-solves every live flow with the scalar fill) must
   agree with production on the flow log, the final virtual clock, and
   per-link byte accounting;
3. the concurrent CORBA+MPI sharing workload (the paper's §4.4
   experiment) must export the *identical* observability trace on
   both.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import NoRouteError, Topology, build_cluster
from repro.net.flows import FlowNetwork, TransferError, \
    _progressive_fill, maxmin_rates
from repro.sim.kernel import SimKernel


def assert_rate_stores_agree(net: FlowNetwork) -> None:
    """In column form a rate lives twice — the table's column and
    ``Flow._rate`` — and the two must agree, sign of zero included."""
    if net._table is not None:
        assert repr(list(net._table.rates)) == \
            repr([f._rate for f in net._flows])


class CheckedFlowNetwork(FlowNetwork):
    """Asserts the exactness invariant after every reallocation."""

    def _reallocate(self, dirty):
        super()._reallocate(dirty)
        expected = maxmin_rates(self._flows)
        # bit-for-bit: exact float equality AND identical flow order
        assert [(f, f.rate) for f in self._flows] == list(expected.items())
        assert_rate_stores_agree(self)


class ScratchFlowNetwork(FlowNetwork):
    """The from-scratch oracle: every reallocation ignores ``dirty`` and
    re-solves *all* live flows with the scalar fill."""

    def _reallocate(self, dirty):
        rates, iterations = _progressive_fill(self._flows)
        for f in self._flows:
            f.rate = rates[f]
        self.solver_solves += 1
        self.solver_iterations += iterations
        self.solver_flows_resolved += len(self._flows)
        self._reschedule()


# ---------------------------------------------------------------------------
# randomised workloads
# ---------------------------------------------------------------------------
#
# A schedule is pure data — (kind, time, ...) events over small random
# clusters — so the identical workload replays on either network class.

@st.composite
def schedules(draw):
    n_clusters = draw(st.integers(1, 2))
    clusters = [draw(st.integers(2, 5)) for _ in range(n_clusters)]
    events = []
    t = 0.0
    for _ in range(draw(st.integers(1, 12))):
        t += draw(st.floats(0.0, 0.01, allow_nan=False))
        ci = draw(st.integers(0, n_clusters - 1))
        n = clusters[ci]
        src = draw(st.integers(0, n - 1))
        dst = (src + draw(st.integers(1, n - 1))) % n
        fabric = draw(st.sampled_from(["san", "lan"]))
        if draw(st.integers(0, 9)) == 0:
            # bring the source host's uplink down mid-run: exercises the
            # removal path where several flows leave one component at once
            events.append(("fail", t, ci, src, dst, fabric))
        else:
            size = draw(st.floats(1e3, 1e7, allow_nan=False))
            events.append(("flow", t, ci, src, dst, fabric, size))
    return clusters, events


def run_schedule(spec, cls):
    clusters, events = spec
    topo = Topology()
    for ci, n_hosts in enumerate(clusters):
        build_cluster(topo, f"c{ci}", n_hosts)
    kernel = SimKernel()
    net = cls(kernel, topo)

    def start(ci, src, dst, fabric, size):
        try:
            route = topo.route(f"c{ci}{src}", f"c{ci}{dst}",
                               f"c{ci}-{fabric}")
            net.start_flow(route, size, lambda flow: None)
        except (NoRouteError, TransferError):
            pass  # a link failed earlier; both classes raise identically

    def fail(ci, src, dst, fabric):
        try:
            route = topo.route(f"c{ci}{src}", f"c{ci}{dst}",
                               f"c{ci}-{fabric}")
        except NoRouteError:
            return
        net.fail_link(route[0])

    for ev in events:
        if ev[0] == "flow":
            _, t, ci, src, dst, fabric, size = ev
            kernel.schedule(t, start, ci, src, dst, fabric, size)
        else:
            _, t, ci, src, dst, fabric = ev
            kernel.schedule(t, fail, ci, src, dst, fabric)
    kernel.run()
    return net, kernel


@settings(max_examples=200, deadline=None)
@given(schedules())
def test_incremental_exactness_and_cross_mode_equality(spec):
    # (1) invariant checked after every single reallocation
    net_inc, kernel_inc = run_schedule(spec, CheckedFlowNetwork)
    # (2) whole-run observables identical to the from-scratch solver
    net_ref, kernel_ref = run_schedule(spec, ScratchFlowNetwork)
    assert net_inc.flow_log == net_ref.flow_log
    assert kernel_inc.now == kernel_ref.now
    # links are per-topology objects: compare by name, in insertion
    # order (the accounting order itself must match, not just the sums)
    assert [(l.name, v) for l, v in net_inc.link_bytes.items()] == \
        [(l.name, v) for l, v in net_ref.link_bytes.items()]
    assert net_inc.completed_flows == net_ref.completed_flows
    # the production pipeline never does more bottleneck rounds
    assert net_inc.solver_iterations <= net_ref.solver_iterations


def test_incremental_saves_iterations_on_disjoint_components():
    # two disjoint host pairs: each add/completion should re-solve only
    # its own pair, so the incremental run does strictly less work
    spec = ([4], [("flow", 0.0, 0, 0, 1, "san", 1e6),
                  ("flow", 0.0, 0, 2, 3, "san", 2e6),
                  ("flow", 0.001, 0, 0, 1, "san", 3e6),
                  ("flow", 0.001, 0, 2, 3, "san", 4e6)])
    net_inc, _ = run_schedule(spec, CheckedFlowNetwork)
    net_ref, _ = run_schedule(spec, ScratchFlowNetwork)
    assert net_inc.flow_log == net_ref.flow_log
    assert net_inc.solver_iterations < net_ref.solver_iterations


def test_fail_link_matches_from_scratch():
    spec = ([3], [("flow", 0.0, 0, 0, 1, "san", 5e7),
                  ("flow", 0.0, 0, 1, 2, "san", 5e7),
                  ("fail", 0.001, 0, 0, 1, "san"),
                  ("flow", 0.002, 0, 1, 2, "san", 1e6)])
    net_inc, k_inc = run_schedule(spec, CheckedFlowNetwork)
    net_ref, k_ref = run_schedule(spec, ScratchFlowNetwork)
    assert net_inc.flow_log == net_ref.flow_log
    assert k_inc.now == k_ref.now


# ---------------------------------------------------------------------------
# obs trace equality on the concurrent-sharing workload
# ---------------------------------------------------------------------------

def _sharing_trace(scratch: bool) -> str:
    """The §4.4 concurrency experiment (CORBA and MPI bulk streams over
    one SAN at the same time), exported as a canonical trace string;
    ``scratch`` swaps the runtime's network for the from-scratch oracle."""
    from repro.corba import OMNIORB4, Orb, compile_idl
    from repro.mpi import create_world, spmd
    from repro.obs import TraceRecorder, chrome_trace
    from repro.padicotm import PadicoRuntime

    size = 1_000_000
    idl = """
    module Bench {
        typedef sequence<octet> Blob;
        interface Sink { void push(in Blob data); };
    };
    """
    topo = Topology()
    build_cluster(topo, "n", 2)
    rt = PadicoRuntime(topo)
    if scratch:
        rt.network = ScratchFlowNetwork(rt.kernel, topo)
    recorder = rt.observe(TraceRecorder())
    p0 = rt.create_process("n0", "p0")
    p1 = rt.create_process("n1", "p1")
    s_orb = Orb(p1, OMNIORB4, compile_idl(idl))
    s_orb.start()
    c_orb = Orb(p0, OMNIORB4, compile_idl(idl))

    class Sink(s_orb.servant_base("Bench::Sink")):
        def push(self, data):
            pass

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    world = create_world(rt, "bench", [p0, p1])
    gate = 0.001

    def corba_main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"")
        proc.sleep(gate - rt.kernel.now)
        stub.push(bytes(size))

    def mpi_main(proc, comm):
        comm.bind(proc)
        if comm.rank == 0:
            proc.sleep(gate - rt.kernel.now)
            comm.Send(np.zeros(size, dtype="u1"), dest=1)
        else:
            buf = np.empty(size, dtype="u1")
            comm.Recv(buf, source=0)

    p0.spawn(corba_main)
    spmd(world, mpi_main)
    rt.run()
    rt.shutdown()
    return json.dumps(chrome_trace(recorder), sort_keys=True)


def test_sharing_benchmark_trace_identical_across_modes():
    assert _sharing_trace(scratch=False) == _sharing_trace(scratch=True)
