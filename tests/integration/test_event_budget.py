"""What one small message costs the simulator, pinned as counts.

The ``rpc_small`` shape at 1/20 size, through the public API only: two
hosts on Myrinet-2000, one runtime, a CORBA caller pushing 50 small
blobs while an MPI pair does 50 ``Send``/``Recv`` round trips in the
same two processes.  Every number below repeats exactly, so a change
that moves one did so on purpose — see :func:`test_event_budget` — and
attaching a :class:`~repro.obs.TraceRecorder` moves none of them.
"""

import numpy as np

from repro.corba import OMNIORB4, Orb, compile_idl
from repro.mpi import create_world
from repro.net import Topology, build_cluster
from repro.net.topology import MYRINET_2000
from repro.obs import TraceRecorder
from repro.padicotm import PadicoRuntime
from repro.sim.kernel import _TRACER_HOOKS

IDL = """
module Bench {
    typedef sequence<octet> Blob;
    interface Sink { void push(in Blob data); };
};
"""
SIZES = [0, 8, 64, 512, 4096]
OPS = 50


def _run(recorder=None):
    """Returns ``(budget, kernel)``; ``recorder`` is observed for the
    run and detached before the shutdown."""
    topo = Topology()
    build_cluster(topo, "n", 2, san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    if recorder is not None:
        rt.observe(recorder)
    p0 = rt.create_process("n0", "p0")
    p1 = rt.create_process("n1", "p1")
    s_orb = Orb(p1, OMNIORB4, compile_idl(IDL))
    s_orb.start()
    c_orb = Orb(p0, OMNIORB4, compile_idl(IDL))
    pushed = []

    class Sink(s_orb.servant_base("Bench::Sink")):
        def push(self, data):
            pushed.append(len(data))

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    world = create_world(rt, "bench", [p0, p1])
    sizes = [SIZES[i % len(SIZES)] for i in range(OPS)]

    def corba_main(proc):
        stub = c_orb.string_to_object(url)
        for size in sizes:
            stub.push(bytes(size))

    def mpi_sender(proc):
        comm = world.comm(0).bind(proc)
        for size in sizes:
            comm.Send(np.zeros(size, dtype=np.uint8), dest=1)
            comm.Recv(np.empty(size, dtype=np.uint8), source=1)

    def mpi_receiver(proc):
        comm = world.comm(1).bind(proc)
        for size in sizes:
            buf = np.empty(size, dtype=np.uint8)
            comm.Recv(buf, source=0)
            comm.Send(buf, dest=0)

    p0.spawn(corba_main, name="corba-client")
    p0.spawn(mpi_sender, name="mpi-rank0")
    p1.spawn(mpi_receiver, name="mpi-rank1")
    try:
        rt.run()
        if recorder is not None:
            rt.unobserve(recorder)
    finally:
        rt.shutdown()
    assert pushed == sizes
    kernel, net = rt.kernel, rt.network
    return {
        "events_processed": kernel.events_processed,
        "events_skipped": kernel.events_skipped,
        "handoffs": kernel.backend.handoffs,
        "threads_started": kernel.backend.threads_started,
        "solver_solves": net.solver_solves,
        "solver_iterations": net.solver_iterations,
        "completed_flows": net.completed_flows,
        "now": repr(kernel.now),
    }, kernel


def test_event_budget():
    """100 operations: 50 CORBA ``push`` + 50 MPI round trips.

    The baseline for ROADMAP item 1 ("events per operation"); all but
    ``events_processed``, ``handoffs`` and ``threads_started`` were
    captured at 56b5edf, before the lone-flow closed form, thread
    recycling and in-line dispatch, none of which may move them:

    * lever (a), accruing modelled software costs instead of sleeping
      each one, is expected to lower ``events_processed`` and leave
      ``handoffs``, the solver counts and ``now`` alone;
    * lever (b), the uncontended-flow fast path, lowers host time per
      solve only: ``solver_solves`` / ``solver_iterations`` count the
      closed form as the one-flow fill it replaces;
    * lever (c), the ORB's per-request path, is done: the connection
      thread dispatches each request in line (no ``giop-dispatch``
      spawn and wake-up) and the caller reads its own reply (no
      ``giop-reader`` waking it).  Per ``push`` that is one event and
      one hand-off fewer on each side; the reader itself cost one event
      (its spawn) and three hand-offs (its start, and its wake-up and
      exit at shutdown).  So ``events_processed`` 1469 → 1368
      (−2 × 50 − 1), ``handoffs`` 648 → 545 (−2 × 50 − 3), and
      ``threads_started`` 7 → 5: the five long-lived processes
      (acceptor, connection thread, CORBA client, two MPI ranks), no
      reader, no request thread to recycle.  A spawn costs no virtual
      time, so ``now`` and the rest did not move.
    """
    assert _run()[0] == BUDGET
    assert _run()[0] == BUDGET  # and again: counts, not clocks


def test_recorder_leaves_the_kernel_path_alone():
    """Observability's budget as a count: with a recorder attached the
    kernel makes 0 hook calls per event — the recorder has no tracer
    hook to call and none is installed — and every literal of the untraced run stands.  The recorder's two
    scheduler counts are the kernel's own, frozen at ``unobserve``;
    lever (c) moved them from (1469, 1289): one event and one switch
    fewer per request and per reply, and one each for the reader's
    start (it is still parked at the drain)."""
    at_drain = {}

    class Recorder(TraceRecorder):
        def on_detach(self, runtime):  # drained; shutdown() comes next
            kernel = runtime.kernel
            at_drain.update(
                tracer=kernel.tracer,
                counts=(kernel.events_processed, kernel.context_switches))
            super().on_detach(runtime)

    recorder = Recorder()
    assert not any(hasattr(recorder, hook) for hook in _TRACER_HOOKS)
    budget, kernel = _run(recorder)
    assert budget == BUDGET
    assert at_drain["tracer"] is None
    assert (recorder.events_fired, recorder.context_switches) \
        == at_drain["counts"] == (1368, 1188)
    # shutdown() gave every parked server thread the token once more;
    # the detached recorder did not follow
    assert kernel.context_switches > recorder.context_switches
    assert recorder.spans and recorder.now == kernel.now


BUDGET = {
    "events_processed": 1368,   # 13.7 per operation (1469 before lever c)
    "events_skipped": 24,
    "handoffs": 545,            # 648 before lever (c)
    "threads_started": 5,       # one per request at 56b5edf, 7 before (c)
    "solver_solves": 360,       # one per admission, one per completion
    "solver_iterations": 191,
    "completed_flows": 180,
    "now": "0.0021549999999999907",
}
