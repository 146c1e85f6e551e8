"""What one small message costs the simulator, pinned as counts.

The ``rpc_small`` shape at 1/20 size, through the public API only: two
hosts on Myrinet-2000, one runtime, a CORBA caller pushing 50 small
blobs while an MPI pair does 50 ``Send``/``Recv`` round trips in the
same two processes.  Every number below repeats exactly, so a change
that moves one did so on purpose — see :func:`test_event_budget` — and
attaching a :class:`~repro.obs.TraceRecorder` moves none of them.  The
``grid_collectives`` shape in miniature (:func:`test_collective_budget`)
pins the same counts where almost every switch is a hand-off.
"""

import numpy as np

from repro.corba import OMNIORB4, Orb, compile_idl
from repro.mpi import SUM, create_world
from repro.net import Topology, build_cluster
from repro.net.topology import MYRINET_2000, build_grid
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

    Message legs as kernel chains moved ``handoffs`` alone, 545 → 426:
    a send leg — overhead, latency, flow — blocks its sender once
    instead of three times (twice for an empty ``Send``), with the same
    timers at the same instants, so no event, solve or clock moved.
    With two processes about a third of the merged resumptions were
    hand-offs; the rest resumed the process already running.
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
    start (it is still parked at the drain).  Chained message legs
    moved the switches 1188 → 808: 200 CORBA legs (request and reply
    per ``push``) and 80 MPI ``Send``s with bytes save two resumptions
    each, the 20 empty ``Send``s one."""
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
        == at_drain["counts"] == (1368, 808)
    # shutdown() gave every parked server thread the token once more;
    # the detached recorder did not follow
    assert kernel.context_switches > recorder.context_switches
    assert recorder.spans and recorder.now == kernel.now


BUDGET = {
    "events_processed": 1368,   # 13.7 per operation (1469 before lever c)
    "events_skipped": 24,
    "handoffs": 426,            # 648 before lever (c), 545 before chains
    "threads_started": 5,       # one per request at 56b5edf, 7 before (c)
    "solver_solves": 360,       # one per admission, one per completion
    "solver_iterations": 191,
    "completed_flows": 180,
    "now": "0.0021549999999999907",
}


def _run_collectives():
    """The ``grid_collectives`` shape in miniature: 3 sites × 2 hosts,
    every rank running one round of the six collectives on small
    pickled objects (and one numpy vector for ``allreduce``)."""
    topo, site_hosts = build_grid(sites=3, hosts_per_site=2,
                                  san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    procs = [rt.create_process(h, f"p-{h.name}")
             for hs in site_hosts.values() for h in hs]
    world = create_world(rt, "coll", procs)
    size = len(procs)
    got = {}

    def body(proc, rank):
        comm = world.comm(rank).bind(proc)
        mine = bytes(range(rank, rank + 40))
        results = [comm.bcast(b"x" * 300 if rank == 1 else None, root=1)]
        comm.barrier()
        results.append(comm.gather(mine, root=2))
        results.append(comm.allgather(mine))
        results.append(comm.allreduce(np.full(8, rank, dtype=np.int64),
                                      SUM).tolist())
        results.append(comm.alltoall([(rank, d) for d in range(size)]))
        got[rank] = results

    for rank, proc in enumerate(procs):
        proc.spawn(body, rank, name=f"rank{rank}")
    try:
        rt.run()
    finally:
        rt.shutdown()
    chunks = [bytes(range(r, r + 40)) for r in range(size)]
    for rank, (bcast, gathered, gathered_all, reduced, a2a) \
            in got.items():
        assert bcast == b"x" * 300
        assert gathered == (chunks if rank == 2 else None)
        assert gathered_all == chunks
        assert reduced == [sum(range(size))] * 8
        assert a2a == [(src, rank) for src in range(size)]
    assert len(got) == size
    kernel = rt.kernel
    return {
        "events_processed": kernel.events_processed,
        "events_skipped": kernel.events_skipped,
        "switches": kernel.context_switches,
        "handoffs": kernel.backend.handoffs,
        "threads_started": kernel.backend.threads_started,
        "now": repr(kernel.now),
    }


def test_collective_budget():
    """One round of the six collectives on 3 × 2 hosts.

    ``events_processed``, ``events_skipped``, ``threads_started`` and
    ``now`` were captured before message legs became kernel chains,
    which may not move them: a chain pushes the timers its process
    would have pushed, at the same instants and ``seq``.  What it
    merges is switches:

    * a send leg blocks once (overhead, latency and flow in one chain)
      instead of three times: 50 legs carry bytes (−2 each) and 12 are
      empty barrier signals, which have no flow to wait for (−1 each);
    * ``gather``'s remote bundles, ``allgather``'s result and
      ``alltoall``'s relayed bodies charge their deserialisations in
      one block each: 50 blocks fewer;
    * a pickled body received and decoded at once (``gather``'s and
      ``alltoall``'s local loops, the reductions' receives) takes its
      deserialisation in the receive leg's block: 14 fewer.

    So ``switches`` 405 → 229 (−176); with six ranks most of those
    resumptions were hand-offs, and ``handoffs`` fell 308 → 185.  Then
    the broadcast leaves — the one non-leader of each site, in
    ``bcast`` and in ``allreduce``'s closing broadcast — took their
    decode in the receive leg's block too: ``switches`` 229 → 223.  A
    decode resumed the process it charged, so no hand-off went.  And
    once rates were solved once per instant, the completion timer was
    pushed once per instant, not re-pushed by a later change of the
    same instant: ``events_skipped`` (the cancelled pushes) 2 → 0.
    """
    assert _run_collectives() == COLLECTIVE_BUDGET
    assert _run_collectives() == COLLECTIVE_BUDGET  # counts, not clocks


COLLECTIVE_BUDGET = {
    "events_processed": 443,
    "events_skipped": 0,        # 2 when every change solved
    "switches": 223,            # 405 before message legs were chains
    "handoffs": 185,            # 308 before
    "threads_started": 6,
    "now": "0.12157896783333323",
}
