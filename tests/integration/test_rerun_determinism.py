"""Rerun-determinism gate for the §4.4 CORBA+MPI workload.

Two fresh runs of the same workload must produce the same bytes: the
flow log (every transfer the network carried, with start/end times and
sizes) and the observability trace.  OS threads carry the simulated
processes, so this is the check that nothing of the host scheduler
leaks into a run — the same discipline that makes `BENCH_padico.json`
regenerable bit for bit.

The workload is the paper's §4.4 cohabitation shape: CORBA and MPI in
the same two PadicoTM processes, transferring over the same Myrinet NIC
at the same instant.
"""

import json

import numpy as np

from repro.corba import OMNIORB4, Orb, compile_idl
from repro.mpi import create_world, spmd
from repro.net import Topology, build_cluster
from repro.obs import TraceRecorder
from repro.obs.export import chrome_trace
from repro.padicotm import PadicoRuntime

IDL = """
module Bench {
    typedef sequence<octet> Blob;
    interface Sink { void push(in Blob data); };
};
"""


def _run_cohabitation():
    """CORBA push + MPI send sharing one NIC; returns the trace bytes."""
    topo = Topology()
    build_cluster(topo, "a", 2)
    rt = PadicoRuntime(topo)
    recorder = rt.observe(TraceRecorder())

    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    idl = compile_idl(IDL)
    s_orb = Orb(p1, OMNIORB4, idl)
    s_orb.start()
    c_orb = Orb(p0, OMNIORB4, compile_idl(IDL))

    class Sink(s_orb.servant_base("Bench::Sink")):
        def push(self, data):
            pass

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    world = create_world(rt, "w", [p0, p1])
    size = 1_000_000
    start_gate = 0.001
    results = {}

    def corba_main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"")  # warm up connection
        proc.sleep(start_gate - rt.kernel.now)
        stub.push(bytes(size))
        results["corba_done"] = rt.kernel.now

    def mpi_main(proc, comm):
        comm.bind(proc)
        if comm.rank == 0:
            proc.sleep(start_gate - rt.kernel.now)
            comm.Send(np.zeros(size, dtype="u1"), dest=1)
            results["mpi_done"] = rt.kernel.now
        else:
            buf = np.empty(size, dtype="u1")
            comm.Recv(buf, source=0)

    p0.spawn(corba_main)
    spmd(world, mpi_main)
    rt.run()
    rt.shutdown()

    flow_bytes = repr(rt.network.flow_log).encode()
    obs_bytes = json.dumps(chrome_trace(recorder), sort_keys=True).encode()
    return flow_bytes, obs_bytes, results


def test_cohabitation_workload_is_rerun_deterministic():
    first = _run_cohabitation()
    assert first[2]  # the workload really ran
    assert _run_cohabitation() == first
