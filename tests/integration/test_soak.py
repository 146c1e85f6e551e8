"""Soak test: a busy grid running everything at once, twice, identically.

16 hosts, two 4-node parallel components, a 4-rank parallel client
group coupling them, background MPI traffic and SOAP control calls —
all concurrently.  Checks numerical correctness and that the entire
run is reproducible to the last virtual nanosecond and the last
context switch: in one interpreter, and across two interpreters under
different ``PYTHONHASHSEED``s (which reorder every set of strings)."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ccm import ComponentImpl
from repro.core import (
    GridCcmCompiler,
    ParallelClient,
    ParallelComponent,
    ParallelismDescriptor,
)
from repro.corba import MICO, OMNIORB4, Orb, compile_idl
from repro.core.distribution import BlockDistribution
from repro.mpi import SUM, create_world, spmd
from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime
from repro.soap import SoapClient, SoapServer

IDL = """
module Soak {
    typedef sequence<double> Vector;
    interface Stage {
        Vector transform(in Vector values, in double factor);
    };
    component Pipe { provides Stage input; };
    home PipeHome manages Pipe {};
};
"""

XML = """
<parallelism component="Soak::Pipe">
  <port name="input">
    <operation name="transform">
      <argument name="values" distribution="block"/>
      <result policy="concat"/>
    </operation>
  </port>
</parallelism>
"""


class StageA(ComponentImpl):
    def transform(self, values, factor):
        self.mpi.Barrier()
        return values * factor


class StageB(ComponentImpl):
    def transform(self, values, factor):
        self.mpi.Barrier()
        return values + factor


class _SwitchDigest:
    """Kernel tracer hashing which process ran at which virtual instant,
    in order: any change in the order of events changes it."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.hash = hashlib.sha256()

    def on_switch(self, proc):
        self.hash.update(f"{self.kernel.now!r} {proc.name}\n".encode())


def _run_soak() -> dict:
    topo = Topology()
    build_cluster(topo, "h", 16)
    rt = PadicoRuntime(topo)

    stage_a = ParallelComponent.create(
        rt, "stageA", [rt.create_process(f"h{i}", f"a{i}")
                       for i in range(4)], IDL, XML, StageA,
        profile=OMNIORB4)
    stage_b = ParallelComponent.create(
        rt, "stageB", [rt.create_process(f"h{4 + i}", f"b{i}")
                       for i in range(4)], IDL, XML, StageB,
        profile=MICO)

    client_procs = [rt.create_process(f"h{8 + i}", f"c{i}")
                    for i in range(4)]
    world = create_world(rt, "clients", client_procs)

    # background MPI chatter on two more hosts
    bg_procs = [rt.create_process(f"h{12 + i}", f"bg{i}")
                for i in range(2)]
    bg_world = create_world(rt, "bg", bg_procs)

    # a SOAP health endpoint on the grid
    soap_host = rt.create_process("h14", "soap")
    soap_server = SoapServer(soap_host)
    hits = []
    soap_server.register("health", lambda: {"ok": True,
                                            "hits": len(hits)})

    N = 4000
    full = np.linspace(-1.0, 1.0, N)
    out: dict = {"sums": []}

    def pipeline_client(proc, comm):
        idl = compile_idl(IDL)
        plan = GridCcmCompiler(
            idl, ParallelismDescriptor.parse(XML)).compile()
        orb = Orb(client_procs[comm.rank], OMNIORB4, idl)
        pa = ParallelClient.attach(orb, plan, "input",
                                   stage_a.proxy_url("input"), comm=comm,
                                   group_id="to-a")
        pb = ParallelClient.attach(orb, plan, "input",
                                   stage_b.proxy_url("input"), comm=comm,
                                   group_id="to-b")
        dist = BlockDistribution(comm.size, N)
        local = full[dist.start(comm.rank):dist.end(comm.rank)].copy()
        for step in range(3):
            scaled = pa.transform(local, 2.0)       # ×2 on stage A
            shifted = pb.transform(
                scaled[dist.start(comm.rank):dist.end(comm.rank)],
                1.0)                                 # +1 on stage B
            local = shifted[dist.start(comm.rank):dist.end(comm.rank)]
            local = local.copy()
        total = comm.allreduce(float(local.sum()), SUM)
        if comm.rank == 0:
            out["sums"].append(total)
            out["t_pipeline"] = comm.Wtime()

    def background(proc, comm):
        buf = np.zeros(500_000, dtype="u1")
        for _ in range(5):
            if comm.rank == 0:
                comm.Send(buf, dest=1)
                comm.recv(source=1)
            else:
                recv = np.empty_like(buf)
                comm.Recv(recv, source=0)
                comm.send("ack", dest=0)
        if comm.rank == 0:
            out["t_bg"] = comm.Wtime()

    def soap_poller(proc):
        client = SoapClient(rt.create_process("h15", "poller"),
                            soap_server.url)
        for _ in range(10):
            assert client.call(proc, "health")["ok"]
            hits.append(1)
            proc.sleep(0.002)
        out["soap_hits"] = len(hits)

    spmd(world, pipeline_client)
    spmd(bg_world, background)
    soap_host.runtime.kernel.spawn(soap_poller, name="poller")
    switches = _SwitchDigest(rt.kernel)
    rt.kernel.attach_tracer(switches)
    rt.run()
    out["t_final"] = rt.kernel.now
    out["switches"] = switches.hash.hexdigest()
    rt.shutdown()
    return out


def test_soak_correct_and_deterministic():
    first = _run_soak()

    # numerics: x -> ((x*2+1)*2+1)*2+1 = 8x + 7
    expected = float(np.sum(np.linspace(-1.0, 1.0, 4000) * 8 + 7))
    assert first["sums"][0] == pytest.approx(expected, rel=1e-12)
    assert first["soap_hits"] == 10
    assert first["t_pipeline"] > 0 and first["t_bg"] > 0

    second = _run_soak()
    assert second == first  # byte-identical replay, timings included


def test_soak_replays_across_hash_seeds():
    # DESIGN.md §7: the replay holds across PYTHONHASHSEED values, so a
    # set iteration that feeds event order cannot hide in one process
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    script = ("from tests.integration.test_soak import _run_soak; "
              "print(repr(_run_soak()))")
    runs = [subprocess.Popen([sys.executable, "-c", script], cwd=root,
                             env=dict(env, PYTHONHASHSEED=seed),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True)
            for seed in ("0", "4242")]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "'switches': '" in outputs[0]
