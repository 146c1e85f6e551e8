"""Failure injection against GridCCM parallel components."""

import numpy as np
import pytest

from repro.ccm import ComponentImpl
from repro.core import (
    GridCcmCompiler,
    ParallelClient,
    ParallelComponent,
    ParallelismDescriptor,
)
from repro.corba import OMNIORB4, Orb, SystemException, compile_idl
from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime

IDL = """
module GF {
    typedef sequence<double> Vector;
    interface Compute { double norm2(in Vector values); };
    component Solver { provides Compute input; };
    home SolverHome manages Solver {};
};
"""

XML = """
<parallelism component="GF::Solver">
  <port name="input">
    <operation name="norm2">
      <argument name="values" distribution="block"/>
      <result policy="sum"/>
    </operation>
  </port>
</parallelism>
"""


class HangingSolver(ComponentImpl):
    """Node 1 wedges forever (a hung SPMD rank)."""

    def norm2(self, values):
        if self.grid_rank == 1:
            self.mpi.proc.suspend()  # never returns
        self.mpi.Barrier()
        return float(values @ values)


class HealthySolver(ComponentImpl):
    def norm2(self, values):
        self.mpi.Barrier()
        return float(values @ values)


@pytest.fixture()
def rt():
    topo = Topology()
    build_cluster(topo, "a", 6)
    runtime = PadicoRuntime(topo)
    yield runtime
    runtime.shutdown()


def _client(rt, url, host, timeout=None):
    cli = rt.create_process(host, "cli")
    idl = compile_idl(IDL)
    plan = GridCcmCompiler(idl, ParallelismDescriptor.parse(XML)).compile()
    orb = Orb(cli, OMNIORB4, idl)
    orb.request_timeout = timeout
    return cli, orb, plan


def test_hung_server_node_surfaces_as_timeout(rt):
    """A wedged SPMD rank must not hang the client forever: with a
    request deadline the invocation fails with TIMEOUT."""
    servers = [rt.create_process(f"a{i}", f"s{i}") for i in range(2)]
    comp = ParallelComponent.create(rt, "solver", servers, IDL, XML,
                                    HangingSolver, profile=OMNIORB4)
    url = comp.proxy_url("input")
    cli, orb, plan = _client(rt, url, "a2", timeout=0.05)
    out = {}

    def main(proc):
        pc = ParallelClient.attach(orb, plan, "input", url)
        try:
            pc.norm2(np.ones(10))
        except SystemException as e:
            out["minor"] = e.minor
            out["when"] = rt.kernel.now

    cli.spawn(main)
    rt.run()
    assert out["minor"] == "TIMEOUT"
    assert out["when"] == pytest.approx(0.05, abs=0.01)


def test_link_failure_between_components(rt):
    """The SAN path to one server node dies mid-transfer; the client
    sees COMM_FAILURE, and after the link heals a retry succeeds."""
    servers = [rt.create_process(f"a{i}", f"s{i}") for i in range(2)]
    comp = ParallelComponent.create(rt, "solver", servers, IDL, XML,
                                    HealthySolver, profile=OMNIORB4)
    url = comp.proxy_url("input")
    cli, orb, plan = _client(rt, url, "a2")
    out = {}

    def main(proc):
        pc = ParallelClient.attach(orb, plan, "input", url)
        out["first"] = pc.norm2(np.ones(100))
        # cut the client's SAN uplink while a big transfer is in flight
        link = rt.topology.fabrics["a-san"].link("a2", "a-san-sw")

        def chaos(p):
            p.sleep(0.001)
            rt.network.fail_link(link)
        rt.kernel.spawn(chaos, daemon=True)
        try:
            pc.norm2(np.ones(4_000_000))  # long enough to be hit
        except SystemException as e:
            out["failure"] = e.minor
        # heal and retry
        rt.network.restore_link(link)
        out["retry"] = pc.norm2(np.ones(100))

    cli.spawn(main)
    rt.run()
    assert out["first"] == pytest.approx(100.0)
    assert out["failure"] == "COMM_FAILURE"
    assert out["retry"] == pytest.approx(100.0)


def test_orb_shutdown_fails_inflight_requests(rt):
    """orb.shutdown() aborts waiting invocations with COMM_FAILURE."""
    server = rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    idl_src = "interface S { long slow(in double sec); };"
    s_orb = Orb(server, OMNIORB4, compile_idl(idl_src))
    s_orb.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(idl_src))

    class S(s_orb.servant_base("S")):
        def slow(self, sec):
            rt.kernel.current.sleep(sec)
            return 1

    url = s_orb.object_to_string(s_orb.poa.activate_object(S()))
    out = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        assert stub.slow(0.0) == 1
        try:
            stub.slow(10.0)
        except SystemException as e:
            out["minor"] = e.minor
            out["when"] = rt.kernel.now

    def killer(proc):
        proc.sleep(0.01)
        c_orb.shutdown()

    client.spawn(main)
    client.spawn(killer, daemon=True)
    rt.run()
    assert out["minor"] == "COMM_FAILURE"
    assert out["when"] == pytest.approx(0.01, abs=1e-3)
