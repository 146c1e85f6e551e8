"""Hybrid assembly deployment: sequential + parallel instances in one
descriptor, wired together by the deployer."""

import numpy as np
import pytest

from repro.ccm import (
    AssemblyDescriptor,
    ComponentImpl,
    ComponentServer,
    Container,
    DescriptorError,
    ImplementationRepository,
    SoftwarePackage,
)
from repro.ccm.deployment import DeploymentEngine
from repro.ccm.idl import COMPONENTS_IDL
from repro.core import HybridDeployer
from repro.corba import NamingContext, NamingService, OMNIORB4, Orb, compile_idl
from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime

IDL = """
module H {
    typedef sequence<double> Vector;
    interface Compute {
        double norm2(in Vector values);
    };
    component Solver {
        provides Compute input;
        attribute double gain;
    };
    home SolverHome manages Solver {};
    component Driver {
        uses Compute backend;
    };
    home DriverHome manages Driver {};
};
"""

SOLVER_PKG = SoftwarePackage.parse("""
<softpkg name="solver" version="1.0">
  <implementation id="DCE:h-solver">
    <component>H::Solver</component>
    <parallelism component="H::Solver">
      <port name="input">
        <operation name="norm2">
          <argument name="values" distribution="block"/>
          <result policy="sum"/>
        </operation>
      </port>
    </parallelism>
  </implementation>
</softpkg>""")

DRIVER_PKG = SoftwarePackage.parse("""
<softpkg name="driver" version="1.0">
  <implementation id="DCE:h-driver"><component>H::Driver</component>
  </implementation>
</softpkg>""")

ASSEMBLY = AssemblyDescriptor.parse("""
<componentassembly id="hybrid">
  <componentfiles>
    <componentfile id="s" softpkg="solver"/>
    <componentfile id="d" softpkg="driver"/>
  </componentfiles>
  <instance id="solver0" componentfile="s" nodes="3"/>
  <instance id="driver0" componentfile="d" destination="seq-node"/>
  <connection>
    <uses instance="driver0" port="backend"/>
    <provides instance="solver0" port="input"/>
  </connection>
  <property instance="solver0" name="gain" type="double" value="2.0"/>
</componentassembly>""")


class SolverImpl(ComponentImpl):
    gain = 1.0

    def __init__(self):
        self.activated = False

    def ccm_activate(self):
        self.activated = True

    def norm2(self, values):
        self.mpi.Barrier()
        return float(values @ values) * self.gain


class DriverImpl(ComponentImpl):
    def run(self, data):
        return self.context.get_connection("backend").norm2(data)


@pytest.fixture()
def stage():
    ImplementationRepository.clear()
    ImplementationRepository.register("DCE:h-solver", "H::Solver",
                                      SolverImpl)
    ImplementationRepository.register("DCE:h-driver", "H::Driver",
                                      DriverImpl)
    topo = Topology()
    build_cluster(topo, "a", 6)
    rt = PadicoRuntime(topo)

    # component-server node for the sequential side
    seq_container = Container(rt.create_process("a0", "seq-node"),
                              compile_idl(IDL))
    naming = NamingService(seq_container.orb)
    server = ComponentServer(seq_container,
                             NamingContext(seq_container.orb, naming.url))
    # bare PadicoTM processes for the parallel nodes
    for i in range(3):
        rt.create_process(f"a{1 + i}", f"par{i}")

    deployer_proc = rt.create_process("a4", "deployer")
    d_orb = Orb(deployer_proc, OMNIORB4, compile_idl(IDL))
    d_orb.idl.merge(compile_idl(COMPONENTS_IDL))
    engine = DeploymentEngine(d_orb, NamingContext(d_orb, naming.url),
                              {"solver": SOLVER_PKG, "driver": DRIVER_PKG})
    deployer = HybridDeployer(rt, engine, IDL)
    yield rt, seq_container, server, deployer_proc, deployer
    ImplementationRepository.clear()
    rt.shutdown()


def test_descriptor_carries_nodes_and_parallelism():
    assert ASSEMBLY.instance("solver0").nodes == 3
    assert ASSEMBLY.instance("driver0").nodes == 1
    impl = SOLVER_PKG.implementations[0]
    assert impl.parallelism is not None
    assert 'component="H::Solver"' in impl.parallelism


def test_nodes_attribute_validation():
    with pytest.raises(DescriptorError):
        AssemblyDescriptor.parse("""
        <componentassembly id="x">
          <componentfiles><componentfile id="c" softpkg="p"/></componentfiles>
          <instance id="i" componentfile="c" nodes="0"/>
        </componentassembly>""")


def test_hybrid_deploy_and_invoke(stage):
    rt, seq_container, server, deployer_proc, deployer = stage
    out = {}
    data = np.arange(60, dtype="f8")

    def main(proc):
        reg = server.container.process.spawn(lambda p: server.register(),
                                             name="reg")
        proc.join(reg)
        app = deployer.deploy(ASSEMBLY, placement={
            "solver0": ["par0", "par1", "par2"]})
        out["parallel_size"] = app.parallel_component("solver0").size
        solver = app.parallel_component("solver0")
        out["activated"] = [e.activated for e in solver.executors()]
        out["gain"] = [e.gain for e in solver.executors()]
        driver_inst = next(iter(seq_container._instances.values()))
        runner = seq_container.process.spawn(
            lambda p: driver_inst.executor.run(data), name="runner")
        out["norm"] = proc.join(runner)
        app.teardown()
        out["empty"] = not seq_container._instances

    deployer_proc.spawn(main)
    rt.run()
    assert out["parallel_size"] == 3
    assert out["activated"] == [True, True, True]
    assert out["gain"] == [2.0, 2.0, 2.0]
    assert out["norm"] == pytest.approx(2.0 * float(data @ data))
    assert out["empty"]


def test_hybrid_requires_placement_list(stage):
    rt, seq_container, server, deployer_proc, deployer = stage
    out = {}

    def main(proc):
        reg = server.container.process.spawn(lambda p: server.register(),
                                             name="reg")
        proc.join(reg)
        with pytest.raises(DescriptorError):
            deployer.deploy(ASSEMBLY, placement={"solver0": "par0"})
        with pytest.raises(DescriptorError):
            deployer.deploy(ASSEMBLY, placement={"solver0": ["par0"]})
        out["ok"] = True

    deployer_proc.spawn(main)
    rt.run()
    assert out["ok"]


def test_hybrid_rejects_parallel_without_parallelism(stage):
    rt, seq_container, server, deployer_proc, deployer = stage
    asm = AssemblyDescriptor.parse("""
    <componentassembly id="x">
      <componentfiles><componentfile id="d" softpkg="driver"/></componentfiles>
      <instance id="d0" componentfile="d" nodes="2"/>
    </componentassembly>""")
    out = {}

    def main(proc):
        with pytest.raises(DescriptorError) as ei:
            deployer.deploy(asm, placement={"d0": ["par0", "par1"]})
        out["msg"] = str(ei.value)

    deployer_proc.spawn(main)
    rt.run()
    assert "no" in out["msg"] and "parallelism" in out["msg"]


@pytest.mark.parametrize("softpkg,why", [
    ("ghost", "unknown software package 'ghost'"),
    ("solver", "implementation 'DCE:h-solver' implements 'H::Driver', "
               "not 'H::Solver'"),
], ids=["unknown-package", "wrong-component"])
def test_hybrid_reports_a_bad_implementation_as_the_engine_does(
        stage, softpkg, why):
    """A parallel instance's implementation is looked up and checked by
    the same helpers as a sequential one's."""
    rt, seq_container, server, deployer_proc, deployer = stage
    ImplementationRepository.unregister("DCE:h-solver")
    ImplementationRepository.register("DCE:h-solver", "H::Driver",
                                      DriverImpl)
    asm = AssemblyDescriptor.parse(f"""
    <componentassembly id="x">
      <componentfiles><componentfile id="s" softpkg="{softpkg}"/>
      </componentfiles>
      <instance id="s0" componentfile="s" nodes="2"/>
    </componentassembly>""")
    out = {}

    def main(proc):
        with pytest.raises(DescriptorError) as ei:
            deployer.deploy(asm, placement={"s0": ["par0", "par1"]})
        out["msg"] = str(ei.value)

    deployer_proc.spawn(main)
    rt.run()
    assert out["msg"] == why
