"""Full deployment pipeline: component servers + engine over GIOP."""

import pytest

from repro.ccm import (
    AssemblyDescriptor,
    ComponentServer,
    Container,
    DeploymentEngine,
    SoftwarePackage,
)
from repro.ccm.idl import COMPONENTS_IDL
from repro.corba import NamingContext, NamingService, Orb, OMNIORB4, compile_idl
from repro.corba.idl.compiler import compile_idl as _compile
from repro.corba.idl.types import UserExceptionBase

from tests.ccm.conftest import app_idl

WORKER_PKG = SoftwarePackage.parse("""
<softpkg name="worker" version="1.0">
  <implementation id="DCE:worker-1"><component>App::Worker</component>
  </implementation>
</softpkg>""")

DRIVER_PKG = SoftwarePackage.parse("""
<softpkg name="driver" version="1.0">
  <implementation id="DCE:driver-1"><component>App::Driver</component>
  </implementation>
</softpkg>""")

MONITOR_PKG = SoftwarePackage.parse("""
<softpkg name="monitor" version="1.0">
  <implementation id="DCE:monitor-1"><component>App::Monitor</component>
  </implementation>
</softpkg>""")

PACKAGES = {"worker": WORKER_PKG, "driver": DRIVER_PKG,
            "monitor": MONITOR_PKG}

ASSEMBLY = AssemblyDescriptor.parse("""
<componentassembly id="demo">
  <componentfiles>
    <componentfile id="w" softpkg="worker"/>
    <componentfile id="d" softpkg="driver"/>
    <componentfile id="m" softpkg="monitor"/>
  </componentfiles>
  <instance id="worker0" componentfile="w" destination="node0"/>
  <instance id="driver0" componentfile="d" destination="node1"/>
  <instance id="monitor0" componentfile="m" destination="node1"/>
  <connection>
    <uses instance="driver0" port="backend"/>
    <provides instance="worker0" port="service"/>
  </connection>
  <property instance="worker0" name="gain" type="double" value="2.0"/>
  <property instance="driver0" name="iterations" type="long" value="5"/>
</componentassembly>""")


def _register_all(proc, servers):
    """Each node registers its component server from its own threads."""
    for s in servers:
        reg = s.container.process.spawn(lambda p, s=s: s.register(),
                                        name="register")
        proc.join(reg)


def _grid(rt, hosts=("a0", "a1")):
    containers = []
    for i, host in enumerate(hosts):
        proc = rt.create_process(host, f"node{i}")
        containers.append(Container(proc, app_idl()))
    ns = NamingService(containers[0].orb)
    servers = [ComponentServer(c, NamingContext(c.orb, ns.url))
               for c in containers]
    deployer_proc = rt.create_process(hosts[-1], "deployer")
    d_orb = Orb(deployer_proc, OMNIORB4, app_idl())
    d_orb.idl.merge(_compile(COMPONENTS_IDL))
    engine = DeploymentEngine(d_orb, NamingContext(d_orb, ns.url), PACKAGES)
    return containers, servers, deployer_proc, engine


def test_deploy_wires_and_activates(runtime):
    containers, servers, deployer, engine = _grid(runtime)
    out = {}

    def main(proc):
        _register_all(proc, servers)
        app = engine.deploy(ASSEMBLY)
        out["placement"] = dict(app.placement)
        # the driver was configured and connected by the engine; its
        # code must run on its own node
        driver_inst = next(iter(containers[1]._instances.values()))
        runner = containers[1].process.spawn(
            lambda p: driver_inst.executor.run(), name="runner")
        out["run"] = proc.join(runner)
        worker_inst = next(iter(containers[0]._instances.values()))
        out["gain"] = worker_inst.executor.gain
        out["activated"] = worker_inst.executor.activated
        app.teardown()
        out["empty"] = not containers[0]._instances

    deployer.spawn(main)
    runtime.run()
    assert out["placement"] == {"worker0": "node0", "driver0": "node1",
                                "monitor0": "node1"}
    assert out["run"] == 2.0 * (0 + 1 + 2 + 3 + 4)
    assert out["gain"] == 2.0
    assert out["activated"] is True
    assert out["empty"]


def test_deploy_with_placement_override(runtime):
    containers, servers, deployer, engine = _grid(runtime)
    out = {}

    def main(proc):
        _register_all(proc, servers)
        app = engine.deploy(ASSEMBLY, placement={"monitor0": "node0"})
        out["placement"] = app.placement["monitor0"]
        app.teardown()

    deployer.spawn(main)
    runtime.run()
    assert out["placement"] == "node0"


def test_deploy_unknown_destination_fails(runtime):
    containers, servers, deployer, engine = _grid(runtime)
    from repro.ccm import DescriptorError
    out = {}

    asm = AssemblyDescriptor.parse("""
    <componentassembly id="x">
      <componentfiles><componentfile id="w" softpkg="worker"/></componentfiles>
      <instance id="w0" componentfile="w"/>
    </componentassembly>""")

    def main(proc):
        _register_all(proc, servers)
        with pytest.raises(DescriptorError):
            engine.deploy(asm)  # no destination anywhere
        out["ok"] = True

    deployer.spawn(main)
    runtime.run()
    assert out["ok"]


def test_deploy_unknown_implementation_fails_remotely(runtime):
    containers, servers, deployer, engine = _grid(runtime)
    out = {}

    asm = AssemblyDescriptor.parse("""
    <componentassembly id="x">
      <componentfiles><componentfile id="g" softpkg="ghostpkg"/></componentfiles>
      <instance id="g0" componentfile="g" destination="node0"/>
    </componentassembly>""")

    ghost_pkg = SoftwarePackage.parse("""
    <softpkg name="ghostpkg" version="1.0">
      <implementation id="DCE:ghost"><component>App::Worker</component>
      </implementation>
    </softpkg>""")
    engine.packages["ghostpkg"] = ghost_pkg

    def main(proc):
        _register_all(proc, servers)
        with pytest.raises(UserExceptionBase) as ei:
            engine.deploy(asm)
        out["why"] = ei.value.why

    deployer.spawn(main)
    runtime.run()
    assert "no implementation" in out["why"]


def test_deploy_mismatched_implementation_fails_remotely(runtime):
    containers, servers, deployer, engine = _grid(runtime)
    out = {}
    engine.packages["mislabelled"] = SoftwarePackage.parse("""
    <softpkg name="mislabelled" version="1.0">
      <implementation id="DCE:worker-1"><component>App::Driver</component>
      </implementation>
    </softpkg>""")
    asm = AssemblyDescriptor.parse("""
    <componentassembly id="x">
      <componentfiles><componentfile id="m" softpkg="mislabelled"/>
      </componentfiles>
      <instance id="m0" componentfile="m" destination="node0"/>
    </componentassembly>""")

    def main(proc):
        _register_all(proc, servers)
        with pytest.raises(UserExceptionBase) as ei:
            engine.deploy(asm)
        out["why"] = ei.value.why

    deployer.spawn(main)
    runtime.run()
    assert out["why"] == ("DescriptorError: implementation 'DCE:worker-1' "
                          "implements 'App::Worker', not 'App::Driver'")


def test_component_server_lists_homes(runtime):
    containers, servers, deployer, engine = _grid(runtime)
    out = {}

    def main(proc):
        _register_all(proc, servers)
        engine.deploy(ASSEMBLY)
        cs = engine._component_server("node0")
        out["homes"] = cs.installed_homes()

    deployer.spawn(main)
    runtime.run()
    assert out["homes"] == ["App_Worker-DCE_worker-1"]


def test_install_home_idempotent(runtime):
    """Deploying two instances of one type reuses the installed home."""
    containers, servers, deployer, engine = _grid(runtime)
    asm = AssemblyDescriptor.parse("""
    <componentassembly id="two">
      <componentfiles><componentfile id="w" softpkg="worker"/></componentfiles>
      <instance id="w0" componentfile="w" destination="node0"/>
      <instance id="w1" componentfile="w" destination="node0"/>
    </componentassembly>""")
    out = {}

    def main(proc):
        _register_all(proc, servers)
        app = engine.deploy(asm)
        out["n_homes"] = len(containers[0].homes)
        out["n_instances"] = len(containers[0]._instances)

    deployer.spawn(main)
    runtime.run()
    assert out["n_homes"] == 1
    assert out["n_instances"] == 2
