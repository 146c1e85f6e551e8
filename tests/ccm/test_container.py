"""Container, homes, ports — the CCM execution model."""

import numpy as np
import pytest

from repro.ccm import CcmError, Container
from repro.corba.idl.types import UserExceptionBase

from tests.ccm.conftest import DriverImpl, WorkerImpl, app_idl


def _container(rt, host="a0", name="node0"):
    return Container(rt.create_process(host, name), app_idl())


def test_home_creates_configured_instance(runtime):
    c = _container(runtime)
    home = c.install_home("App::Worker", WorkerImpl)
    inst = home.create(gain=3.0)
    assert inst.executor.gain == 3.0
    assert inst.cdef.scoped_name == "App::Worker"
    assert set(inst.facet_refs) == {"service"}


def test_home_rejects_unknown_attribute(runtime):
    c = _container(runtime)
    home = c.install_home("App::Worker", WorkerImpl)
    with pytest.raises(CcmError):
        home.create(nope=1)


def test_duplicate_home_name_rejected(runtime):
    c = _container(runtime)
    c.install_home("App::Worker", WorkerImpl, name="h")
    with pytest.raises(CcmError):
        c.install_home("App::Worker", WorkerImpl, name="h")


def test_facet_invocation_remote(runtime):
    c0 = _container(runtime, "a0", "node0")
    c1 = _container(runtime, "a1", "node1")
    inst = c0.install_home("App::Worker", WorkerImpl).create(gain=2.0)
    url = c0.orb.object_to_string(inst.facet_refs["service"])
    out = {}

    def client(proc):
        svc = c1.orb.string_to_object(url)
        out["w"] = svc.work(21.0)
        out["t"] = svc.transform(np.array([1.0, 2.0]))

    c1.process.spawn(client)
    runtime.run()
    assert out["w"] == 42.0
    assert np.allclose(out["t"], [2.0, 4.0])


def test_ccmobject_navigation_and_lifecycle(runtime):
    c0 = _container(runtime, "a0", "node0")
    c1 = _container(runtime, "a1", "node1")
    worker = c0.install_home("App::Worker", WorkerImpl).create()
    url = c0.orb.object_to_string(worker.ccm_ref)
    out = {}

    def client(proc):
        comp = c1.orb.string_to_object(url)
        out["type"] = comp.component_type()
        svc = comp.provide_facet("service")
        out["w"] = svc.work(5.0)
        with pytest.raises(UserExceptionBase):
            comp.provide_facet("nope")
        comp.configure("gain", (c1.orb.idl.component(
            "App::Worker").attributes["gain"].type, 4.0))
        out["w2"] = svc.work(5.0)
        out["attr"] = comp.get_attribute("gain")[1]
        comp.configuration_complete()
        out["activated"] = worker.executor.activated
        comp.remove()
        out["removed"] = worker.executor.removed

    c1.process.spawn(client)
    runtime.run()
    assert out == {"type": "App::Worker", "w": 5.0, "w2": 20.0,
                   "attr": 4.0, "activated": True, "removed": True}


def test_receptacle_connect_invoke_disconnect(runtime):
    c0 = _container(runtime, "a0", "node0")
    c1 = _container(runtime, "a1", "node1")
    worker = c0.install_home("App::Worker", WorkerImpl).create(gain=2.0)
    driver = c1.install_home("App::Driver", DriverImpl).create(iterations=3)
    out = {}

    def main(proc):
        facet = worker.facet_refs["service"]
        # connect through the CCMObject interface, remotely
        comp = c0.orb.string_to_object(
            c1.orb.object_to_string(driver.ccm_ref))
        comp.connect("backend", facet)
        # the executor's code must run on its own node's threads
        runner = c1.process.spawn(
            lambda p: driver.executor.run(), name="runner")
        out["run"] = proc.join(runner)
        comp.disconnect("backend")
        with pytest.raises(CcmError):
            driver.executor.context.get_connection("backend")
        out["done"] = True

    c0.process.spawn(main)
    runtime.run()
    assert out["run"] == 2.0 * (0 + 1 + 2)
    assert out["done"]


def test_connect_validates_port_and_duplicates(runtime):
    c0 = _container(runtime, "a0", "node0")
    worker = c0.install_home("App::Worker", WorkerImpl).create()
    driver = c0.install_home("App::Driver", DriverImpl).create()
    out = {}

    def main(proc):
        facet = worker.facet_refs["service"]
        comp = driver.ccm_ref
        with pytest.raises(UserExceptionBase):
            comp.connect("no_such_port", facet)
        comp.connect("backend", facet)
        with pytest.raises(UserExceptionBase):  # AlreadyConnected
            comp.connect("backend", facet)
        with pytest.raises(UserExceptionBase):  # wrong interface
            comp.connect("backend", worker.ccm_ref)
        with pytest.raises(UserExceptionBase):
            comp.disconnect("no_such_port")
        out["ok"] = True

    c0.process.spawn(main)
    runtime.run()
    assert out["ok"]


def test_instance_keys_unique_and_removable(runtime):
    c0 = _container(runtime)
    home = c0.install_home("App::Worker", WorkerImpl)
    a = home.create()
    b = home.create()
    assert a.key != b.key
    assert c0.instance(a.key) is a
    a.remove()
    with pytest.raises(CcmError):
        c0.instance(a.key)
    # facet object keys were released too
    from repro.corba import SystemException
    with pytest.raises(SystemException):
        c0.orb.poa.lookup(f"{a.key}.facet.service")
