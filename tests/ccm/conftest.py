"""Shared CCM fixtures: a demo application with two component types."""

import pytest

from repro.ccm import ComponentImpl, ImplementationRepository
from repro.corba import compile_idl
from repro.net import Topology, build_cluster
from repro.padicotm import PadicoRuntime

APP_IDL = """
module App {
    interface Compute {
        double work(in double x);
        sequence<double> transform(in sequence<double> data);
    };

    component Worker {
        provides Compute service;
        attribute double gain;
    };
    home WorkerHome manages Worker {};

    component Driver {
        uses Compute backend;
        attribute long iterations;
    };
    home DriverHome manages Driver {};

    component Monitor {};
    home MonitorHome manages Monitor {};
};
"""


class WorkerImpl(ComponentImpl):
    gain = 1.0

    def __init__(self):
        self.activated = False
        self.removed = False

    def ccm_activate(self):
        self.activated = True

    def ccm_remove(self):
        self.removed = True

    def work(self, x):
        return x * self.gain

    def transform(self, data):
        import numpy as np
        return np.asarray(data) * self.gain


class DriverImpl(ComponentImpl):
    iterations = 1

    def run(self):
        backend = self.context.get_connection("backend")
        return sum(backend.work(float(i))
                   for i in range(self.iterations))


class MonitorImpl(ComponentImpl):
    pass


@pytest.fixture(autouse=True)
def impl_repository():
    ImplementationRepository.clear()
    ImplementationRepository.register("DCE:worker-1", "App::Worker",
                                      WorkerImpl)
    ImplementationRepository.register("DCE:driver-1", "App::Driver",
                                      DriverImpl)
    ImplementationRepository.register("DCE:monitor-1", "App::Monitor",
                                      MonitorImpl)
    yield ImplementationRepository
    ImplementationRepository.clear()


@pytest.fixture()
def runtime():
    topo = Topology()
    build_cluster(topo, "a", 4)
    rt = PadicoRuntime(topo)
    yield rt
    rt.shutdown()


def app_idl():
    return compile_idl(APP_IDL)
