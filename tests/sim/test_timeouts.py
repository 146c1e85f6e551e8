"""Timed waits: SimTimeout semantics on sync primitives."""

import pytest

from repro.sim import Mailbox, SimKernel, SimTimeout, WaitQueue


def test_mailbox_get_times_out_at_deadline():
    with SimKernel() as k:
        box = Mailbox(k)
        out = {}

        def consumer(p):
            try:
                box.get(p, timeout=2.0)
            except SimTimeout:
                out["t"] = k.now

        k.spawn(consumer)
        k.run()
        assert out["t"] == 2.0


def test_mailbox_get_returns_before_timeout():
    with SimKernel() as k:
        box = Mailbox(k)
        out = {}

        def consumer(p):
            out["item"] = box.get(p, timeout=5.0)
            out["t"] = k.now

        def producer(p):
            p.sleep(1.0)
            box.put("hello")

        k.spawn(consumer)
        k.spawn(producer)
        k.run()
        assert out == {"item": "hello", "t": 1.0}
        # the timeout timer was cancelled: nothing left at t=5
        assert k.now == 1.0


def test_matchqueue_timeout_with_predicate():
    with SimKernel() as k:
        q = Mailbox(k)
        out = {}

        def consumer(p):
            try:
                q.get(p, lambda it: it == "wanted", timeout=1.0)
            except SimTimeout:
                out["timed_out"] = k.now

        def producer(p):
            q.put("unwanted")  # wakes the consumer, who re-blocks

        k.spawn(consumer)
        k.spawn(producer)
        k.run()
        assert out["timed_out"] == 1.0


def test_timeout_measured_as_total_budget():
    """Repeated wakeups with non-matching items must not extend the
    deadline."""
    with SimKernel() as k:
        q = Mailbox(k)
        out = {}

        def consumer(p):
            try:
                q.get(p, lambda it: it == "never", timeout=1.0)
            except SimTimeout:
                out["t"] = k.now

        def producer(p):
            for _ in range(5):
                p.sleep(0.3)
                q.put("noise")

        k.spawn(consumer)
        k.spawn(producer)
        k.run()
        assert out["t"] == pytest.approx(1.0)


def test_waitqueue_timeout_removes_entry():
    with SimKernel() as k:
        wq = WaitQueue(k)
        out = {}

        def waiter(p):
            try:
                wq.wait(p, timeout=0.5)
            except SimTimeout:
                out["len"] = len(wq)

        k.spawn(waiter)
        k.run()
        assert out["len"] == 0


def test_orb_request_timeout():
    """A slow servant triggers SystemException('TIMEOUT') client-side."""
    from repro.corba import OMNIORB4, Orb, SystemException, compile_idl
    from repro.net import Topology, build_cluster
    from repro.padicotm import PadicoRuntime

    topo = Topology()
    build_cluster(topo, "a", 2)
    rt = PadicoRuntime(topo)
    server = rt.create_process("a0", "server")
    client = rt.create_process("a1", "client")
    idl_src = "interface Slow { long work(in double seconds); };"
    s_orb = Orb(server, OMNIORB4, compile_idl(idl_src))
    s_orb.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(idl_src))

    class Slow(s_orb.servant_base("Slow")):
        def work(self, seconds):
            rt.kernel.current.sleep(seconds)
            return 1

    url = s_orb.object_to_string(s_orb.poa.activate_object(Slow()))
    out = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        c_orb.request_timeout = 0.01
        assert stub.work(0.001) == 1   # fast call fits the budget
        try:
            stub.work(1.0)
        except SystemException as e:
            out["minor"] = e.minor
            out["when"] = rt.kernel.now
        # the connection stays usable: a later call gets its own reply
        c_orb.request_timeout = None
        out["retry"] = stub.work(0.001)

    client.spawn(main)
    rt.run()
    rt.shutdown()
    assert out["minor"] == "TIMEOUT"
    assert out["when"] == pytest.approx(0.012, abs=2e-3)
    assert out["retry"] == 1
