"""Publish windows: zero-copy buffers watched from publish to consume.

A buffer that CORBA, MPI or GridCCM hands to the wire by reference
must keep its bytes until every receiver has read them.  Each seeded
defect of the retired static ``buf-*`` corpus has a dynamic successor
here on the real stack, and each clean pattern that still applies a
twin that must stay clean.  Every scenario runs under
``with Sanitizer(runtime=rt):``, whose exit raises
:class:`PublishWindowError` for a recorded violation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccm import ComponentImpl
from repro.core import (
    GridCcmCompiler,
    ParallelClient,
    ParallelComponent,
    ParallelismDescriptor,
)
from repro.corba import OMNIORB4, Orb, compile_idl
from repro.mpi import create_world, spmd
from repro.mpi.communicator import RENDEZVOUS_THRESHOLD
from repro.net import MYRINET_2000, Topology, build_cluster, build_grid
from repro.padicotm import PadicoRuntime
from repro.sanitizer import PublishWindowError, Sanitizer

#: float64 elements of a rendezvous (referenced) and an eager message
BIG = 2 * RENDEZVOUS_THRESHOLD // 8      # 128 KiB
SMALL = 16                               # 128 B
#: long enough for a 128 KiB message to land in the peer's queue first
LATE = 0.01


def _mpi(main, *, grid: bool = False, ranks: int = 2) -> list:
    """Run ``main(proc, comm)`` on every rank under the sanitizer; the
    per-rank results (the sanitizer raises on exit first, if at all)."""
    if grid:
        topo, site_hosts = build_grid(sites=2, hosts_per_site=2,
                                      san=MYRINET_2000)
        hosts = [h.name for hs in site_hosts.values() for h in hs]
    else:
        topo = Topology()
        build_cluster(topo, "a", ranks)
        hosts = [f"a{i}" for i in range(ranks)]
    rt = PadicoRuntime(topo)
    procs = [rt.create_process(h, f"p{i}") for i, h in enumerate(hosts)]
    world = create_world(rt, "w", procs)
    try:
        with Sanitizer(runtime=rt):
            threads = spmd(world, main)
            rt.run()
    finally:
        rt.shutdown()
    return [t.result for t in threads]


def _late_recv(proc, comm, n=BIG):
    """Rank 1's side of the point-to-point shapes: post late, return
    what arrived."""
    proc.sleep(LATE)
    got = np.empty(n)
    comm.Recv(got, source=0)
    return got[0]


def _violation(info) -> tuple[str, str]:
    first = info.value.violations[0]
    return first.published, first.consumed


# ---------------------------------------------------------------------------
# the Bcast probe: the root's buffer is referenced past its return
# ---------------------------------------------------------------------------

def _bcast_probe(n: int, fence: bool, seen: dict) -> list:
    def main(proc, comm):
        buf = np.full(n, 7.0) if comm.rank == 0 else np.empty(n)
        comm.Bcast(buf, root=0)
        if fence:
            comm.barrier()
        if comm.rank == 0:
            buf[:] = -1.0
        seen[comm.rank] = float(buf[0])
    return _mpi(main, grid=True)


def test_bcast_root_overwrite_is_reported_at_both_sites():
    seen: dict = {}
    with pytest.raises(PublishWindowError) as info:
        _bcast_probe(BIG, fence=False, seen=seen)
    # the receivers really read the scribble: the bug the watch reports
    assert [seen[r] for r in (1, 2, 3)] == [-1.0, -1.0, -1.0]
    assert len(info.value.violations) == 3       # every receiver's copy
    published, consumed = _violation(info)
    assert "test_publish.py" in published and "Comm.Bcast" in published
    assert "p0/rank0" in published
    assert "Comm._count_delivery" in consumed
    assert "p0/" not in consumed


def test_bcast_root_overwrite_after_a_barrier_is_clean():
    seen: dict = {}
    _bcast_probe(BIG, fence=True, seen=seen)
    assert [seen[r] for r in (1, 2, 3)] == [7.0, 7.0, 7.0]


def test_eager_bcast_below_the_threshold_is_clean():
    seen: dict = {}
    _bcast_probe(SMALL, fence=False, seen=seen)
    assert [seen[r] for r in (1, 2, 3)] == [7.0, 7.0, 7.0]


# ---------------------------------------------------------------------------
# dynamic successors of the static buf-* corpus
# ---------------------------------------------------------------------------

def test_direct_mutation_after_send():
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.full(BIG, 7.0)
            comm.Send(buf, dest=1)
            buf[0] = 0.0
            return None
        return _late_recv(proc, comm)

    with pytest.raises(PublishWindowError) as info:
        _mpi(main)
    published, consumed = _violation(info)
    assert "Comm.Send" in published and "rank0" in published
    assert "Comm.Recv" in consumed and "rank1" in consumed


def test_mutation_through_an_alias():
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.full(BIG, 7.0)
            view = buf[:]                 # another name, the same memory
            comm.Send(view, dest=1)
            buf[0] = 0.0
            return None
        return _late_recv(proc, comm)

    with pytest.raises(PublishWindowError):
        _mpi(main)


def test_augmented_assignment_after_bcast():
    def main(proc, comm):
        buf = np.full(BIG, 7.0) if comm.rank == 0 else np.empty(BIG)
        if comm.rank != 0:
            proc.sleep(LATE)
        comm.Bcast(buf, root=0)
        if comm.rank == 0:
            buf += 1.0

    with pytest.raises(PublishWindowError) as info:
        _mpi(main)
    assert "Comm.Bcast" in _violation(info)[0]


def test_publish_inside_a_helper():
    def post(comm, data):
        comm.Send(data, dest=1)

    def main(proc, comm):
        if comm.rank == 0:
            data = np.full(BIG, 7.0)
            post(comm, data)
            data[0] = 1.0
            return None
        return _late_recv(proc, comm)

    with pytest.raises(PublishWindowError) as info:
        _mpi(main)
    # the publish site is the helper's line, reached through Comm.Send
    assert "test_publish.py" in _violation(info)[0]
    assert "Comm.Send" in _violation(info)[0]


def test_escape_into_a_mutating_callee():
    # the in-flight Isend buffer is handed to Recv, which overwrites it
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.full(BIG, 7.0)
            req = comm.Isend(buf, dest=1)
            comm.Recv(buf, source=1)
            req.wait()
            return None
        comm.Send(np.zeros(BIG), dest=0)
        return _late_recv(proc, comm)

    with pytest.raises(PublishWindowError):
        _mpi(main)


def test_isend_window():
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.full(BIG, 7.0)
            req = comm.Isend(buf, dest=1)
            buf[0] = 99.0
            req.wait()
            return None
        return _late_recv(proc, comm)

    with pytest.raises(PublishWindowError) as info:
        _mpi(main)
    assert "Comm.Isend" in _violation(info)[0]


# ---------------------------------------------------------------------------
# the other publish points: CORBA request and GridCCM pieces
# ---------------------------------------------------------------------------

_IDL = """
module W {
    typedef sequence<double> Vec;
    interface Sink { double first(in Vec data); };
};
"""


def _corba_call(mutate_after: float | None) -> list:
    """A two-way call carrying a referenced array; a sibling thread of
    the client process writes to it ``mutate_after`` seconds in."""
    topo = Topology()
    build_cluster(topo, "n", 2)
    rt = PadicoRuntime(topo)
    server = rt.create_process("n0", "server")
    client = rt.create_process("n1", "client")
    s_orb = Orb(server, OMNIORB4, compile_idl(_IDL))
    s_orb.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(_IDL))

    class Sink(s_orb.servant_base("W::Sink")):
        def first(self, data):
            server.runtime.kernel.current.sleep(LATE)  # a slow servant
            return float(data[0])

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    data = np.full(BIG, 7.0)
    out = []

    def scribble(proc):
        proc.sleep(mutate_after)
        data[0] = -1.0

    def main(proc):
        if mutate_after is not None:
            client.spawn(scribble)
        out.append(c_orb.string_to_object(url).first(data))

    client.spawn(main)
    try:
        with Sanitizer(runtime=rt):
            rt.run()
    finally:
        rt.shutdown()
    return out


def test_corba_request_mutated_during_the_call():
    with pytest.raises(PublishWindowError) as info:
        _corba_call(mutate_after=LATE / 2)
    published, consumed = _violation(info)
    assert "Orb._invoke_remote" in published and "client/" in published
    assert "Orb._handle_request" in consumed and "server/" in consumed


def test_corba_request_clean_without_the_scribble():
    assert _corba_call(mutate_after=None) == [7.0]


_PAR_IDL = """
module G {
    typedef sequence<double> Vec;
    interface Sink { void absorb(in Vec values); };
    component Endpoint { provides Sink input; };
    home EndpointHome manages Endpoint {};
};
"""

_PAR_XML = """
<parallelism component="G::Endpoint">
  <port name="input">
    <operation name="absorb">
      <argument name="values" distribution="block"/>
      <result policy="none"/>
    </operation>
  </port>
</parallelism>
"""


class _Slow(ComponentImpl):
    def absorb(self, values):
        self.mpi.Barrier()


def test_gridccm_piece_mutated_during_the_call():
    topo = Topology()
    build_cluster(topo, "h", 3, san=MYRINET_2000)
    rt = PadicoRuntime(topo)
    servers = [rt.create_process(f"h{i}", f"s{i}") for i in range(2)]
    comp = ParallelComponent.create(rt, "g", servers, _PAR_IDL, _PAR_XML,
                                    _Slow, profile=OMNIORB4)
    url = comp.proxy_url("input")
    client = rt.create_process("h2", "c0")
    data = np.full(2 * BIG, 7.0)

    def scribble(proc):
        # the pieces leave ~0.7 ms into the call (GridCCM overhead and
        # gather cost first) and are assembled ~1.4 ms after that
        proc.sleep(1e-3)
        data[-1] = -1.0

    def main(proc):
        idl = compile_idl(_PAR_IDL)
        plan = GridCcmCompiler(
            idl, ParallelismDescriptor.parse(_PAR_XML)).compile()
        pc = ParallelClient.attach(Orb(client, OMNIORB4, idl), plan,
                                   "input", url)
        client.spawn(scribble)
        pc.absorb(data)

    client.spawn(main)
    with pytest.raises(PublishWindowError) as info:
        try:
            with Sanitizer(runtime=rt):
                rt.run()
        finally:
            rt.shutdown()
    published, consumed = _violation(info)
    assert "_CallEngine._wire_args" in published
    assert "_ServerPortLayer._assemble" in " ".join(
        v.consumed for v in info.value.violations)


# ---------------------------------------------------------------------------
# clean twins of the static good corpus
# ---------------------------------------------------------------------------

def test_send_recv_ping_pong_reuses_one_buffer():
    def main(proc, comm):
        buf = np.full(BIG, float(comm.rank))
        peer = 1 - comm.rank
        for _ in range(3):
            if comm.rank == 0:
                comm.Send(buf, dest=peer)
                comm.Recv(buf, source=peer)
            else:
                comm.Recv(buf, source=peer)
                buf += 1.0
                comm.Send(buf, dest=peer)
        return float(buf[0])

    assert _mpi(main) == [3.0, 3.0]


def test_isend_wait_then_a_fenced_mutate():
    # wait() returns once the message is in the peer's queue, even with
    # the receive posted first — the copy may still be ahead, so the
    # write waits for the barrier (MPI's reuse-on-return is not modelled)
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.full(BIG, 7.0)
            req = comm.Isend(buf, dest=1)
            req.wait()
            comm.barrier()
            buf[0] = 0.0
            return None
        got = np.empty(BIG)
        comm.Recv(got, source=0)
        comm.barrier()
        return got[0]

    assert _mpi(main)[1] == 7.0


def test_mutate_then_publish():
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.zeros(BIG)
            buf[0] = 7.0
            comm.Send(buf, dest=1)
            return None
        return _late_recv(proc, comm)

    assert _mpi(main)[1] == 7.0


def test_eager_send_below_the_threshold():
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.full(SMALL, 7.0)
            comm.Send(buf, dest=1)
            buf[0] = 0.0               # the eager copy is what travels
            return None
        return _late_recv(proc, comm, n=SMALL)

    assert _mpi(main)[1] == 7.0


def test_a_published_copy_frees_the_original():
    def main(proc, comm):
        if comm.rank == 0:
            buf = np.full(BIG, 7.0)
            comm.Send(buf.copy(), dest=1)
            buf[0] = 0.0
            return None
        return _late_recv(proc, comm)

    assert _mpi(main)[1] == 7.0


# ---------------------------------------------------------------------------
# zero perturbation, and nothing left behind
# ---------------------------------------------------------------------------

_SINK_IDL = """
module Bench {
    typedef sequence<octet> Blob;
    interface Sink { void push(in Blob data); };
};
"""


def _cohabitation(sanitize: bool) -> tuple:
    """§4.4: CORBA and MPI push 1 MB each over one Myrinet NIC at once."""
    topo = Topology()
    build_cluster(topo, "a", 2)
    rt = PadicoRuntime(topo)
    san = Sanitizer(runtime=rt) if sanitize else None
    p0 = rt.create_process("a0", "p0")
    p1 = rt.create_process("a1", "p1")
    s_orb = Orb(p1, OMNIORB4, compile_idl(_SINK_IDL))
    s_orb.start()
    c_orb = Orb(p0, OMNIORB4, compile_idl(_SINK_IDL))

    class Sink(s_orb.servant_base("Bench::Sink")):
        def push(self, data):
            pass

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    world = create_world(rt, "w", [p0, p1])
    size, gate, done = 1_000_000, 0.001, {}

    def corba_main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"")
        proc.sleep(gate - rt.kernel.now)
        stub.push(np.zeros(size, dtype="u1"))
        done["corba"] = rt.kernel.now

    def mpi_main(proc, comm):
        if comm.rank == 0:
            proc.sleep(gate - rt.kernel.now)
            comm.Send(np.zeros(size, dtype="u1"), dest=1)
        else:
            comm.Recv(np.empty(size, dtype="u1"), source=0)
        done[f"mpi{comm.rank}"] = rt.kernel.now

    p0.spawn(corba_main)
    spmd(world, mpi_main)
    rt.run()
    result = (sorted(done.items()), rt.kernel.now,
              rt.kernel.events_processed)
    if san is not None:
        san.uninstall()
        san.check()
        assert san.watch.violations == []
    rt.shutdown()
    return result


def test_cohabitation_under_the_watch_matches_a_plain_run():
    assert _cohabitation(sanitize=True) == _cohabitation(sanitize=False)


def test_uninstall_leaves_no_fingerprints_and_no_hooks():
    topo = Topology()
    build_cluster(topo, "a", 2)
    rt = PadicoRuntime(topo)
    san = Sanitizer(runtime=rt)
    procs = [rt.create_process(f"a{i}", f"p{i}") for i in range(2)]
    world = create_world(rt, "w", procs)
    keep = np.full(BIG, 7.0)

    def main(proc, comm):
        if comm.rank == 0:
            comm.Send(keep, dest=1)
        else:
            comm.Recv(np.empty(BIG), source=0)

    spmd(world, main)
    rt.run()
    assert san.watch.windows            # ``keep`` is still alive
    san.uninstall()
    rt.shutdown()
    assert san.watch.windows == {}
    assert rt.monitor is None
    assert rt.network.monitor is None
