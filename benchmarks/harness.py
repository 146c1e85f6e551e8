"""The experiment library behind ``BENCH_padico.json`` and EXPERIMENTS.md.

Every function builds a fresh simulated grid, drives the relevant
middleware, and reads its quantities off the **virtual clock**
(bandwidth in MB/s with MB = 1e6 bytes, latency in µs — the paper's
units).  Each experiment returns one :class:`repro.obs.BenchResult`
series.  ``benchmarks.run`` collects the series into the document and
renders the tables; ``tests/test_paper_claims.py`` checks them against
the ``PAPER_*`` values below."""

from __future__ import annotations

import math

import numpy as np

from repro.obs import BenchResult

from repro.ccm import ComponentImpl
from repro.core import (
    GridCcmCompiler,
    ParallelClient,
    ParallelComponent,
    ParallelismDescriptor,
)
from repro.corba import MICO, OMNIORB4, Orb, compile_idl
from repro.corba.profiles import OPENCCM_JAVA, OrbProfile
from repro.deploy import GridSecurityPolicy, secure_process
from repro.mpi import create_world, spmd
from repro.net import MYRINET_2000, Topology, build_cluster, build_two_site_grid
from repro.padicotm import PadicoRuntime, VLink

BENCH_IDL = """
module Bench {
    typedef sequence<octet> Blob;
    typedef sequence<long> IntVector;
    interface Sink {
        void push(in Blob data);
        void absorb(in IntVector values);
    };
    component Endpoint {
        provides Sink input;
    };
    home EndpointHome manages Endpoint {};
};
"""

PARALLELISM_XML = """
<parallelism component="Bench::Endpoint">
  <port name="input">
    <operation name="absorb">
      <argument name="values" distribution="block"/>
      <result policy="none"/>
    </operation>
  </port>
</parallelism>
"""

#: Figure 7's x axis: 32 B .. 8 MB
FIG7_SIZES = (32, 1024, 32 * 1024, 1024 * 1024, 8 * 1024 * 1024)

#: Figure 8's node counts (n → n)
FIG8_NODES = (1, 2, 4, 8)

#: the Fast-Ethernet text's containers: series name → profile
FAST_ETHERNET = {"gridccm.fast_ethernet.mico": MICO,
                 "gridccm.fast_ethernet.openccm": OPENCCM_JAVA}

#: the Fast-Ethernet rows' vector per rank, in 4-byte integers
FAST_ETHERNET_INTS_PER_RANK = 250_000

#: A1's message size: Figure 7's largest
MARSHALLING_BYTES = FIG7_SIZES[-1]

#: A4's stream length
SECURITY_BYTES = 4_000_000

# ---------------------------------------------------------------------------
# the paper's numbers (§4.4), keyed by the series that reproduces them
# ---------------------------------------------------------------------------

#: raw Myrinet-2000 bandwidth, MB/s ("96 % of the hardware")
HARDWARE_MBPS = 250.0

#: Figure 7 peak bandwidth per series, MB/s
PAPER_PEAK_MBPS = {
    "corba.bandwidth.omniORB-3.0.2": 240.0,
    "corba.bandwidth.omniORB-4.0.0": 240.0,
    "corba.bandwidth.Mico-2.3.7": 55.0,
    "corba.bandwidth.ORBacus-4.0.5": 63.0,
    "mpi.bandwidth.mpich-madeleine": 240.0,
    "corba.bandwidth.omniORB-4.0.0.lan": 11.2,
}

#: the latency text, one-way µs ("slightly slower" puts omniORB 4 at 19)
PAPER_LATENCY_US = {
    "mpi.latency.mpich-madeleine": 11.0,
    "corba.latency.omniorb3": 20.0,
    "corba.latency.omniorb4": 19.0,
    "corba.latency.orbacus": 54.0,
    "corba.latency.mico": 62.0,
}

#: the concurrency text: each of CORBA and MPI gets this, MB/s
PAPER_SHARING_MBPS = 120.0

#: Figure 8: nodes → (latency µs, aggregate MB/s)
PAPER_FIG8 = {1: (62.0, 43.0), 2: (93.0, 76.0),
              4: (123.0, 144.0), 8: (148.0, 280.0)}

#: the Fast-Ethernet text: nodes → aggregate MB/s per container
PAPER_FAST_ETHERNET = {"gridccm.fast_ethernet.mico": {1: 9.8, 8: 78.4},
                       "gridccm.fast_ethernet.openccm": {1: 8.3, 8: 66.4}}


class _SinkImpl(ComponentImpl):
    """Bench endpoint: absorbs a distributed vector then barriers —
    exactly the paper's Figure-8 workload ('the invoked operation only
    contains a MPI_Barrier')."""

    def absorb(self, values):
        self.mpi.Barrier()

    def push(self, data):
        pass


def _fabric(lan_only: bool) -> str:
    return "ethernet-100" if lan_only else "myrinet-2000"


def _sink_url(server, client, profile: OrbProfile,
              protocol: str = "giop") -> tuple[Orb, str]:
    """Serve a void ``Bench::Sink`` on ``server``; return the client's
    ORB and the object's URL."""
    s_orb = Orb(server, profile, compile_idl(BENCH_IDL), protocol=protocol)
    s_orb.start()
    c_orb = Orb(client, profile, compile_idl(BENCH_IDL), protocol=protocol)

    class Sink(s_orb.servant_base("Bench::Sink")):
        def push(self, data):
            pass

    return c_orb, s_orb.object_to_string(s_orb.poa.activate_object(Sink()))


def _corba_pingpong(profile: OrbProfile, sizes=(), lan_only: bool = False,
                    protocol: str = "giop") -> tuple[float, dict[int, float]]:
    """Round-trip of an empty void ``push`` (after a warm-up one) and
    the one-way time of each of ``sizes``: its push's round-trip minus
    half the empty one — the marginal one-way data time, as ORB
    bandwidth benchmarks report it."""
    topo = Topology()
    build_cluster(topo, "n", 2, san=None if lan_only else MYRINET_2000)
    rt = PadicoRuntime(topo)
    server = rt.create_process("n0", "server")
    client = rt.create_process("n1", "client")
    c_orb, url = _sink_url(server, client, profile, protocol)
    out: dict[str, float] = {}
    times: dict[int, float] = {}

    def main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"")  # connection warm-up
        t0 = rt.kernel.now
        stub.push(b"")
        out["empty_rtt"] = empty_rtt = rt.kernel.now - t0
        for size in sizes:
            payload = bytes(size)
            t0 = rt.kernel.now
            stub.push(payload)
            times[size] = rt.kernel.now - t0 - empty_rtt / 2

    client.spawn(main)
    rt.run()
    rt.shutdown()
    return out["empty_rtt"], times


def _mpi_pair(main) -> None:
    """Run ``main(proc, comm)`` on two MPI ranks over Myrinet."""
    topo = Topology()
    build_cluster(topo, "n", 2)
    rt = PadicoRuntime(topo)
    procs = [rt.create_process(f"n{i}", f"rank{i}") for i in range(2)]
    spmd(create_world(rt, "bench", procs), main)
    rt.run()
    rt.shutdown()


# ---------------------------------------------------------------------------
# Figure 7 and the latency text: CORBA / MPI over PadicoTM
# ---------------------------------------------------------------------------

def corba_bandwidth_curve(profile: OrbProfile, sizes=FIG7_SIZES,
                          lan_only: bool = False) -> BenchResult:
    """Figure-7 series: message size → MB/s."""
    _, times = _corba_pingpong(profile, sizes, lan_only)
    suffix = ".lan" if lan_only else ""
    return BenchResult(
        name=f"corba.bandwidth.{profile.key}{suffix}",
        unit="MB/s",
        points=tuple((size, size / times[size] / 1e6) for size in sizes),
        meta={"profile": profile.key, "fabric": _fabric(lan_only)})


def corba_one_way_latency_us(profile: OrbProfile,
                             protocol: str = "giop") -> float:
    """§4.4 latency: half the round-trip of an empty invocation."""
    return _corba_pingpong(profile, protocol=protocol)[0] / 2 * 1e6


def corba_latency(name: str, profile: OrbProfile) -> BenchResult:
    """One row of the latency text, as series ``corba.latency.{name}``."""
    return BenchResult(
        name=f"corba.latency.{name}", unit="us",
        points=(("one_way", corba_one_way_latency_us(profile)),),
        meta={"profile": profile.key})


def mpi_bandwidth_curve(sizes=FIG7_SIZES) -> BenchResult:
    """Figure-7 MPI series over PadicoTM/Myrinet."""
    curve: dict[int, float] = {}

    def main(proc, comm):
        if comm.rank == 0:
            for size in sizes:
                data = np.zeros(size, dtype="u1")
                comm.Send(data[:1], dest=1, tag=0)  # warm-up
                t0 = comm.Wtime()
                comm.Send(data, dest=1, tag=1)
                curve[size] = size / (comm.Wtime() - t0) / 1e6
        else:
            for size in sizes:
                buf = np.empty(size, dtype="u1")
                comm.Recv(buf[:1], source=0, tag=0)
                comm.Recv(buf, source=0, tag=1)

    _mpi_pair(main)
    return BenchResult(
        name="mpi.bandwidth.mpich-madeleine",
        unit="MB/s",
        points=tuple((size, curve[size]) for size in sizes),
        meta={"profile": "mpich-madeleine", "fabric": "myrinet-2000"})


def mpi_latency() -> BenchResult:
    """The latency text's MPI row: half the round-trip of 1 byte."""
    out = {}

    def main(proc, comm):
        buf = np.zeros(1, dtype="u1")
        if comm.rank == 0:
            comm.Send(buf, dest=1)
            comm.Recv(buf, source=1)
            t0 = comm.Wtime()
            comm.Send(buf, dest=1)
            comm.Recv(buf, source=1)
            out["rtt"] = comm.Wtime() - t0
        else:
            comm.Recv(buf, source=0)
            comm.Send(buf, dest=0)
            comm.Recv(buf, source=0)
            comm.Send(buf, dest=0)

    _mpi_pair(main)
    return BenchResult(
        name="mpi.latency.mpich-madeleine", unit="us",
        points=(("one_way", out["rtt"] / 2 * 1e6),),
        meta={"profile": "mpich-madeleine"})


def concurrent_sharing_mbps(size: int = 24_000_000) -> BenchResult:
    """§4.4 concurrency: CORBA and MPI bulk streams at the same time."""
    topo = Topology()
    build_cluster(topo, "n", 2)
    rt = PadicoRuntime(topo)
    p0 = rt.create_process("n0", "p0")
    p1 = rt.create_process("n1", "p1")
    c_orb, url = _sink_url(p1, p0, OMNIORB4)
    world = create_world(rt, "bench", [p0, p1])
    results: dict[str, float] = {}
    gate = 0.001

    def corba_main(proc):
        stub = c_orb.string_to_object(url)
        stub.push(b"")
        proc.sleep(gate - rt.kernel.now)
        t0 = rt.kernel.now
        stub.push(bytes(size))
        results["corba"] = size / (rt.kernel.now - t0) / 1e6

    def mpi_main(proc, comm):
        comm.bind(proc)
        if comm.rank == 0:
            proc.sleep(gate - rt.kernel.now)
            t0 = rt.kernel.now
            comm.Send(np.zeros(size, dtype="u1"), dest=1)
            results["mpi"] = size / (rt.kernel.now - t0) / 1e6
        else:
            buf = np.empty(size, dtype="u1")
            comm.Recv(buf, source=0)

    p0.spawn(corba_main)
    spmd(world, mpi_main)
    rt.run()
    rt.shutdown()
    return BenchResult(
        name="concurrent.sharing",
        unit="MB/s",
        points=(("corba", results["corba"]), ("mpi", results["mpi"])),
        meta={"payload_bytes": size, "fabric": "myrinet-2000"})


# ---------------------------------------------------------------------------
# Figure 8 and the Fast-Ethernet text: GridCCM n → n
# ---------------------------------------------------------------------------

def gridccm_n_to_n(n: int, profile: OrbProfile = MICO,
                   ints_per_rank: int = 2_000_000,
                   procs_per_host: int = 2,
                   lan_only: bool = False) -> BenchResult:
    """One Figure-8 row: two n-node parallel components exchange a
    vector of integers; the server op runs MPI_Barrier.

    Returns ``latency_us`` (half RTT of a 1-int-per-rank invocation)
    and ``aggregate_mbps``.  ``procs_per_host=2`` models the paper's
    dual-Pentium III nodes sharing one Myrinet NIC."""
    hosts_each = math.ceil(n / procs_per_host)
    topo = Topology()
    build_cluster(topo, "h", 2 * hosts_each,
                  san=None if lan_only else MYRINET_2000)
    rt = PadicoRuntime(topo)
    server_procs = [rt.create_process(f"h{i // procs_per_host}", f"s{i}")
                    for i in range(n)]
    comp = ParallelComponent.create(rt, "bench", server_procs, BENCH_IDL,
                                    PARALLELISM_XML, _SinkImpl,
                                    profile=profile)
    url = comp.proxy_url("input")
    client_procs = [
        rt.create_process(f"h{hosts_each + i // procs_per_host}", f"c{i}")
        for i in range(n)]
    world = create_world(rt, "clients", client_procs)
    out: dict[str, float] = {}

    def main(proc, comm):
        idl = compile_idl(BENCH_IDL)
        plan = GridCcmCompiler(
            idl, ParallelismDescriptor.parse(PARALLELISM_XML)).compile()
        orb = Orb(client_procs[comm.rank], profile, idl)
        pc = ParallelClient.attach(orb, plan, "input", url, comm=comm)

        small = np.zeros(1, dtype="i4")
        pc.absorb(small)  # warm-up: connections + plans
        comm.barrier()
        t0 = comm.Wtime()
        pc.absorb(small)
        comm.barrier()
        if comm.rank == 0:
            # RTT of the collective call incl. the client-side barrier
            out["latency_us"] = (comm.Wtime() - t0) / 2 * 1e6

        data = np.zeros(ints_per_rank, dtype="i4")
        comm.barrier()
        t0 = comm.Wtime()
        pc.absorb(data)
        comm.barrier()
        if comm.rank == 0:
            elapsed = comm.Wtime() - t0
            out["aggregate_mbps"] = \
                n * ints_per_rank * 4 / elapsed / 1e6

    spmd(world, main)
    rt.run()
    rt.shutdown()
    return BenchResult(
        name=f"gridccm.n_to_n.{n}",
        unit="mixed",
        points=(("latency_us", out["latency_us"]),
                ("aggregate_mbps", out["aggregate_mbps"])),
        meta={"nodes": n, "profile": profile.key,
              "procs_per_host": procs_per_host,
              "ints_per_rank": ints_per_rank,
              "fabric": _fabric(lan_only),
              "units": {"latency_us": "us", "aggregate_mbps": "MB/s"}})


def fast_ethernet_scaling(name: str, profile: OrbProfile) -> BenchResult:
    """The Fast-Ethernet text: GridCCM aggregate bandwidth at 1 and 8
    nodes, one process per machine, so every pair owns its NIC."""
    points = tuple(
        (n, gridccm_n_to_n(n, profile=profile, procs_per_host=1,
                           ints_per_rank=FAST_ETHERNET_INTS_PER_RANK,
                           lan_only=True)["aggregate_mbps"])
        for n in (1, 8))
    return BenchResult(
        name=name, unit="MB/s", points=points,
        meta={"profile": profile.key, "procs_per_host": 1,
              "ints_per_rank": FAST_ETHERNET_INTS_PER_RANK,
              "fabric": _fabric(True)})


# ---------------------------------------------------------------------------
# ablations A1, A2, A4, A5 (A3 reads the Figure-7 series at 8 MB)
# ---------------------------------------------------------------------------

def marshalling_strategy() -> BenchResult:
    """A1: the same ORB overheads, only the CDR discipline flips."""
    copying = OrbProfile("omniORB-copying", "ablation", zero_copy=False,
                         client_overhead=OMNIORB4.client_overhead,
                         server_overhead=OMNIORB4.server_overhead,
                         copy_cost_per_byte=7.0e-9)
    size = MARSHALLING_BYTES
    return BenchResult(
        name="ablation.marshalling", unit="MB/s",
        points=(("zero_copy", corba_bandwidth_curve(OMNIORB4, (size,))[size]),
                ("copying", corba_bandwidth_curve(copying, (size,))[size])),
        meta={"profile": OMNIORB4.key, "size": size,
              "copy_cost_per_byte": copying.copy_cost_per_byte})


def proxy_vs_direct(n: int = 4,
                    ints_total: int = 4_000_000) -> BenchResult:
    """A2, the master bottleneck: the same total payload shipped to an
    n-node component once through n direct parallel clients and once
    through the sequential proxy (the master-slave shape the paper
    rejects in §4.1)."""
    direct = gridccm_n_to_n(n, profile=OMNIORB4,
                            ints_per_rank=ints_total // n,
                            procs_per_host=1)["aggregate_mbps"]

    topo = Topology()
    build_cluster(topo, "h", n + 1)
    rt = PadicoRuntime(topo)
    server_procs = [rt.create_process(f"h{i}", f"s{i}") for i in range(n)]
    comp = ParallelComponent.create(rt, "bench", server_procs, BENCH_IDL,
                                    PARALLELISM_XML, _SinkImpl,
                                    profile=OMNIORB4)
    url = comp.proxy_url("input")
    cli = rt.create_process(f"h{n}", "seq-client")
    idl = compile_idl(BENCH_IDL)
    # register the generated proxy interface so the stub is typed
    GridCcmCompiler(idl,
                    ParallelismDescriptor.parse(PARALLELISM_XML)).compile()
    orb = Orb(cli, OMNIORB4, idl)
    out = {}

    def main(proc):
        stub = orb.string_to_object(url)  # sequential: via the proxy
        data = np.zeros(ints_total, dtype="i4")
        stub.absorb(data[:1])
        t0 = rt.kernel.now
        stub.absorb(data)
        out["proxy"] = ints_total * 4 / (rt.kernel.now - t0) / 1e6

    cli.spawn(main)
    rt.run()
    rt.shutdown()
    return BenchResult(
        name=f"ablation.proxy_vs_direct.{n}",
        unit="MB/s",
        points=(("direct_mbps", direct), ("proxy_mbps", out["proxy"])),
        meta={"nodes": n, "ints_total": ints_total})


def _secured_stream(mode: str, cross_site: bool) -> float:
    """One VLink stream between two secured processes, MB/s."""
    topo, a_hosts, b_hosts = build_two_site_grid(n_per_site=2)
    rt = PadicoRuntime(topo)
    src = rt.create_process(a_hosts[0].name, "src")
    dst = rt.create_process(
        (b_hosts if cross_site else a_hosts)[1].name, "dst")
    policy = GridSecurityPolicy(mode)
    secure_process(src, policy)
    secure_process(dst, policy)
    listener = VLink.listen(dst, "sec")
    out = {}

    def srv(proc):
        ep = listener.accept(proc)
        ep.recv(proc)

    def cli(proc):
        ep = VLink.connect(proc, src, dst.name, "sec")
        t0 = rt.kernel.now
        ep.send(proc, b"x", SECURITY_BYTES)
        out["bw"] = SECURITY_BYTES / (rt.kernel.now - t0) / 1e6

    dst.spawn(srv)
    src.spawn(cli)
    rt.run()
    rt.shutdown()
    return out["bw"]


def security_policy() -> BenchResult:
    """A4: a stream inside one site (SAN) and across the WAN under each
    per-link encryption policy; points are ``{mode}.{san|wan}``."""
    return BenchResult(
        name="ablation.security_policy", unit="MB/s",
        points=tuple((f"{mode}.{wire}", _secured_stream(mode, wire == "wan"))
                     for mode in ("never", "wan-only", "always")
                     for wire in ("san", "wan")),
        meta={"payload_bytes": SECURITY_BYTES})


def wire_protocol() -> BenchResult:
    """A5: omniORB 4's one-way latency under GIOP and under ESIOP."""
    return BenchResult(
        name="ablation.wire_protocol", unit="us",
        points=tuple((protocol, corba_one_way_latency_us(OMNIORB4, protocol))
                     for protocol in ("giop", "esiop")),
        meta={"profile": OMNIORB4.key})
