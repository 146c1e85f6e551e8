"""The Circuit / VLink mapping table, pinned cell by cell.

Each cell maps one abstract interface onto one arbitrated driver and
pins what that mapping costs on the virtual clock: the exact send and
receive durations of a 0-byte and a 1 MB message, the label the
sender's bytes are counted under, and the NIC claims the connecting
(or first) member holds afterwards.  The literals were captured before
the driver choice moved into the arbitration layer; any change to a
per-message overhead, a claim or the local-copy-or-transfer rule shows
here as an exact mismatch.

Known quirk pinned on purpose: a single-host Circuit charges TCP's
5 µs per side, while a single-host VLink charges 0.5 µs.
"""

import pytest

from repro.net import Topology, build_cluster, build_two_site_grid
from repro.obs import TraceRecorder
from repro.padicotm import Circuit, PadicoRuntime, VLink
from repro.padicotm.arbitration import NicClaim

SIZES = (0, 1_000_000)

MAD = NicClaim("a-san", "BIP", "PadicoTM/madeleine", True)
TCP_LAN = NicClaim("a-lan", "tcp", "PadicoTM/sockets", True)
TCP_WAN = NicClaim("wan", "tcp", "PadicoTM/sockets", True)


def _topology(kind):
    if kind == "cluster":
        topo = Topology()
        build_cluster(topo, "a", 4)
        return topo
    topo, _a, _b = build_two_site_grid(n_per_site=2)
    return topo


def _run_circuit(rt, hosts, fabric):
    procs = [rt.create_process(h, f"p{i}") for i, h in enumerate(hosts)]
    circuit = Circuit.establish(rt, "pin", procs, fabric=fabric)
    out = {"send_end": [], "send": [], "recv_end": []}

    def sender(proc):
        for n in SIZES:
            t0 = rt.kernel.now
            circuit.send(proc, 0, 1, b"x", n)
            out["send_end"].append(rt.kernel.now)
            out["send"].append(rt.kernel.now - t0)

    def receiver(proc):
        for _ in SIZES:
            circuit.recv(proc, 1, source=0)
            out["recv_end"].append(rt.kernel.now)

    procs[1].spawn(receiver)
    procs[0].spawn(sender)
    rt.run()
    out["mapping"] = circuit.mapping
    out["claims"] = list(procs[0].arbitration.claims)
    return out


def _run_vlink(rt, hosts, fabric):
    server = rt.create_process(hosts[0], "server")
    client = rt.create_process(hosts[1], "client")
    listener = VLink.listen(server, "pin")
    out = {"send_end": [], "send": [], "recv_end": []}

    def srv(proc):
        ep = listener.accept(proc)
        for _ in SIZES:
            ep.recv(proc)
            out["recv_end"].append(rt.kernel.now)

    def cli(proc):
        t0 = rt.kernel.now
        ep = VLink.connect(proc, client, "server", "pin", fabric=fabric)
        out["connect"] = rt.kernel.now - t0
        out["mapping"] = ep.mapping
        for n in SIZES:
            t0 = rt.kernel.now
            ep.send(proc, b"x", n)
            out["send_end"].append(rt.kernel.now)
            out["send"].append(rt.kernel.now - t0)

    server.spawn(srv)
    client.spawn(cli)
    rt.run()
    out["claims"] = list(client.arbitration.claims)
    return out


# (interface, topology, hosts, forced fabric) -> expected row.  For a
# Circuit the sender is rank 0 and the receiver rank 1; for a VLink the
# client (hosts[1]) connects to and sends to the server (hosts[0]).
CELLS = {
    "circuit-cross-paradigm": (
        ("circuit", "grid", ["a0", "b0"], None),
        dict(mapping="cross-paradigm", label="tcp", claims=[TCP_WAN],
             send=[0.0050750000000000005, 0.255075],
             recv=[4.999999999999796e-06, 4.999999999977245e-06])),
    "circuit-forced-lan": (
        ("circuit", "cluster", ["a0", "a1"], "a-lan"),
        dict(mapping="cross-paradigm", label="tcp", claims=[TCP_LAN],
             send=[7.5e-05, 0.08936071428571428],
             recv=[4.9999999999999996e-06, 5.0000000000050004e-06])),
    "circuit-loopback": (
        ("circuit", "cluster", ["a0", "a0"], None),
        dict(mapping="loopback", label="loopback", claims=[],
             send=[6e-06, 0.001256],
             recv=[4.9999999999999996e-06, 5.000000000000013e-06])),
    "circuit-same-host-pair-on-san": (
        ("circuit", "cluster", ["a0", "a0", "a1"], None),
        dict(mapping="straight", label="loopback", claims=[MAD],
             send=[2e-06, 0.0012519999999999999],
             recv=[1.0000000000000002e-06, 9.999999999999159e-07])),
    "circuit-straight": (
        ("circuit", "cluster", ["a0", "a1"], None),
        dict(mapping="straight", label="madeleine", claims=[MAD],
             send=[1e-05, 0.004176666666666667],
             recv=[1.0000000000000006e-06, 1.0000000000001327e-06])),
    "vlink-cross-paradigm": (
        ("vlink", "cluster", ["a0", "a1"], None),
        dict(mapping="cross-paradigm", label="madeleine", claims=[MAD],
             connect=1.8e-05,
             send=[1.0000000000000003e-05, 0.004176666666666666],
             recv=[1.0000000000000006e-06, 1.0000000000001327e-06])),
    "vlink-loopback": (
        ("vlink", "cluster", ["a0", "a0"], None),
        dict(mapping="loopback", label="loopback", claims=[],
             connect=2e-06, send=[1.4999999999999996e-06, 0.0012515],
             recv=[5.000000000000003e-07, 5.000000000000664e-07])),
    "vlink-same-host-forced-fabric": (
        ("vlink", "cluster", ["a0", "a0"], "a-san"),
        dict(mapping="cross-paradigm", label="loopback", claims=[MAD],
             connect=2e-06, send=[2e-06, 0.0012519999999999999],
             recv=[9.999999999999997e-07, 9.999999999999159e-07])),
    "vlink-straight": (
        ("vlink", "grid", ["b0", "a0"], None),
        dict(mapping="straight", label="tcp", claims=[TCP_WAN],
             connect=0.010140000000000001,
             send=[0.005075000000000001, 0.25507500000000005],
             recv=[4.999999999999796e-06, 4.999999999977245e-06])),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_mapping_table_cell(cell):
    (iface, topo_kind, hosts, fabric), want = CELLS[cell]
    rec = TraceRecorder()
    with PadicoRuntime(_topology(topo_kind)) as rt:
        rt.observe(rec)
        run = _run_circuit if iface == "circuit" else _run_vlink
        got = run(rt, hosts, fabric)
    recv = [r - s for r, s in zip(got["recv_end"], got["send_end"])]
    assert got["mapping"] == want["mapping"]
    assert got["send"] == want["send"]
    assert recv == want["recv"]
    if "connect" in want:
        assert got["connect"] == want["connect"]
    assert [k for k in rec.driver_io if k[1] == "send"] == \
        [(want["label"], "send")]
    assert got["claims"] == want["claims"]
