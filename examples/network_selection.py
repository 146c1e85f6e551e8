#!/usr/bin/env python
"""PadicoTM's transparent network selection (paper §2 "communication
flexibility" and §4.3.2).

The same CORBA client/server pair is deployed three ways; the code never
mentions a network, yet:

1. both on one cluster → the VLink stream rides **Myrinet** through the
   Madeleine driver (cross-paradigm mapping) at ~240 MB/s;
2. across two sites → the stream takes the **WAN** at ~4 MB/s;
3. forced onto the cluster's **Fast-Ethernet** (the ablation lever) →
   ~11 MB/s.

Run:  python examples/network_selection.py
"""

import numpy as np

from repro.corba import OMNIORB4, Orb, compile_idl
from repro.net import Topology, build_cluster, build_two_site_grid
from repro.padicotm import PadicoRuntime
from repro.padicotm.abstraction.vlink import VLink

IDL = """
module Net {
    typedef sequence<octet> Blob;
    interface Sink { unsigned long push(in Blob data); };
};
"""

SIZE = 8_000_000  # 8 MB payload


def run_pair(rt, server_host, client_host, label, fabric=None):
    server = rt.create_process(server_host, f"{label}-server")
    client = rt.create_process(client_host, f"{label}-client")
    s_orb = Orb(server, OMNIORB4, compile_idl(IDL))
    s_orb.start()
    c_orb = Orb(client, OMNIORB4, compile_idl(IDL))

    class Sink(s_orb.servant_base("Net::Sink")):
        def push(self, data):
            return len(data)

    url = s_orb.object_to_string(s_orb.poa.activate_object(Sink()))
    out = {}

    def main(proc):
        if fabric is not None:
            # the ablation lever: force the wire instead of letting the
            # selector choose (the ORB itself still never knows)
            ep = VLink.connect(proc, client, server.name, s_orb.port,
                               fabric=fabric)
            from repro.corba.orb import _ClientConnection
            c_orb._connections[(server.name, s_orb.port)] = \
                _ClientConnection(c_orb, ep)
        stub = c_orb.string_to_object(url)
        stub.push(b"")  # warm-up: connection + selection happen here
        conn = c_orb._connections[(server.name, s_orb.port)]
        out["fabric"] = conn.endpoint.fabric_name
        out["mapping"] = conn.endpoint.mapping
        t0 = rt.kernel.now
        assert stub.push(bytes(SIZE)) == SIZE
        out["bw"] = SIZE / (rt.kernel.now - t0)

    client.spawn(main)
    rt.run()
    return out


def main() -> None:
    print(f"payload: {SIZE / 1e6:.0f} MB, identical CORBA code each time\n")
    rows = []

    # deployment 1: one big cluster (SAN available)
    topo = Topology()
    build_cluster(topo, "c", 2)
    with PadicoRuntime(topo) as rt:
        rows.append(("same cluster (auto)",
                     run_pair(rt, "c0", "c1", "san")))

    # deployment 2: two sites over a WAN
    topo2, a_hosts, b_hosts = build_two_site_grid(n_per_site=1)
    with PadicoRuntime(topo2) as rt2:
        rows.append(("across sites (auto)",
                     run_pair(rt2, a_hosts[0].name, b_hosts[0].name, "wan")))

    # deployment 3: same cluster but forced onto the LAN
    topo3 = Topology()
    build_cluster(topo3, "c", 2)
    with PadicoRuntime(topo3) as rt3:
        rows.append(("same cluster (forced LAN)",
                     run_pair(rt3, "c0", "c1", "lan", fabric="c-lan")))

    print(f"{'deployment':28s} {'fabric':10s} {'mapping':16s} "
          f"{'bandwidth':>12s}")
    for label, out in rows:
        print(f"{label:28s} {out['fabric']:10s} {out['mapping']:16s} "
              f"{out['bw'] / 1e6:9.1f} MB/s")

    assert rows[0][1]["bw"] > 200e6      # Myrinet régime
    assert rows[1][1]["bw"] < 5e6        # WAN régime
    assert 8e6 < rows[2][1]["bw"] < 12e6 # Fast-Ethernet régime
    print("\nnetwork selection OK")


if __name__ == "__main__":
    main()
