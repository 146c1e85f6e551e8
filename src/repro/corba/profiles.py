"""ORB implementation profiles.

The paper benchmarks four C++ ORBs over PadicoTM (Figure 7 + §4.4
latency numbers).  We run one ORB core under four *profiles* whose cost
constants are calibrated to the paper's observations:

============  ===========  ==============  =================
ORB           marshalling  one-way latency peak bandwidth
============  ===========  ==============  =================
omniORB 3     zero-copy    20 µs           240 MB/s (96 %)
omniORB 4     zero-copy    ~19 µs          240 MB/s
ORBacus 4.0   copying      54 µs           63 MB/s
Mico 2.3      copying      62 µs           55 MB/s
============  ===========  ==============  =================

Latency decomposition (one-way, empty request over Myrinet):
``client_overhead + 11 µs PadicoTM/Madeleine wire path +
server_overhead``.  Peak bandwidth decomposition: the copying ORBs add
``copy_cost_per_byte`` serial CPU seconds per byte on *each* side
(marshal at the client, unmarshal at the server), so throughput
saturates at ``1 / (2·copy_cost + 1/240e6)`` — 7.0 ns/B yields Mico's
55 MB/s, 5.85 ns/B yields ORBacus' 63 MB/s."""

from __future__ import annotations

from dataclasses import dataclass

from repro.padicotm.modules import PadicoModule

#: Cost of a collocated invocation (same-process short-circuit, no GIOP),
#: seconds; one value for every ORB product.
COLLOCATED_OVERHEAD = 2.0e-6


@dataclass(frozen=True)
class OrbProfile:
    """Cost model of one ORB product."""

    name: str
    version: str
    client_overhead: float        # per-invocation client CPU, seconds
    server_overhead: float        # per-invocation server CPU, seconds
    copy_cost_per_byte: float     # marshalling copy cost, s/B per side

    @property
    def key(self) -> str:
        return f"{self.name}-{self.version}"

    @property
    def zero_copy(self) -> bool:
        """A product that copies nothing marshals bulk data by reference."""
        return self.copy_cost_per_byte == 0.0

    def marshal_cost(self, copied_bytes: float) -> float:
        return copied_bytes * self.copy_cost_per_byte

    def unmarshal_cost(self, nbytes: float) -> float:
        # copying ORBs copy the whole message again on the way up
        return nbytes * self.copy_cost_per_byte


#: AT&T omniORB 3.0.2 — zero-copy marshalling, the paper's fast ORB.
OMNIORB3 = OrbProfile("omniORB", "3.0.2",
                      client_overhead=5.0e-6, server_overhead=4.0e-6,
                      copy_cost_per_byte=0.0)

#: omniORB 4.0.0 — slightly leaner call path.
OMNIORB4 = OrbProfile("omniORB", "4.0.0",
                      client_overhead=4.5e-6, server_overhead=3.5e-6,
                      copy_cost_per_byte=0.0)

#: Mico 2.3.7 — always copies on marshal and unmarshal.
MICO = OrbProfile("Mico", "2.3.7",
                  client_overhead=26.0e-6, server_overhead=25.0e-6,
                  copy_cost_per_byte=7.0e-9)

#: ORBacus 4.0.5 — copying, but a little faster than Mico.
ORBACUS = OrbProfile("ORBacus", "4.0.5",
                     client_overhead=22.0e-6, server_overhead=21.0e-6,
                     copy_cost_per_byte=5.85e-9)

#: OpenCCM's Java ORB stack (§4.4 Fast-Ethernet text: GridCCM on
#: OpenCCM scales 8.3 → 66.4 MB/s vs MicoCCM's 9.8 → 78.4): JVM-era
#: marshalling costs roughly double Mico's per-byte copy price.
OPENCCM_JAVA = OrbProfile("OpenCCM", "0.4-java",
                          client_overhead=45.0e-6,
                          server_overhead=45.0e-6,
                          copy_cost_per_byte=1.3e-8)

ALL_PROFILES = (OMNIORB3, OMNIORB4, MICO, ORBACUS, OPENCCM_JAVA)


class OrbModule(PadicoModule):
    """A CORBA ORB as a dynamically loadable PadicoTM module.

    The paper emphasises that the C++ ORBs run on PadicoTM *unmodified*
    thanks to link-stage wrappers; accordingly the module only declares
    the pthread policy the product was built against and lets PadicoTM
    adapt it to Marcel."""

    thread_policy = "pthread"

    def __init__(self, profile: OrbProfile):
        self.profile = profile
        self.name = f"corba/{profile.key}"
