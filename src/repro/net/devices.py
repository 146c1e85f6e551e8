"""Calibrated network technology models.

Constants are calibrated to the paper's testbed (§4.4: dual-Pentium III
1 GHz, switched Ethernet-100, Myrinet-2000, Linux 2.2) and to the raw
numbers it reports:

- Myrinet-2000 raw hardware bandwidth 250 MB/s; the paper's best
  middleware reaches 240 MB/s = 96 % of it, which we model as the
  effective data-plane rate of a Myrinet link (protocol framing costs);
- MPI one-way latency over PadicoTM/Myrinet is 11 µs, of which we
  attribute 9 µs to the wire+NIC path and 2 µs to the MPI software layer
  (the split is our choice; only the sum is observable);
- Fast-Ethernet TCP peaks around 11.2 MB/s (the Figure-7 reference
  curve) with ≈ 70 µs one-way latency.

Throughout the package, bandwidth is in **bytes/second** (1 MB/s =
1e6 B/s, matching the paper's MB) and latency in **seconds**.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Paradigm tags (paper §4.3.1): parallel-oriented networks are driven by
#: a Madeleine-like low-level library, distributed-oriented ones by
#: sockets.
PARALLEL = "parallel"
DISTRIBUTED = "distributed"


@dataclass(frozen=True)
class NetworkTechnology:
    """Static description of one networking technology.

    Attributes
    ----------
    name:
        Human-readable technology name.
    bandwidth:
        Effective data-plane bandwidth of one link, bytes/second.
    latency:
        One-way propagation + NIC latency of one hop, seconds.
    raw_bandwidth:
        Vendor "raw" hardware bandwidth (for efficiency reporting).
    paradigm:
        ``"parallel"`` (SAN: Myrinet, SCI) or ``"distributed"``
        (LAN/WAN: Ethernet, wide-area).
    secure:
        Whether links of this technology are considered physically
        secure (paper §2 "Communication security": a SAN inside one
        machine room is trusted; a WAN is not).
    exclusive_drivers:
        Low-level driver names that demand exclusive access to the NIC
        (paper §4.3.1: "hardware with exclusive access, e.g. Myrinet
        through BIP"); the arbitration layer enforces this.
    """

    name: str
    bandwidth: float
    latency: float
    raw_bandwidth: float = 0.0
    paradigm: str = DISTRIBUTED
    secure: bool = False
    exclusive_drivers: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"{self.name}: latency must be >= 0")
        if self.paradigm not in (PARALLEL, DISTRIBUTED):
            raise ValueError(f"{self.name}: bad paradigm {self.paradigm!r}")
        if not self.raw_bandwidth:
            object.__setattr__(self, "raw_bandwidth", self.bandwidth)

    @property
    def efficiency(self) -> float:
        """Effective/raw bandwidth ratio (0.96 for our Myrinet model)."""
        return self.bandwidth / self.raw_bandwidth


#: Myrinet-2000 SAN: 250 MB/s raw, 240 MB/s effective (96 %), 9 µs/hop.
#: The paper's Figure 7 peak (MPI, omniORB) sits on this rate.
MYRINET_2000 = NetworkTechnology(
    name="Myrinet-2000",
    bandwidth=240e6,
    latency=4.5e-6,  # 2 hops through the SAN switch = 9 µs one-way
    raw_bandwidth=250e6,
    paradigm=PARALLEL,
    secure=True,
    exclusive_drivers=("BIP", "GM"),
)

#: SCI: the other SAN the paper names (limited non-shareable mappings).
SCI = NetworkTechnology(
    name="SCI",
    bandwidth=85e6,
    latency=2.5e-6,
    raw_bandwidth=100e6,
    paradigm=PARALLEL,
    secure=True,
    exclusive_drivers=("SISCI",),
)

#: Switched Fast-Ethernet with TCP: ~11.2 MB/s effective, 70 µs one-way.
ETHERNET_100 = NetworkTechnology(
    name="Ethernet-100",
    bandwidth=11.2e6,
    latency=35e-6,  # 2 hops through the LAN switch = 70 µs one-way
    raw_bandwidth=12.5e6,
    paradigm=DISTRIBUTED,
    secure=False,
)

#: Wide-area link between sites: 4 MB/s, 5 ms one-way, insecure.
WAN = NetworkTechnology(
    name="WAN",
    bandwidth=4e6,
    latency=5e-3,
    paradigm=DISTRIBUTED,
    secure=False,
)

#: Intra-host loopback (two middleware processes on one machine).
LOOPBACK = NetworkTechnology(
    name="loopback",
    bandwidth=800e6,
    latency=1e-6,
    paradigm=DISTRIBUTED,
    secure=True,
)
