"""Per-link communication security (paper §2 and §6).

§2: "A grid can be made of secure and insecure networks.  The data ...
need to be secured on insecure networks."  §6 flags the open issue that
blanket CORBA security is too coarse: "if two components are placed
inside the same parallel machine, we can assume that communications are
secure and thus can be optimized by disabling the encryption."

:class:`GridSecurityPolicy` implements exactly that trade-off as a
VLink security hook with three modes:

- ``"wan-only"`` (the paper's proposal): encrypt only on wires whose
  technology is untrusted (WAN, shared LAN); SAN traffic is cleartext;
- ``"always"`` (the coarse CORBA-security baseline);
- ``"never"`` (the insecure baseline).

The cipher cost models 3DES-class software encryption on a 1 GHz
Pentium III: ~20 MB/s, i.e. painful on a 240 MB/s Myrinet and nearly
free on a 4 MB/s WAN — which is the whole argument."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

#: software 3DES throughput on the paper's hardware: ~20 MB/s
CIPHER_COST_PER_BYTE = 5.0e-8

#: per-message cipher setup (IV, key schedule reuse)
CIPHER_SETUP = 2.0e-6

MODES = ("wan-only", "always", "never")


class GridSecurityPolicy:
    """VLink security hook: decide and charge encryption per wire."""

    def __init__(self, mode: str = "wan-only"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode

    def should_encrypt(self, fabric_name: str | None,
                       secure_wire: bool) -> bool:
        if self.mode == "never":
            return False
        if self.mode == "always":
            return True
        return not secure_wire  # wan-only: trust the SAN/loopback

    def transform_cost(self, nbytes: float, fabric_name: str | None,
                       secure_wire: bool) -> float:
        if not self.should_encrypt(fabric_name, secure_wire):
            return 0.0
        return CIPHER_SETUP + nbytes * CIPHER_COST_PER_BYTE

    def __repr__(self) -> str:
        return f"<GridSecurityPolicy {self.mode}>"


def secure_process(process: "PadicoProcess",
                   policy: GridSecurityPolicy) -> None:
    """Install ``policy`` as the default for every VLink endpoint this
    process creates or accepts from now on."""
    process.security_policy = policy
