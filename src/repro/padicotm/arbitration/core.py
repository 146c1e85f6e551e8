"""Arbitration core: multiplexed NIC access + unified thread policy.

The paper (§4.3.1) lists the conflict sources this layer exists to
solve: hardware with exclusive access (Myrinet through BIP), limited
non-shareable resources (SCI mappings), incompatible drivers (BIP vs GM
on the same NIC), and middleware shipping incompatible multithreading
policies.  We model each of these as explicit, testable rules:

- a *claim* on a (fabric, driver) pair is either **cooperative** (made
  through PadicoTM's multiplexer) or **direct** (legacy middleware
  grabbing the NIC itself);
- two cooperative claims always coexist (that is the point of PadicoTM);
- a direct claim conflicts with any other claim on the same fabric when
  the driver is exclusive, and with a *different* driver on the same
  fabric always (BIP vs GM);
- the first thread policy installed in a process wins; installing a
  different one raises :class:`ThreadPolicyError` — unless it is
  installed through PadicoTM, which adapts middleware to the resident
  Marcel policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.net.devices import PARALLEL

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

MARCEL_POLICY = "marcel"


class ArbitrationConflictError(RuntimeError):
    """Two resource claims cannot coexist (exclusive NIC drivers...)."""


class ThreadPolicyError(RuntimeError):
    """A middleware tried to install an incompatible thread policy."""


@dataclass(frozen=True)
class NicClaim:
    """A recorded claim on a host NIC."""

    fabric: str
    driver: str
    owner: str
    cooperative: bool  # True when made through the PadicoTM multiplexer


class ArbitrationCore:
    """Per-process resource multiplexer and conflict detector."""

    def __init__(self, process: "PadicoProcess"):
        self.process = process
        self.claims: list[NicClaim] = []
        self.thread_policy: str | None = None
        self.thread_policy_owner: str | None = None

    # ------------------------------------------------------------------
    # NIC claims
    # ------------------------------------------------------------------
    def claim_nic(self, fabric: str, driver: str, owner: str,
                  cooperative: bool) -> NicClaim:
        """Record a claim on ``fabric`` with ``driver``; may conflict.

        ``cooperative=False`` models legacy middleware opening the NIC
        directly; it is rejected whenever anything else already uses the
        fabric (and vice versa), reproducing the paper's "in the worst
        case, more than one middleware system cannot coexist".
        """
        topo = self.process.runtime.topology
        if fabric not in topo.fabrics:
            raise ValueError(f"unknown fabric {fabric!r}")
        if self.process.host.name not in {
                h for h, hh in topo.hosts.items() if fabric in hh.fabrics}:
            raise ValueError(
                f"host {self.process.host.name!r} has no NIC on {fabric!r}")
        tech = topo.fabrics[fabric].technology
        exclusive = driver in tech.exclusive_drivers

        for prior in self.claims:
            if prior.fabric != fabric:
                continue
            if prior.cooperative and cooperative:
                continue  # both multiplexed by PadicoTM: fine
            if prior.driver != driver:
                raise ArbitrationConflictError(
                    f"incompatible drivers on {fabric!r}: {prior.owner!r} "
                    f"holds {prior.driver!r}, {owner!r} wants {driver!r}")
            if exclusive:
                raise ArbitrationConflictError(
                    f"driver {driver!r} demands exclusive access to "
                    f"{fabric!r} but it is already claimed by {prior.owner!r}")
        claim = NicClaim(fabric, driver, owner, cooperative)
        self.claims.append(claim)
        monitor = self.process.runtime.monitor
        if monitor is not None:
            monitor.on_claim(self.process.name, claim)
        return claim

    def claim_fabric(self, fabric: str) -> None:
        """Cooperatively claim ``fabric`` for PadicoTM's own driver.

        The fabric's paradigm picks the driver: on a parallel network,
        Madeleine multiplexes the native exclusive driver (BIP/GM for
        Myrinet, SISCI for SCI) or ``mad-generic``; on a distributed
        one, the TCP stack.  Idempotent: a claim already held is not
        made twice."""
        tech = self.process.runtime.topology.fabrics[fabric].technology
        if tech.paradigm == PARALLEL:
            driver = tech.exclusive_drivers[0] if tech.exclusive_drivers \
                else "mad-generic"
            owner = "PadicoTM/madeleine"
        else:
            driver, owner = "tcp", "PadicoTM/sockets"
        if NicClaim(fabric, driver, owner, True) not in self.claims:
            self.claim_nic(fabric, driver, owner, cooperative=True)

    def release_claims(self, owner: str) -> int:
        """Drop every claim held by ``owner``; returns how many."""
        kept = [c for c in self.claims if c.owner != owner]
        dropped = len(self.claims) - len(kept)
        self.claims = kept
        monitor = self.process.runtime.monitor
        if monitor is not None and dropped:
            monitor.on_release(self.process.name, owner, dropped)
        return dropped

    # ------------------------------------------------------------------
    # thread policy
    # ------------------------------------------------------------------
    def install_thread_policy(self, policy: str, owner: str,
                              via_padico: bool = True) -> str:
        """Install (or adapt to) a multithreading policy.

        Through PadicoTM, any request is adapted to the resident Marcel
        policy.  A direct install of a second, different policy raises.
        Returns the policy actually in force.
        """
        if self.thread_policy is None:
            effective = MARCEL_POLICY if via_padico else policy
            self.thread_policy = effective
            self.thread_policy_owner = owner
            return effective
        if via_padico or policy == self.thread_policy:
            return self.thread_policy
        raise ThreadPolicyError(
            f"{owner!r} wants thread policy {policy!r} but "
            f"{self.thread_policy_owner!r} already installed "
            f"{self.thread_policy!r}")
