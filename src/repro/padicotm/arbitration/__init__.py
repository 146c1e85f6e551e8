"""PadicoTM arbitration layer (paper §4.3.1).

The arbitration layer is the *unique entry point* to low-level
resources: network interfaces and threading policy.  It arbitrates one
driver per low-level paradigm — Madeleine for parallel-oriented networks
and the TCP stack for distributed-oriented links, plus shared memory
between processes on one host — from one driver table
(:mod:`~repro.padicotm.arbitration.drivers`, which also holds the one
message leg Circuit and VLink send and receive through), and a core that
multiplexes NIC access and detects the conflicts the paper motivates
(exclusive Myrinet drivers, incompatible thread policies)."""

from repro.padicotm.arbitration.core import (
    ArbitrationConflictError,
    ArbitrationCore,
    NicClaim,
    ThreadPolicyError,
)
from repro.padicotm.arbitration.drivers import LOOPBACK, MADELEINE, TCP, Driver

__all__ = [
    "ArbitrationCore",
    "ArbitrationConflictError",
    "ThreadPolicyError",
    "NicClaim",
    "Driver",
    "MADELEINE",
    "TCP",
    "LOOPBACK",
]
