"""PadicoTM — the paper's portable communication runtime (§4.3).

PadicoTM decouples the interface middleware systems *see* from the
interface actually used at low level, through three layers:

1. **Arbitration** (:mod:`repro.padicotm.arbitration`): the unique entry
   point to networking resources.  One driver per low-level paradigm,
   in one table — Madeleine for parallel networks (Myrinet, SCI), the
   TCP stack for LAN/WAN, and loopback for same-host peers — plus a
   core that multiplexes NIC access, detects driver conflicts (BIP vs
   GM style) and enforces a single thread policy across middleware.
2. **Abstraction** (:mod:`repro.padicotm.abstraction`): *both* a
   parallel-oriented interface (:class:`Circuit`: logical ranks,
   messages) and a distributed-oriented one (:class:`VLink`: dynamic
   streams), each automatically mapped — straight or cross-paradigm —
   onto the best arbitrated driver for the actual hardware between the
   endpoints.
3. **Personality** (:mod:`repro.padicotm.personality`): thin syntax
   adapters (Madeleine, FastMessages on Circuit; BSD sockets, POSIX AIO
   on VLink) so legacy middleware links against familiar APIs with no
   source change.

Middleware systems (MPI, CORBA ORBs, SOAP, ...) are dynamically loaded
*modules* (:mod:`repro.padicotm.modules`) of a :class:`PadicoProcess`.
"""

from repro.padicotm.runtime import PadicoProcess, PadicoRuntime
from repro.padicotm.arbitration.core import (
    ArbitrationConflictError,
    ArbitrationCore,
    ThreadPolicyError,
)
from repro.padicotm.abstraction.circuit import Circuit
from repro.padicotm.abstraction.vlink import (
    ConnectionRefusedError,
    VLink,
    VLinkEndpoint,
)
from repro.padicotm.modules import (
    ModuleError,
    ModuleRegistry,
    PadicoModule,
)

__all__ = [
    "PadicoRuntime",
    "PadicoProcess",
    "ArbitrationCore",
    "ArbitrationConflictError",
    "ThreadPolicyError",
    "Circuit",
    "VLink",
    "VLinkEndpoint",
    "ConnectionRefusedError",
    "PadicoModule",
    "ModuleRegistry",
    "ModuleError",
]
