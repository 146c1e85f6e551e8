"""POSIX asynchronous I/O personality on VLink.

``aio_write``/``aio_read`` return immediately with a control block; the
operation proceeds on a helper thread (a Marcel thread in the paper's
runtime), and the control block reads its outcome from that helper:
``aio_error`` is in progress while it runs, ``aio_suspend`` blocks until
any listed helper has ended and ``aio_return`` yields its result or
raises its error, mirroring POSIX.2 Aio semantics."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.padicotm.abstraction.vlink import VLinkEndpoint
from repro.sim.kernel import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess

#: aio_error states (POSIX uses errno values; we use symbolic ones)
IN_PROGRESS = "EINPROGRESS"
DONE = "0"
FAILED = "EIO"


class AioControlBlock:
    """The aiocb: one asynchronous operation, run by ``helper``."""

    def __init__(self, helper: SimProcess) -> None:
        self.helper = helper


class AioPersonality:
    """Aio veneer bound to one PadicoTM process."""

    def __init__(self, process: "PadicoProcess"):
        self.process = process

    def aio_write(self, endpoint: VLinkEndpoint, data: Any,
                  nbytes: float) -> AioControlBlock:
        """Queue an asynchronous send; returns immediately."""
        def write(proc: SimProcess) -> float:
            endpoint.send(proc, data, nbytes)
            return nbytes

        return AioControlBlock(
            self.process.spawn(write, name="aio-write", daemon=True))

    def aio_read(self, endpoint: VLinkEndpoint) -> AioControlBlock:
        """Queue an asynchronous receive; returns immediately."""
        return AioControlBlock(self.process.spawn(
            endpoint.recv, name="aio-read", daemon=True))

    @staticmethod
    def aio_error(cb: AioControlBlock) -> str:
        if cb.helper.alive:
            return IN_PROGRESS
        return FAILED if cb.helper.exc is not None else DONE

    @staticmethod
    def aio_suspend(proc: SimProcess, cbs: list[AioControlBlock]) -> None:
        """Block until at least one of ``cbs`` completes."""
        proc.join_any([cb.helper for cb in cbs])

    @staticmethod
    def aio_return(cb: AioControlBlock) -> Any:
        if cb.helper.alive:
            raise RuntimeError("operation still in progress")
        if cb.helper.exc is not None:
            raise cb.helper.exc
        return cb.helper.result
