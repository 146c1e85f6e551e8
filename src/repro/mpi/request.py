"""Nonblocking-communication request handles."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.sim.kernel import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import Comm


class Request:
    """Handle for an in-flight ``isend``/``irecv`` operation.

    The operation runs on a helper thread (a Marcel thread in the real
    runtime), and the helper is the request: its return value or its
    exception is the operation's outcome.
    """

    def __init__(self, comm: "Comm", helper: SimProcess):
        self._comm = comm
        self._helper = helper

    def test(self) -> bool:
        """Non-blocking completion check."""
        return not self._helper.alive

    def wait(self) -> Any:
        """Block the owning rank until the operation completes.

        Returns the received object for ``irecv`` requests, None for
        sends.  Re-raises the helper's own error.
        """
        helper = self._comm.proc.join_any((self._helper,))
        if helper.exc is not None:
            raise helper.exc
        return helper.result

    @staticmethod
    def waitall(requests: list["Request"]) -> list[Any]:
        """Wait on every request; returns their values in order."""
        return [r.wait() for r in requests]
