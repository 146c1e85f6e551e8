"""World construction and SPMD execution helpers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.mpi.communicator import Comm
from repro.padicotm.abstraction.circuit import Circuit
from repro.padicotm.modules import PadicoModule
from repro.sim.kernel import SimProcess

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess, PadicoRuntime


class MpiModule(PadicoModule):
    """The MPI middleware as a loadable PadicoTM module.

    Mirrors the paper's MPICH/Madeleine port: written against pthread
    semantics but adapted to the resident Marcel policy by PadicoTM.
    """

    name = "mpi"
    version = "mpich-madeleine/1.1.2"
    thread_policy = "pthread"


class World:
    """An MPI world spanning a set of PadicoTM processes."""

    def __init__(self, circuit: Circuit, comms: list[Comm]):
        self.circuit = circuit
        self.comms = comms

    @property
    def size(self) -> int:
        return len(self.comms)

    def comm(self, rank: int) -> Comm:
        return self.comms[rank]


def create_world(runtime: "PadicoRuntime", name: str,
                 processes: list["PadicoProcess"],
                 fabric: str | None = None) -> World:
    """Build an MPI world: one rank per PadicoTM process.

    Loads the MPI module into each process (idempotent per process) and
    establishes the underlying Circuit, letting the PadicoTM selector
    pick the network unless ``fabric`` forces one.
    """
    for p in processes:
        if not p.modules.is_loaded(MpiModule.name):
            p.modules.load(MpiModule())
    circuit = Circuit.establish(runtime, f"mpi:{name}", processes,
                                fabric=fabric)
    group = list(range(len(processes)))
    comms = [Comm(circuit, group, r, f"mpi:{name}")
             for r in range(len(processes))]
    return World(circuit, comms)


def spmd(world: World, fn: Callable, *args: Any,
         name: str = "rank") -> list[SimProcess]:
    """Run ``fn(proc, comm, *args)`` once per rank of ``world``.

    Returns the spawned simulated threads (their ``result`` attributes
    carry the per-rank return values after the kernel runs).
    """
    threads = []
    for rank, comm in enumerate(world.comms):

        def runner(proc: SimProcess, comm: Comm = comm) -> Any:
            comm.bind(proc)
            return fn(proc, comm, *args)

        threads.append(comm.process.spawn(runner, name=f"{name}{rank}"))
    return threads
