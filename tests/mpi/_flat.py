"""Test-side oracle: the flat rank-order collective schedules."""

from repro.mpi import Comm, create_world


class FlatComm(Comm):
    """Every collective over the whole group as one block: classic
    rank-order binomial trees that ignore the site layout (crossings
    are still counted against the real one)."""

    def _sitemap(self, root, ordered):
        return self._shared().one_block

    def _derive(self, name, members, cls=None, **extra):
        return flat(super()._derive(name, members, cls, **extra))


def flat(comm):
    """Re-class ``comm`` (a Comm or a CartComm) onto the oracle."""
    if not isinstance(comm, FlatComm):
        comm.__class__ = FlatComm if type(comm) is Comm else type(
            "Flat" + type(comm).__name__, (FlatComm, type(comm)), {})
    return comm


def flat_world(rt, name, procs):
    """:func:`repro.mpi.create_world` with every rank a :class:`FlatComm`."""
    world = create_world(rt, name, procs)
    for comm in world.comms:
        flat(comm)
    return world
