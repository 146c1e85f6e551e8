"""Madeleine channels over parallel-oriented networks.

Madeleine (Aumage et al.) is the paper's low-level library for
parallel-oriented networks.  Its unit of communication is a *channel*: a
static group of processes, each with a logical rank, bound to one
physical network.  A channel here is the framed group transport handed
the :data:`~repro.padicotm.arbitration.drivers.MADELEINE` driver, opened
only over a parallel fabric."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.devices import PARALLEL
from repro.padicotm.arbitration._framed import FramedGroupTransport
from repro.padicotm.arbitration.drivers import MADELEINE

if TYPE_CHECKING:  # pragma: no cover
    from repro.padicotm.runtime import PadicoProcess, PadicoRuntime

__all__ = ["open_channel"]


def open_channel(runtime: "PadicoRuntime", channel_id: str,
                 members: list["PadicoProcess"],
                 fabric: str) -> FramedGroupTransport:
    """Open (or fetch) a Madeleine channel spanning ``members``.

    Channel creation is collective and static, like real Madeleine; the
    same id returns the same channel object to every member.
    """
    registry = getattr(runtime, "_mad_channels", None)
    if registry is None:
        registry = {}
        runtime._mad_channels = registry
    if channel_id in registry:
        chan = registry[channel_id]
        if [p.name for p in chan.members] != [p.name for p in members] or \
                chan.fabric != fabric:
            raise ValueError(
                f"channel {channel_id!r} already open with a different "
                f"member list or fabric")
        return chan
    tech = runtime.topology.fabrics[fabric].technology
    if tech.paradigm != PARALLEL:
        raise ValueError(
            f"Madeleine drives parallel networks; {fabric!r} is "
            f"{tech.paradigm}-oriented (use the TCP driver)")
    chan = FramedGroupTransport(runtime, members, fabric, MADELEINE)
    registry[channel_id] = chan
    return chan
