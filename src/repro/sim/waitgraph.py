"""Deadlock wait-for graph: who is blocked on what, and who holds it.

When a simulation deadlocks, the stuck-process *names* alone rarely
identify the bug; the useful artefact is the wait-for graph — each
blocked process, the primitive it is blocked on, and (where the
primitive has an owner, like a lock) the process that must act to
release it.  :func:`format_wait_graph` renders that graph from the
bookkeeping the sync primitives leave on ``SimProcess._waiting_on``;
the kernel embeds it in every :class:`~repro.sim.kernel.SimDeadlockError`.
"""

from __future__ import annotations

from typing import Any


def _label(target: Any, numbers: dict[int, int]) -> str:
    """Stable per-report label like ``Mailbox#1`` for a primitive.

    Numbers are assigned in first-seen order over the (deterministic)
    blocked-process list, so two processes blocked on the same object
    visibly share a label.
    """
    num = numbers.setdefault(id(target), len(numbers) + 1)
    return f"{type(target).__name__}#{num}"


def _describe(target: Any, numbers: dict[int, int]) -> str:
    """Human description of one wait target, with holder when known."""
    from repro.sim.kernel import SimProcess
    from repro.sim.sync import Mailbox, SimEvent, SimLock, WaitQueue

    if isinstance(target, WaitQueue) and target.owner is not None:
        target = target.owner  # report the primitive, not its queue
    if target is None:
        return "suspend() with no registered waker"
    if isinstance(target, str):
        # waker hint recorded by ``suspend(waiting_on=...)``; the bare
        # sentinel means suspend() was called with no hint at all
        if target == "suspend":
            return "bare suspend() awaiting an external wake()"
        return f"suspend() awaiting {target}"
    if isinstance(target, SimProcess):
        return f"join on process {target.name!r} (state={target.state})"
    if isinstance(target, tuple):  # join_any over several processes
        names = ", ".join(repr(p.name) for p in target)
        return f"join on any of processes {names}"
    label = _label(target, numbers)
    if isinstance(target, SimLock):
        holder = target.owner.name if target.owner is not None else None
        return f"{label} held by {holder!r}"
    if isinstance(target, SimEvent):
        return f"{label} ({'set' if target.is_set else 'unset'})"
    if isinstance(target, Mailbox):
        return f"{label} ({len(target)} item(s) queued)"
    if isinstance(target, WaitQueue):
        return label
    return f"{label} {target!r}"


def wait_edges(kernel: Any) -> list[tuple[Any, Any]]:
    """(blocked process, wait target) pairs, in process-creation order.

    The target is whatever the process registered when it blocked: a
    sync primitive, a :class:`SimProcess` being joined (a tuple of them
    for :meth:`~repro.sim.kernel.SimProcess.join_any`), or a string
    waker hint (the ``"suspend"`` sentinel for a bare ``suspend()``).
    """
    return [(proc, proc._waiting_on)
            for proc in kernel.blocked_processes()]


def format_wait_graph(kernel: Any) -> str:
    """Render the full wait-for graph of every blocked process."""
    edges = wait_edges(kernel)
    if not edges:
        return "wait-for graph: no blocked processes"
    numbers: dict[int, int] = {}
    lines = ["wait-for graph:"]
    for proc, target in edges:
        lines.append(
            f"  {proc.name} waits on {_describe(target, numbers)}")
    return "\n".join(lines)
