"""Deterministic cooperative simulation kernel.

The kernel multiplexes simulated processes onto a ``(time, seq)``-ordered
event heap and enforces *one-at-a-time* execution: a process runs until
it performs a timed or blocking primitive (``sleep``, ``suspend``, a
:class:`Mailbox` get, ...), at which point control returns to the
kernel, which pops the next event off the heap.  Because the event
order is a total order and only one process ever runs, simulations are
exactly reproducible — a property the test-suite checks.

*How* control moves is "threads as coroutines" with **baton passing**:
each process is an OS thread parked on its own lock, and whichever
thread gives up the run token — a process that yields or exits, the
caller of :meth:`SimKernel.run` — carries the event loop itself
(:meth:`SimKernel._carry`; callbacks run there, in kernel context) and
hands the token straight to the next process's thread: one lock
hand-off per switch, none when a process wakes itself.  Locks and
threads, the one piece of real threading in the simulator, live in
:mod:`repro.sim.backends` (:class:`~repro.sim.backends.ThreadBackend`,
reachable as ``kernel.backend``); this module never touches a thread.
See ``docs/KERNEL.md`` for the determinism and observation contracts.

Two opt-in hooks support the dynamic sanitizer (:mod:`repro.sanitizer`);
both are free when unused:

- :meth:`SimKernel.attach_tracer` — when a tracer is attached, the
  kernel reports scheduling events to it
  (``on_schedule``/``on_fire``/``on_switch``/``on_exit``), which is
  enough for a happens-before race detector to maintain per-process
  vector clocks.  Every call site is guarded by an ``is not None``
  test, so the disabled cost is one attribute load.
- ``SimKernel(seed=...)`` — deterministically permutes the pop order of
  same-instant events (schedule exploration).  With ``seed=None`` (the
  default) the event order is exactly the historical ``(time, seq)``
  order, bit for bit.

Traced or not, a run takes the same path: every event, wake-ups
included, is a fresh :class:`Timer`.

:meth:`SimKernel.at_instant_end` registers work that runs once the
current instant has no event left, before the clock moves: the flow
network settles its rates there, once per instant, however many
changes the instant brought.
"""

from __future__ import annotations

import heapq
import inspect
from typing import Any, Callable, Sequence


class SimShutdown(BaseException):
    """Raised inside a simulated process when the kernel shuts down.

    Derives from ``BaseException`` so that ordinary ``except Exception``
    blocks in user code do not swallow it.
    """


class SimInterrupt(Exception):
    """Raised inside a simulated process interrupted by another process
    (failure injection, cancellation)."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class SimDeadlockError(RuntimeError):
    """All processes are blocked and no event can ever wake them."""


class SimProcessError(RuntimeError):
    """A non-daemon simulated process died with an exception."""

    def __init__(self, process: "SimProcess", exc: BaseException):
        super().__init__(f"process {process.name!r} failed: {exc!r}")
        self.process = process
        self.exc = exc


def _mix(seed: int, seq: int) -> int:
    """Deterministic 32-bit scramble of ``seq`` under ``seed``.

    Used to permute the pop order of same-instant events during seeded
    schedule exploration; plain integer arithmetic, so the permutation
    is identical on every run and every platform.
    """
    x = (seq * 0x9E3779B9 + (seed + 1) * 0x85EBCA6B) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x


class Timer:
    """Handle for a scheduled event; supports :meth:`cancel`.

    ``shuffle`` is 0 in normal runs; under a seeded kernel it carries
    the schedule-exploration permutation key.  ``trace_clock`` is only
    assigned when a tracer is installed (it carries the scheduler's
    vector clock to the instant the event fires).
    """

    __slots__ = ("time", "seq", "shuffle", "_fn", "_args", "cancelled",
                 "trace_clock", "_key")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple,
                 shuffle: int = 0):
        self.time = time
        self.seq = seq
        self.shuffle = shuffle
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.trace_clock = None
        # the heap stores (key, timer) pairs so entry comparisons are
        # C-level tuple comparisons — ``seq`` is unique, so the key
        # alone always decides and the Timer itself is never compared
        self._key = (time, shuffle, seq)

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Timer") -> bool:  # pragma: no cover
        # kept for direct Timer comparisons; the kernel heap compares
        # the precomputed keys instead
        return self._key < other._key


#: the tracer hook surface; a tracer implements any subset of it
_TRACER_HOOKS = ("on_schedule", "on_fire", "on_switch", "on_exit",
                 "on_join", "hb_release", "hb_acquire")


def _each(fns: list) -> Callable:
    """One callable that calls every one of ``fns``, in order."""
    def call(*args: Any) -> None:
        for fn in fns:
            fn(*args)
    return call


class _TracerFan:
    """What ``kernel._tracer`` is whenever it is not None: the attached
    tracers (one, or several — e.g. the sanitizer's race detector plus a
    profiler) behind one callable per hook.

    Hooks dispatch in attach order — deterministic — and a member may
    implement any subset of the hook surface.  A fan is built once per
    member set (attach and detach replace it), so dispatch adds no
    ``getattr`` to the hot path; a hook only one member implements is
    that member's bound method itself.
    """

    __slots__ = ("members",) + _TRACER_HOOKS

    def __init__(self, members: list):
        self.members = members
        for hook in _TRACER_HOOKS:
            fns = [fn for fn in (getattr(m, hook, None) for m in members)
                   if fn is not None]
            setattr(self, hook, fns[0] if len(fns) == 1 else _each(fns))


class SimProcess:
    """A simulated process, run cooperatively by the kernel.

    Created via :meth:`SimKernel.spawn`.  The target function receives
    the process object as its first argument, giving access to
    :meth:`sleep`, :meth:`suspend` and the kernel.  The OS thread behind
    it belongs to ``kernel.backend``.
    """

    # slots keep the per-event attribute traffic on fast descriptors;
    # ``__dict__`` stays available for layers that tack extra state onto
    # a process (corba_principal, security_policy, ...); ``_thread`` and
    # ``_go`` are the execution handles ``kernel.backend`` attaches
    __slots__ = ("kernel", "name", "daemon", "result", "exc", "_fn",
                 "_args", "_state", "_wake_value", "_pending_exc",
                 "_wake_token", "_joiners", "_waiting_on", "_thread",
                 "_go", "__dict__", "__weakref__")

    _STATE_NEW = "new"
    _STATE_READY = "ready"
    _STATE_RUNNING = "running"
    _STATE_BLOCKED = "blocked"
    _STATE_DONE = "done"
    _STATE_FAILED = "failed"

    def __init__(self, kernel: "SimKernel", fn: Callable, args: tuple,
                 name: str, daemon: bool):
        self.kernel = kernel
        self.name = name
        self.daemon = daemon
        self.result: Any = None
        self.exc: BaseException | None = None
        self._fn = fn
        self._args = args
        self._state = self._STATE_NEW
        self._wake_value: Any = None
        self._pending_exc: BaseException | None = None
        self._wake_token = 0  # invalidates stale scheduled wake-ups
        self._joiners: list[SimProcess] = []
        #: what this process is blocked on (a sync primitive, a
        #: SimProcess being joined, or a waker hint from ``suspend``);
        #: drives the deadlock wait-for graph
        self._waiting_on: Any = None
        kernel.backend.create(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the process has neither returned nor failed."""
        return self._state not in (self._STATE_DONE, self._STATE_FAILED)

    @property
    def state(self) -> str:
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimProcess {self.name} {self._state} t={self.kernel.now:.6f}>"

    # ------------------------------------------------------------------
    # primitives usable from inside the process
    # ------------------------------------------------------------------
    def sleep(self, duration: float, *more: float) -> None:
        """Advance this process's virtual time by ``duration`` seconds,
        then by each of ``more`` in turn.

        The process blocks once for the whole sequence: each charge
        after the first is a link of a kernel chain (:meth:`chain`), so
        back-to-back costs take one switch, with the timers, instants
        and ``seq`` numbers that as many single sleeps would take.

        This is the hottest leaf in the simulator (every cooperative
        switch goes through it), so the wake-timer scheduling is
        inlined here — :meth:`SimKernel._schedule_wake` with the
        current wake token; keep the two in step.
        """
        if duration < 0 or (more and min(more) < 0):
            raise ValueError(
                f"negative sleep duration {min((duration,) + more)}")
        kernel = self.kernel
        if kernel._current is not self:
            kernel._check_current(self)  # raises with the full message
        self._wake_token = token = self._wake_token + 1
        kernel._seq = seq = kernel._seq + 1
        shuffle = 0 if kernel.seed is None else _mix(kernel.seed, seq)
        if more:
            timer = Timer(kernel.now + duration, seq, kernel._step,
                          (self, token, kernel._charge, (self, more)),
                          shuffle)
        else:
            timer = Timer(kernel.now + duration, seq, kernel._wake_fn,
                          (self, token, None, None), shuffle)
        if kernel._tracer is not None:
            kernel._tracer.on_schedule(timer)
        heapq.heappush(kernel._heap, (timer._key, timer))
        return kernel.backend.block(self)

    def chain(self, delay: float, fn: Callable, *args: Any) -> Any:
        """Block once; at ``now + delay`` run ``fn(*args)`` in kernel
        context on this process's behalf — a *link* of its chain.

        A link either pushes the next one (:meth:`SimKernel.then`),
        resumes the process within its own event
        (``kernel._wake(proc, proc._wake_token, None)``), or leaves it
        blocked for an ordinary waker (``kernel.wake``).  A link that
        raises delivers the exception to the process at that instant.
        An interrupt or shutdown drops the links still pending.
        Returns the value the process is resumed with.
        """
        if delay < 0:
            raise ValueError(f"negative chain delay {delay}")
        kernel = self.kernel
        kernel._check_current(self)
        kernel._schedule(delay, kernel._step, self, self._arm(), fn, args)
        return kernel.backend.block(self)

    def suspend(self, waiting_on: Any = None) -> Any:
        """Block until another actor calls :meth:`SimKernel.wake` on us.

        Returns the value passed to ``wake``.  ``waiting_on`` is an
        optional hint naming the actor or condition expected to wake us
        — it shows up as the edge label in the deadlock wait-for graph
        (bare calls are labelled with the ``"suspend"`` sentinel).
        """
        kernel = self.kernel
        if kernel._current is not self:
            kernel._check_current(self)
        self._wake_token += 1
        if self._waiting_on is None:
            self._waiting_on = "suspend" if waiting_on is None else waiting_on
        return kernel.backend.block(self)

    def yield_(self) -> None:
        """Let every other ready process at the current instant run."""
        self.kernel._check_current(self)
        return self.sleep(0.0)

    def join(self, target: "SimProcess") -> Any:
        """Block until ``target`` finishes; returns its result."""
        self.join_any((target,))
        if target.exc is not None:
            raise SimProcessError(target, target.exc)
        return target.result

    def join_any(self, targets: Sequence["SimProcess"]) -> "SimProcess":
        """Block until one of ``targets`` has finished and return it —
        the first listed, if several have.  A failed target is returned,
        not raised: its outcome is its ``result`` / ``exc``."""
        kernel = self.kernel
        kernel._check_current(self)
        if not targets:
            raise ValueError("join_any needs at least one target")
        while True:
            for target in targets:
                if not target.alive:
                    if kernel._tracer is not None:
                        kernel._tracer.on_join(self, target)
                    return target
            for target in targets:
                target._joiners.append(self)
            try:
                self.suspend(targets[0] if len(targets) == 1
                             else tuple(targets))
            finally:
                # a later exit must not wake us at another blocking point
                for target in targets:
                    if self in target._joiners:
                        target._joiners.remove(self)

    # ------------------------------------------------------------------
    # control transfer internals
    # ------------------------------------------------------------------
    def _arm(self) -> int:
        """Invalidate stale wake-ups and return a fresh token."""
        self._wake_token += 1
        return self._wake_token

    def _yield(self) -> Any:
        """Give up the run token from an arbitrary call frame (the sync
        primitives block through here)."""
        return self.kernel.backend.block(self)

    def interrupt(self, cause: Any = None) -> None:
        """Inject a :class:`SimInterrupt` into this process.

        May be called from another simulated process or from kernel
        callbacks.  Takes effect at the interrupted process's current
        blocking point (its pending sleep/suspend is abandoned).
        """
        if not self.alive:
            return
        exc = cause if isinstance(cause, BaseException) else SimInterrupt(cause)
        token = self._arm()  # invalidate whatever wake it was waiting for
        self.kernel._schedule_wake(0.0, self, token, None, exc)


class SimKernel:
    """Event loop + virtual clock for a deterministic simulation.

    Use as a context manager in tests so that processes still blocked at
    the end of a run are cleanly shut down::

        with SimKernel() as k:
            k.spawn(lambda p: p.sleep(1.0), name="idler")
            k.run()
    """

    def __init__(self, seed: int | None = None) -> None:
        from repro.sim.backends import ThreadBackend  # lazy: avoids cycle

        self.now: float = 0.0
        #: event heap of ``(key, Timer)`` pairs — entry comparisons stay
        #: C-level tuple comparisons (``seq`` makes every key unique)
        self._heap: list[tuple[tuple[float, int, int], Timer]] = []
        self._seq = 0
        #: the thread hand-off; every yield calls ``backend.block(proc)``
        #: through this attribute at call time — never cache the bound
        #: method, profilers wrap it on the instance after construction
        self.backend = ThreadBackend()
        #: ``_fn`` of every wake timer, bound once: the loop tells wake-ups
        #: by identity (each ``self._wake`` access is a new bound method)
        self._wake_fn = self._wake
        #: the wake-up a callback or :meth:`shutdown` asked the loop for
        self._woken: tuple | None = None
        self._until: float | None = None
        #: what ended the run abnormally; :meth:`_drive` re-raises it
        self._failure: BaseException | None = None
        self._processes: list[SimProcess] = []
        self._current: SimProcess | None = None
        self._running = False
        self._shutdown = False
        #: schedule-exploration seed; None keeps the canonical order
        self.seed = seed
        #: sanitizer/observability hook (see attach_tracer); internal
        #: code reads the attribute directly to stay off the property
        self._tracer: Any = None
        #: events popped and fired by :meth:`run` (cancelled ones excluded)
        self.events_processed = 0
        #: times the run token was given to a process (``on_switch``)
        self.context_switches = 0
        #: cancelled entries discarded by :meth:`run` without firing
        #: (lazy timer cancellation leaves them in the heap until popped)
        self.events_skipped = 0
        #: instant-end callbacks pending (see :meth:`at_instant_end`);
        #: an insertion-ordered dict used as an ordered set
        self._instant_ends: dict[Callable, None] = {}

    # ------------------------------------------------------------------
    # spawning and scheduling
    # ------------------------------------------------------------------
    def spawn(self, fn: Callable, *args: Any, name: str | None = None,
              daemon: bool = False, delay: float = 0.0) -> SimProcess:
        """Create a simulated process that starts at ``now + delay``.

        ``fn`` is called as ``fn(process, *args)``.  If a non-daemon
        process raises, :meth:`run` re-raises it as
        :class:`SimProcessError`; daemon process failures are recorded on
        ``process.exc`` but do not abort the simulation.
        """
        if inspect.isgeneratorfunction(fn):
            raise TypeError(
                f"process body {getattr(fn, '__name__', fn)!r} is a "
                f"generator function and would never run: bodies are "
                f"plain functions that call p.sleep()/p.suspend() directly")
        if name is None:
            name = f"proc-{len(self._processes)}"
        proc = SimProcess(self, fn, args, name, daemon)
        self._processes.append(proc)
        proc._state = SimProcess._STATE_READY
        token = proc._arm()
        self._schedule_wake(delay, proc, token)
        return proc

    # ------------------------------------------------------------------
    # tracer attachment
    # ------------------------------------------------------------------
    @property
    def tracer(self) -> Any:
        """The attached scheduling tracer, if any: that object when there
        is one, a :class:`_TracerFan` dispatching in attach order when
        there are several."""
        fan = self._tracer
        if fan is not None and len(fan.members) == 1:
            return fan.members[0]
        return fan

    def attach_tracer(self, tracer: Any) -> None:
        """Install a scheduling tracer, composing with any already there.

        ``tracer`` may implement any subset of ``_TRACER_HOOKS``; one
        that implements none (a :class:`~repro.obs.TraceRecorder`, which
        reads :attr:`events_processed` / :attr:`context_switches`) is
        not installed.  Pairs with :meth:`detach_tracer`.
        """
        if not any(hasattr(tracer, hook) for hook in _TRACER_HOOKS):
            return
        members = [] if self._tracer is None else self._tracer.members
        self._tracer = _TracerFan(members + [tracer])

    def detach_tracer(self, tracer: Any) -> None:
        """Remove a tracer attached with :meth:`attach_tracer`.

        Idempotent: detaching a tracer that is not attached is a no-op,
        so uninstall paths need no bookkeeping of their own.
        """
        if self._tracer is not None:
            members = [m for m in self._tracer.members if m is not tracer]
            self._tracer = _TracerFan(members) if members else None

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` in kernel context after ``delay`` seconds.

        The callback must not block; it may spawn processes, wake them,
        or schedule further callbacks.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._schedule(delay, fn, *args)

    def at_instant_end(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` in kernel context once no event is left at the
        current instant: before the clock moves on, before
        :meth:`run` returns at ``until`` and when the heap drains.

        It is not an event — it takes no ``seq`` and no
        ``events_processed`` count — but it may push events, at ``now``
        too, and the instant goes on with them.  Callbacks run in
        registration order; registering one that is already pending
        (``==``) folds into it.  Under a tracer every registration is a
        ``hb_release`` and the call an ``hb_acquire`` of ``fn``, so the
        callback happens after everything that asked for it.
        """
        self._instant_ends[fn] = None
        if self._tracer is not None:
            self._tracer.hb_release(fn)

    def _end_instant(self) -> None:
        """Run the pending instant-end callbacks, in registration order;
        one a callback registers runs in the next round."""
        ends = list(self._instant_ends)
        self._instant_ends.clear()
        for fn in ends:
            if self._tracer is not None:
                self._tracer.hb_acquire(fn)
            fn()

    def _schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        self._seq += 1
        shuffle = 0 if self.seed is None else _mix(self.seed, self._seq)
        timer = Timer(self.now + delay, self._seq, fn, args, shuffle)
        if self._tracer is not None:
            self._tracer.on_schedule(timer)
        heapq.heappush(self._heap, (timer._key, timer))
        return timer

    def _schedule_wake(self, delay: float, proc: SimProcess, token: int,
                       value: Any = None,
                       exc: BaseException | None = None) -> Timer:
        """Schedule a process wake-up: a timer whose ``_fn`` is
        ``_wake_fn``, which the loop recognises and resumes ``proc``
        from directly."""
        return self._schedule(delay, self._wake_fn, proc, token, value, exc)

    # ------------------------------------------------------------------
    # waking processes
    # ------------------------------------------------------------------
    def wake(self, proc: SimProcess, value: Any = None) -> None:
        """Schedule ``proc`` (blocked in :meth:`SimProcess.suspend`) to
        resume at the current instant with ``value``."""
        self._schedule_wake(0.0, proc, proc._wake_token, value)

    # ------------------------------------------------------------------
    # chains: a blocked process's back-to-back charges
    # ------------------------------------------------------------------
    def then(self, proc: SimProcess, delay: float, fn: Callable,
             *args: Any) -> None:
        """From a link of ``proc``'s chain: push the next link,
        ``fn(*args)`` at ``now + delay`` — the timer, instant and
        ``seq`` the woken process would have pushed itself, since
        nothing else can push between a timer's firing and its
        process's next block."""
        self._schedule(delay, self._step, proc, proc._wake_token, fn, args)

    def _step(self, proc: SimProcess, token: int, fn: Callable,
              args: tuple) -> None:
        """Fire one link of ``proc``'s chain: advance its wake token as
        the resumed process's next block would, then run the link.  A
        stale token (an interrupt, a shutdown) drops the rest."""
        if token != proc._wake_token or proc._state in ("done", "failed"):
            return
        proc._wake_token = token + 1
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - delivered to the owner
            self._wake(proc, proc._wake_token, exc)

    def _charge(self, proc: SimProcess, rest: tuple) -> None:
        """The link after one charge of a multi-duration sleep: the
        last charge is a plain wake timer."""
        if len(rest) > 1:
            self.then(proc, rest[0], self._charge, proc, rest[1:])
        else:
            self._schedule_wake(rest[0], proc, proc._wake_token)

    def _wake(self, proc: SimProcess, token: int,
              exc: BaseException) -> None:
        """Ask the loop to resume ``proc`` within the current event: it
        delivers once the calling timer callback (``WaitQueue._expire``,
        in tail position) returns, or :meth:`shutdown` drives it.  Wake
        *timers* never call this: the loop takes their arguments."""
        self._woken = (proc, token, None, exc)

    def _on_process_exit(self, proc: SimProcess) -> None:
        if self._tracer is not None:
            self._tracer.on_exit(proc)
        for joiner in proc._joiners:
            if joiner.alive:
                self._schedule_wake(0.0, joiner, joiner._wake_token)
        proc._joiners.clear()

    def _check_current(self, proc: SimProcess) -> None:
        if self._current is not proc:
            raise RuntimeError(
                f"primitive called from {proc.name!r} which does not hold "
                f"the run token (current={getattr(self._current, 'name', None)!r})")

    @property
    def current(self) -> SimProcess | None:
        """The process currently holding the run token, if any."""
        return self._current

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the final virtual time.  With ``until=None`` a run ends
        when the heap drains, and a drained heap with a *non-daemon*
        process still alive is a deadlock: nothing can ever wake it, so
        :class:`SimDeadlockError` is raised, carrying the wait-for graph.
        Blocked daemons (server loops) are exempt, and so is a run
        bounded by ``until``, which stops with work pending by design.
        Either way what is still blocked stays blocked (use
        :meth:`shutdown`, or the context-manager form, to terminate it).
        An exception raised in kernel context — on whichever thread was
        carrying the loop — and the :class:`SimProcessError` of a failed
        non-daemon process are raised here, in the caller's thread.
        """
        if self._running:
            raise RuntimeError("kernel is already running")
        self._running = True
        self._until = until
        try:
            self._drive()
        finally:
            self._running = False
        if until is None:
            stranded = [p.name for p in self._processes
                        if p.alive and not p.daemon]
            if stranded:
                from repro.sim.waitgraph import format_wait_graph
                raise SimDeadlockError(
                    f"event heap drained at t={self.now} with non-daemon "
                    f"process(es) still blocked: {', '.join(stranded)}\n"
                    + format_wait_graph(self))
        return self.now

    def _drive(self) -> None:
        """Carry the loop on the calling thread, park it while process
        threads hold the run token, and re-raise what a carrier stored."""
        try:
            proc = self._carry()
            if proc is not None:
                self.backend.run_until_back(proc)
        finally:
            failure, self._failure = self._failure, None
        if failure is not None:
            raise failure

    def _carry(self, exited: SimProcess | None = None) -> SimProcess | None:
        """Run the event loop on the thread that just gave up the run
        token (``exited``: because its process finished) until the token
        has a new holder.

        Returns the process to resume — wake value delivered,
        ``on_switch`` reported, ``_current`` set; the calling thread
        hands over unless that is its own process — or None when the
        token goes back to the caller of :meth:`run` / :meth:`shutdown`:
        heap drained, ``until`` reached, no run in progress (any more),
        or an exception, stored for :meth:`_drive`.  Whenever no event
        is left at ``now`` — the next one is later, or there is none —
        the instant-end callbacks run first.
        """
        self._current = None
        heap = self._heap
        heappop = heapq.heappop
        wake_fn = self._wake_fn
        ends = self._instant_ends
        until = self._until
        try:
            if exited is not None:
                self._on_process_exit(exited)
                if exited._state == SimProcess._STATE_FAILED \
                        and not exited.daemon and not self._shutdown:
                    raise SimProcessError(exited, exited.exc)
            wake = self._woken  # shutdown()'s request, if any
            while True:
                if wake is not None:
                    self._woken = None
                    proc, token, value, exc = wake
                    if token == proc._wake_token \
                            and proc._state not in ("done", "failed"):
                        if exc is not None:
                            proc._pending_exc = exc
                        proc._wake_value = value
                        self.context_switches += 1
                        if self._tracer is not None:
                            self._tracer.on_switch(proc)
                        self._current = proc
                        return proc  # (else stale: interrupted or finished)
                if not self._running:
                    return None
                if not heap:
                    if ends:
                        self._end_instant()
                        wake = self._woken
                        continue
                    if until is not None and until > self.now:
                        self.now = until
                    return None
                key, timer = heap[0]
                if timer.cancelled:
                    heappop(heap)
                    self.events_skipped += 1
                    wake = None
                elif ends and key[0] > self.now:
                    # the instant is over: its callbacks run before the
                    # clock moves (and may push events at it again)
                    self._end_instant()
                    wake = self._woken
                elif until is not None and key[0] > until:
                    self.now = until
                    return None
                else:
                    heappop(heap)
                    self.now = key[0]
                    self.events_processed += 1
                    if self._tracer is not None:
                        self._tracer.on_fire(timer)
                    if timer._fn is wake_fn:
                        wake = timer._args  # what _wake() would leave
                    else:
                        timer._fn(*timer._args)
                        wake = self._woken
        except BaseException as exc:  # noqa: BLE001 - re-raised by _drive
            self._failure = exc
            return None

    def run_until_complete(self, proc: SimProcess) -> Any:
        """Run the simulation until ``proc`` finishes; return its result."""
        self.run()
        # run() already raised for a stranded non-daemon: what is left
        # is a daemon target
        if proc.alive:
            from repro.sim.waitgraph import format_wait_graph
            raise SimDeadlockError(
                f"process {proc.name!r} did not complete by "
                f"t={self.now} (state={proc.state})\n"
                + format_wait_graph(self))
        if proc.exc is not None:
            raise SimProcessError(proc, proc.exc)
        return proc.result

    def blocked_processes(self) -> list[SimProcess]:
        """Processes that are alive but not scheduled to run."""
        return [p for p in self._processes
                if p.alive and p._state == SimProcess._STATE_BLOCKED]

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Terminate every live process by raising :class:`SimShutdown`
        at its current blocking point — and at every later one, until
        the body has unwound and its thread has ended."""
        self._shutdown = True
        for proc in self._processes:
            # ``while``: a body that blocks again while unwinding (a
            # ``finally:`` that sleeps) is shut down again, not re-parked
            while proc._state in (SimProcess._STATE_BLOCKED,
                                  SimProcess._STATE_READY):
                self._wake(proc, proc._arm(), SimShutdown())
                self._drive()

    def __enter__(self) -> "SimKernel":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
