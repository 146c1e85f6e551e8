"""Grid runtime: the simulated world and per-process PadicoTM instances.

:class:`PadicoRuntime` owns the simulation kernel, the topology and the
flow network, and tracks every :class:`PadicoProcess` (one simulated OS
process running PadicoTM on some host).  A PadicoProcess hosts
middleware modules, its arbitration core, and any number of simulated
threads (the paper's Marcel threads)."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.net.flows import FlowNetwork
from repro.net.topology import Host, Topology
from repro.sim.kernel import SimKernel, SimProcess


class _MonitorFan:
    """Fans runtime monitor hooks out to every attached monitor.

    The instrumented layers call duck-typed ``on_*`` methods on
    ``runtime.monitor``; the fan forwards each call to the attached
    monitors that implement it, in attach order (deterministic), so a
    typestate monitor and a trace recorder compose without knowing about
    each other.  Dispatchers are cached per hook name on first use.
    """

    def __init__(self, members: list):
        self._members = members  # shared with the runtime; mutated in place

    def __getattr__(self, name: str) -> Callable:
        if not name.startswith("on_"):
            raise AttributeError(name)
        members = self._members

        def dispatch(*args: Any, **kwargs: Any) -> None:
            for member in members:
                fn = getattr(member, name, None)
                if fn is not None:
                    fn(*args, **kwargs)

        dispatch.__name__ = name
        self.__dict__[name] = dispatch  # cache for subsequent lookups
        return dispatch


class PadicoRuntime:
    """The simulated grid: kernel + network + process registry.

    Typical setup::

        runtime = PadicoRuntime(topology)
        p0 = runtime.create_process("a0", "server")
        p1 = runtime.create_process("a1", "client")
        ... load modules, spawn threads ...
        runtime.kernel.run()
    """

    def __init__(self, topology: Topology, kernel: SimKernel | None = None):
        self.kernel = kernel or SimKernel()
        self.topology = topology
        #: replaceable before the first process is created (a
        #: differential test installs its from-scratch solver oracle,
        #: ``ScratchFlowNetwork``, here)
        self.network = FlowNetwork(self.kernel, topology)
        self.processes: dict[str, PadicoProcess] = {}
        #: VLink listener registry: (process_name, port) -> VLinkListener
        self.vlink_listeners: dict[tuple[str, str], Any] = {}
        #: attached monitors (typestate, observability recorders, ...);
        #: the list identity is shared with the fan, so attach/detach
        #: mutate it in place
        self._monitors: list[Any] = []
        self._monitor_fan = _MonitorFan(self._monitors)

    # ------------------------------------------------------------------
    # observation: monitors and trace recorders
    # ------------------------------------------------------------------
    @property
    def monitor(self) -> Any:
        """The duck-typed hook surface the instrumented layers call.

        ``None`` when nothing is attached (every call site guards on
        ``is not None``, so the uninstalled cost is one attribute load);
        otherwise a fan that forwards each ``on_*`` call to the attached
        monitors that implement it, in attach order.
        """
        return self._monitor_fan if self._monitors else None

    def observe(self, monitor: Any) -> Any:
        """Attach a monitor/recorder to this runtime; returns it.

        Calls ``monitor.on_attach(self)`` first if the monitor defines
        it (a :class:`repro.obs.TraceRecorder` uses this to bind the
        kernel clock and install its scheduler tracer).
        """
        if any(member is monitor for member in self._monitors):
            raise ValueError(f"monitor {monitor!r} is already attached")
        hook = getattr(monitor, "on_attach", None)
        if hook is not None:
            hook(self)
        self._monitors.append(monitor)
        self._sync_monitor()
        return monitor

    def unobserve(self, monitor: Any) -> None:
        """Detach a monitor attached with :meth:`observe`.  Idempotent."""
        for i, member in enumerate(self._monitors):
            if member is monitor:
                del self._monitors[i]
                break
        else:
            return
        hook = getattr(monitor, "on_detach", None)
        if hook is not None:
            hook(self)
        self._sync_monitor()

    def _sync_monitor(self) -> None:
        # layers that cannot see the runtime (the flow network lives
        # below it) get the current hook surface pushed down
        self.network.monitor = self.monitor

    @contextmanager
    def trace(self) -> Iterator[Any]:
        """``with runtime.trace() as tr:`` — record a scoped trace.

        Attaches a fresh :class:`repro.obs.TraceRecorder` for the body
        and detaches it on exit; the recorder stays usable afterwards
        (export, metrics, span inspection).
        """
        from repro.obs import TraceRecorder  # lazy: obs is optional

        recorder = TraceRecorder()
        self.observe(recorder)
        try:
            yield recorder
        finally:
            self.unobserve(recorder)

    def create_process(self, host: str | Host, name: str) -> "PadicoProcess":
        """Boot a PadicoTM process on ``host`` under a unique ``name``."""
        hostname = host.name if isinstance(host, Host) else host
        if hostname not in self.topology.hosts:
            raise ValueError(f"unknown host {hostname!r}")
        if name in self.processes:
            raise ValueError(f"duplicate process name {name!r}")
        proc = PadicoProcess(self, self.topology.hosts[hostname], name)
        self.processes[name] = proc
        return proc

    def process(self, name: str) -> "PadicoProcess":
        try:
            return self.processes[name]
        except KeyError:
            raise ValueError(f"no such PadicoTM process {name!r}") from None

    def run(self, until: float | None = None) -> float:
        return self.kernel.run(until=until)

    def shutdown(self) -> None:
        self.kernel.shutdown()

    def __enter__(self) -> "PadicoRuntime":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


class PadicoProcess:
    """One simulated OS process running the PadicoTM runtime.

    Middleware modules are loaded into :attr:`modules`; network access
    goes through :attr:`arbitration`; simulated threads are spawned with
    :meth:`spawn`.
    """

    def __init__(self, runtime: PadicoRuntime, host: Host, name: str):
        # imports here to avoid a cycle (arbitration needs runtime types)
        from repro.padicotm.arbitration.core import ArbitrationCore
        from repro.padicotm.modules import ModuleRegistry

        self.runtime = runtime
        self.host = host
        self.name = name
        self.arbitration = ArbitrationCore(self)
        self.modules = ModuleRegistry(self)
        #: default VLink security policy (see repro.deploy.security)
        self.security_policy = None
        self._threads: list[SimProcess] = []

    def spawn(self, fn: Callable, *args: Any, name: str | None = None,
              daemon: bool = False, delay: float = 0.0) -> SimProcess:
        """Start a simulated thread inside this process.

        The target runs as ``fn(sim_process, *args)``; by PadicoTM
        convention middleware passes this PadicoProcess explicitly where
        needed.
        """
        label = f"{self.name}/{name or f'thr{len(self._threads)}'}"
        thread = self.runtime.kernel.spawn(fn, *args, name=label,
                                           daemon=daemon, delay=delay)
        # tag the thread with its hosting OS process: middleware uses
        # this to enforce process isolation (a stub created by one
        # process's ORB cannot be driven from another process's threads)
        thread.padico_process = self
        self._threads.append(thread)
        return thread

    @property
    def threads(self) -> list[SimProcess]:
        return list(self._threads)

    def __repr__(self) -> str:
        return f"<PadicoProcess {self.name} on {self.host.name}>"
