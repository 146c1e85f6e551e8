"""Analysis configuration: layer DAG, allowed exceptions, allowlists.

The layer order encodes the paper's PadicoTM stack (§4.3: personality
above abstraction above arbitration) extended with the surrounding
reproduction layers.  An import is *upward* — and rejected — when the
importing file's layer sits below the imported module's layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Layer table, lowest first.  Entries are (layer name, module prefixes);
#: prefixes are matched longest-first, so ``repro.padicotm.arbitration``
#: wins over ``repro.padicotm``.  A module may import its own layer and
#: any layer below it.
DEFAULT_LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    # the analyser reads the stack's source, never imports it
    ("analysis",    ("repro.analysis",)),
    ("sim",         ("repro.sim",)),
    # sim-san instruments the kernel/sync layer only; it must never see
    # the stack above it (the runtime notifies its duck-typed monitor)
    ("sanitizer",   ("repro.sanitizer",)),
    # observability records what the stack reports through the same
    # duck-typed monitor hooks; it sees only the kernel clock, never the
    # layers that feed it
    ("obs",         ("repro.obs",)),
    ("net",         ("repro.net",)),
    ("arbitration", ("repro.padicotm.arbitration",)),
    ("abstraction", ("repro.padicotm.abstraction",)),
    ("personality", ("repro.padicotm.personality",)),
    # the PadicoTM facade: runtime wiring + the dynamic module registry
    ("padicotm",    ("repro.padicotm",)),
    ("soap",        ("repro.soap",)),
    ("middleware",  ("repro.corba", "repro.mpi")),
    ("ccm",         ("repro.ccm",)),
    ("gridccm",     ("repro.core",)),
    ("deploy",      ("repro.deploy",)),
    ("tools",       ("repro.tools",)),
)

#: Registered escape hatches: non-top-level upward references that are
#: architecturally intentional.  Keyed by (project-relative file path,
#: imported module); the value is the justification shown in docs and
#: ``--list-exceptions``.  Only ``if TYPE_CHECKING:`` blocks and
#: function-local lazy imports may be registered here — a module-level
#: upward import is never allowed because it would make the layering
#: cyclic at runtime, not just in the type graph.
DEFAULT_LAYER_EXCEPTIONS: dict[tuple[str, str], str] = {
    # The arbitration core multiplexes I/O for PadicoProcess objects that
    # the runtime facade (a higher layer) creates; the names appear only
    # in type annotations, and at runtime the facade calls *down* into
    # arbitration, never the reverse.
    ("src/repro/padicotm/arbitration/core.py", "repro.padicotm.runtime"):
        "TYPE_CHECKING only: annotates the PadicoProcess/runtime handles "
        "the facade passes down when it drives the arbitration core.",
    ("src/repro/padicotm/abstraction/circuit.py", "repro.padicotm.runtime"):
        "TYPE_CHECKING only: circuits annotate the runtime/process pair "
        "that owns them.",
    ("src/repro/padicotm/abstraction/vlink.py", "repro.padicotm.runtime"):
        "TYPE_CHECKING only: virtual links annotate the runtime/process "
        "pair that owns them.",
    ("src/repro/padicotm/personality/aio.py", "repro.padicotm.runtime"):
        "TYPE_CHECKING only: AIO control blocks annotate the owning "
        "PadicoProcess.",
    ("src/repro/padicotm/personality/bsd.py", "repro.padicotm.runtime"):
        "TYPE_CHECKING only: BSD sockets annotate the owning "
        "PadicoProcess.",
}

#: (project-relative file path, rule id) pairs exempted wholesale, each
#: with its reason.  This is the one way to exempt a finding: keep it
#: short and justified.
DEFAULT_FILE_ALLOW: dict[tuple[str, str], str] = {
    # The cooperative kernel's lock hand-off is the one place real
    # threading primitives are legal: each SimProcess is an OS thread
    # parked on its own lock and the run token serialises execution.
    # ThreadBackend (backends.py) is the only class in that file and
    # the only switch mechanism; kernel.py itself is threading-free, so
    # this is the single ker-thread exemption.
    ("src/repro/sim/backends.py", "ker-thread"):
        "ThreadBackend is the one-at-a-time lock hand-off (baton passing) "
        "between the run() caller and the process threads",
}


@dataclass
class AnalysisConfig:
    """Everything the engine and checkers need to know about a project."""

    layers: tuple[tuple[str, tuple[str, ...]], ...] = DEFAULT_LAYERS
    layer_exceptions: dict[tuple[str, str], str] = \
        field(default_factory=lambda: dict(DEFAULT_LAYER_EXCEPTIONS))
    file_allow: dict[tuple[str, str], str] = \
        field(default_factory=lambda: dict(DEFAULT_FILE_ALLOW))

    def __post_init__(self) -> None:
        # longest-prefix-first lookup order, precomputed once
        self._prefix_rank: list[tuple[str, int, str]] = []
        for rank, (layer, prefixes) in enumerate(self.layers):
            for prefix in prefixes:
                self._prefix_rank.append((prefix, rank, layer))
        self._prefix_rank.sort(key=lambda e: -len(e[0]))

    def layer_of(self, module: str) -> tuple[int, str] | None:
        """(rank, layer name) for a dotted module, or None if unlayered."""
        for prefix, rank, layer in self._prefix_rank:
            if module == prefix or module.startswith(prefix + "."):
                return rank, layer
        return None

    def is_allowed(self, path: str, rule: str) -> bool:
        return (path, rule) in self.file_allow

    def exception_for(self, path: str, imported: str) -> str | None:
        """Justification if (file, imported module) is a registered
        escape hatch; prefix-matches the imported module so an exception
        for a package covers its submodules."""
        probe = imported
        while probe:
            just = self.layer_exceptions.get((path, probe))
            if just is not None:
                return just
            if "." not in probe:
                return None
            probe = probe.rsplit(".", 1)[0]
        return None


DEFAULT_CONFIG = AnalysisConfig()
