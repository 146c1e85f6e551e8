"""Network accounting: who moved how many bytes over what.

The flow engine already meters every byte per simplex link
(:attr:`FlowNetwork.link_bytes`); this module rolls those meters up into
fabric- and host-level reports — the observability a grid operator (or a
benchmark harness) wants after a run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.flows import FlowNetwork
from repro.net.topology import Link


@dataclass
class LinkStats:
    link: Link
    bytes: float

    def utilisation(self, elapsed: float) -> float:
        """Mean utilisation over ``elapsed`` seconds (0..1)."""
        if elapsed <= 0:
            return 0.0
        return min(self.bytes / (self.link.bandwidth * elapsed), 1.0)

    def to_json(self, elapsed: float) -> dict:
        return {
            "link": self.link.name,
            "src": self.link.src,
            "dst": self.link.dst,
            "bytes": self.bytes,
            "utilisation": self.utilisation(elapsed),
        }


@dataclass
class FabricStats:
    """Per-fabric roll-up.  ``total_bytes`` is *link-level* volume
    (SNMP-style): a 1 MB transfer over a 2-hop route counts 2 MB."""

    name: str
    technology: str
    total_bytes: float = 0.0
    links: list[LinkStats] = field(default_factory=list)

    @property
    def busiest(self) -> LinkStats | None:
        return max(self.links, key=lambda ls: ls.bytes, default=None)

    def to_json(self, elapsed: float) -> dict:
        return {
            "technology": self.technology,
            "total_bytes": self.total_bytes,
            "links": [ls.to_json(elapsed)
                      for ls in sorted(self.links,
                                       key=lambda ls: ls.link.name)],
        }


@dataclass
class NetworkReport:
    """Aggregated traffic report for one simulation run."""

    elapsed: float
    fabrics: dict[str, FabricStats] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return sum(f.total_bytes for f in self.fabrics.values())

    def _link_stats(self):
        for name in sorted(self.fabrics):
            for ls in self.fabrics[name].links:
                yield ls

    def tx_bytes(self, host: str) -> float:
        """Bytes sent out of ``host`` (links whose source is the host)."""
        return sum(ls.bytes for ls in self._link_stats()
                   if ls.link.src == host)

    def rx_bytes(self, host: str) -> float:
        """Bytes received by ``host`` (links whose destination is it)."""
        return sum(ls.bytes for ls in self._link_stats()
                   if ls.link.dst == host)

    def host_bytes(self, host: str) -> float:
        """Bytes that crossed any NIC of ``host`` (tx + rx).

        A self-loop link (src == dst, e.g. a localhost wire constructed
        directly) appears in both the tx and rx sums but crossed the
        host's NIC once, so its volume is subtracted back out rather
        than double-counted.
        """
        self_loop = sum(ls.bytes for ls in self._link_stats()
                        if ls.link.src == host and ls.link.dst == host)
        return self.tx_bytes(host) + self.rx_bytes(host) - self_loop

    def to_json(self) -> dict:
        """Serialise the report in the same spirit as
        :meth:`repro.obs.BenchResult.to_json`: plain JSON types, keys in
        deterministic (sorted) order."""
        return {
            "elapsed": self.elapsed,
            "total_bytes": self.total_bytes,
            "fabrics": {name: self.fabrics[name].to_json(self.elapsed)
                        for name in sorted(self.fabrics)},
        }

    def format(self) -> str:
        """Human-readable table."""
        lines = [f"network traffic over {self.elapsed * 1e3:.3f} ms "
                 f"(virtual):"]
        for name in sorted(self.fabrics):
            f = self.fabrics[name]
            if f.total_bytes == 0:
                continue
            busiest = f.busiest
            busy_txt = ""
            if busiest is not None and self.elapsed > 0:
                busy_txt = (f"  busiest {busiest.link.name} "
                            f"({busiest.utilisation(self.elapsed):.0%})")
            lines.append(f"  {name:12s} ({f.technology:14s}) "
                         f"{f.total_bytes / 1e6:10.2f} MB{busy_txt}")
        if len(lines) == 1:
            lines.append("  (no traffic)")
        return "\n".join(lines)


def format_timeline(network: FlowNetwork, width: int = 60,
                    max_rows: int = 40) -> str:
    """ASCII timeline of completed transfers (one row per flow).

    Rows show when each transfer occupied the network relative to the
    whole run — a poor man's Gantt chart for spotting serialisation
    (stairs) vs overlap (stacked bars)."""
    log = network.flow_log[:max_rows]
    if not log:
        return "(no transfers recorded)"
    t_end = max(end for _s, end, _b, _l, _ok in network.flow_log)
    if t_end <= 0:
        return "(no transfers recorded)"
    lines = [f"transfer timeline, 0 .. {t_end * 1e3:.3f} ms "
             f"({len(network.flow_log)} flows"
             + (f", first {max_rows} shown" if len(network.flow_log)
                > max_rows else "") + "):"]
    for start, end, nbytes, link, ok in log:
        a = int(start / t_end * (width - 1))
        b = max(int(end / t_end * (width - 1)), a + 1)
        bar = " " * a + ("#" if ok else "x") * (b - a)
        bar = bar.ljust(width)
        label = f"{nbytes / 1e6:8.2f} MB  {link}"
        lines.append(f"|{bar}| {label}")
    return "\n".join(lines)


def collect_report(network: FlowNetwork,
                   elapsed: float | None = None) -> NetworkReport:
    """Build a :class:`NetworkReport` from a flow network's meters."""
    if elapsed is None:
        elapsed = network.kernel.now
    report = NetworkReport(elapsed)
    link_bytes = network.link_bytes  # derived on read: once per report
    for fabric_name, fabric in network.topology.fabrics.items():
        fstats = FabricStats(fabric_name, fabric.technology.name)
        for link in fabric.links():
            moved = link_bytes.get(link, 0.0)
            if moved:
                fstats.links.append(LinkStats(link, moved))
        fstats.total_bytes = sum(ls.bytes for ls in fstats.links)
        report.fabrics[fabric_name] = fstats
    return report
