"""Human-readable sanitizer reports.

One place that renders everything the sanitizer knows — recorded races
(both access sites), typestate violations, unreleased arbitration
claims — so test failures and the example demo print one coherent
artefact instead of scattered fragments.
"""

from __future__ import annotations

from typing import Any


def render_races(detector: Any) -> str:
    """Every recorded race, both access sites each."""
    if not detector.races:
        return "races: none detected"
    lines = [f"races: {len(detector.races)} detected"]
    for race in detector.races:
        lines.append("  " + race.render().replace("\n", "\n  "))
    return "\n".join(lines)


def render_typestate(monitor: Any) -> str:
    """Typestate violations plus any unreleased arbitration claims."""
    lines = []
    if monitor.violations:
        lines.append(f"typestate violations: {len(monitor.violations)}")
        for violation in monitor.violations:
            lines.append(f"  {violation}")
    else:
        lines.append("typestate violations: none")
    pending = monitor.unreleased_claims()
    if pending:
        lines.append("unreleased NIC claims:")
        for process, owner, count in pending:
            lines.append(f"  {process}: {owner} holds {count} claim(s)")
    return "\n".join(lines)


def render_summary(detector: Any = None, monitor: Any = None,
                   watch: Any = None) -> str:
    """Full sanitizer report; any part may be absent."""
    parts = ["sim-san report"]
    if detector is not None:
        parts.append(render_races(detector))
    if monitor is not None:
        parts.append(render_typestate(monitor))
    if watch is not None:
        parts.append(f"publish-window violations: "
                     f"{len(watch.violations) or 'none'}")
        parts.extend(f"  {v}" for v in watch.violations)
    return "\n".join(parts)
