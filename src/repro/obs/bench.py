"""BenchResult: the uniform shape every benchmark returns.

``benchmarks/harness.py`` used to hand back ad-hoc dicts — a
``{size: seconds}`` here, a ``{"corba": mbps, "mpi": mbps}`` there —
that never landed anywhere durable.  A :class:`BenchResult` is a frozen
(x, value) point series with a unit and free-form metadata, read like a
mapping (``result[1024]``, ``result.values()``) and serialised with
:meth:`to_json`.  A set of results rolls up into a ``padico-bench/1``
document (``BENCH_padico.json``) via :func:`bench_document` and
:func:`bench_json_text`; :func:`validate_bench_doc` checks a
document's shape (``python -m repro.tools.trace bench``).  The gate on
``BENCH_padico.json`` itself is tier-1's byte-compare of the committed
file against a fresh run (``tests/test_paper_claims.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

BENCH_SCHEMA = "padico-bench/1"


@dataclass(frozen=True)
class BenchResult:
    """One benchmark series: ordered (x, value) points plus a unit.

    ``x`` is whatever the series varies over — a message size, a node
    count, or a label like ``"corba"`` for categorical comparisons.
    """

    name: str
    unit: str
    points: tuple[tuple[Any, float], ...]
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points",
                           tuple((x, float(v)) for x, v in self.points))

    # -- mapping-style access ----------------------------------------------
    def __getitem__(self, x: Any) -> float:
        for px, value in self.points:
            if px == x:
                return value
        raise KeyError(x)

    def __contains__(self, x: Any) -> bool:
        return any(px == x for px, _v in self.points)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.xs)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def xs(self) -> tuple[Any, ...]:
        return tuple(x for x, _v in self.points)

    def values(self) -> tuple[float, ...]:
        return tuple(v for _x, v in self.points)

    def items(self) -> tuple[tuple[Any, float], ...]:
        return self.points

    # -- serialisation ------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "unit": self.unit,
            "points": [[x, v] for x, v in self.points],
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
        }

    @classmethod
    def from_json(cls, doc: Mapping[str, Any]) -> "BenchResult":
        return cls(name=doc["name"], unit=doc["unit"],
                   points=tuple((x, v) for x, v in doc["points"]),
                   meta=dict(doc.get("meta", {})))

    def render(self) -> str:
        pts = ", ".join(f"{x}={v:g}" for x, v in self.points)
        return f"{self.name} [{self.unit}]: {pts}"


def bench_document(results: list[BenchResult],
                   meta: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Wrap results in the ``padico-bench/1`` envelope."""
    return {
        "schema": BENCH_SCHEMA,
        "meta": {k: meta[k] for k in sorted(meta)} if meta else {},
        "results": [r.to_json() for r in results],
    }


def bench_json_text(results: list[BenchResult],
                    meta: Mapping[str, Any] | None = None) -> str:
    """The document as a file holds it: sorted keys, one-space indent,
    a trailing newline — byte-stable for the same results."""
    return json.dumps(bench_document(results, meta),
                      sort_keys=True, indent=1) + "\n"


class BenchSchemaError(ValueError):
    """The document does not conform to ``padico-bench/1``."""


def _fail(msg: str) -> None:
    raise BenchSchemaError(msg)


def validate_bench_doc(doc: Any) -> list[str]:
    """Validate a loaded BENCH document; returns the result names.

    Hand-rolled on purpose: the container ships no jsonschema and the
    envelope is four keys deep.
    """
    if not isinstance(doc, dict):
        _fail(f"document must be an object, got {type(doc).__name__}")
    if doc.get("schema") != BENCH_SCHEMA:
        _fail(f"schema must be {BENCH_SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("meta"), dict):
        _fail("meta must be an object")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        _fail("results must be a non-empty list")
    names: list[str] = []
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        if not isinstance(entry, dict):
            _fail(f"{where} must be an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            _fail(f"{where}.name must be a non-empty string")
        if not isinstance(entry.get("unit"), str):
            _fail(f"{where}.unit must be a string")
        if not isinstance(entry.get("meta", {}), dict):
            _fail(f"{where}.meta must be an object")
        points = entry.get("points")
        if not isinstance(points, list) or not points:
            _fail(f"{where}.points must be a non-empty list")
        for j, point in enumerate(points):
            if (not isinstance(point, list)) or len(point) != 2:
                _fail(f"{where}.points[{j}] must be an [x, value] pair")
            if not isinstance(point[1], (int, float)) \
                    or isinstance(point[1], bool):
                _fail(f"{where}.points[{j}][1] must be a number")
        names.append(name)
    return names
