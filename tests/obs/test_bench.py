"""BenchResult and the ``padico-bench/1`` document schema."""

import json

import pytest

from repro.obs import (BENCH_SCHEMA, BenchResult, BenchSchemaError,
                       bench_document, bench_json_text, validate_bench_doc)


def _curve():
    return BenchResult(name="corba.bandwidth", unit="MB/s",
                       points=((1024, 10), (4096, 40.5)),
                       meta={"orb": "omniORB4"})


def test_mapping_style_access():
    r = _curve()
    assert r[1024] == 10.0
    assert isinstance(r[1024], float)  # ints coerced on construction
    assert 4096 in r and 9999 not in r
    assert list(r) == [1024, 4096]
    assert len(r) == 2
    assert r.xs == (1024, 4096)
    assert r.values() == (10.0, 40.5)
    assert r.items() == ((1024, 10.0), (4096, 40.5))
    with pytest.raises(KeyError):
        r[123]


def test_json_round_trip_and_render():
    r = _curve()
    assert BenchResult.from_json(r.to_json()) == r
    assert r.render().startswith("corba.bandwidth [MB/s]:")
    # meta keys serialise sorted for byte-stable documents
    multi = BenchResult("x", "u", ((1, 1),), meta={"b": 2, "a": 1})
    assert list(multi.to_json()["meta"]) == ["a", "b"]


def test_document_write_and_validate(tmp_path):
    path = tmp_path / "BENCH_padico.json"
    path.write_text(bench_json_text([_curve()], meta={"mode": "quick"}))
    doc = json.loads(path.read_text())
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["meta"] == {"mode": "quick"}
    assert validate_bench_doc(doc) == ["corba.bandwidth"]


def test_document_meta_defaults_empty():
    doc = bench_document([_curve()])
    assert doc["meta"] == {}
    assert validate_bench_doc(doc) == ["corba.bandwidth"]


def _valid_doc():
    return bench_document([_curve()], meta={"mode": "quick"})


@pytest.mark.parametrize("corrupt, fragment", [
    (lambda d: [], "must be an object"),
    (lambda d: {**d, "schema": "padico-bench/0"}, "schema must be"),
    (lambda d: {**d, "meta": None}, "meta must be an object"),
    (lambda d: {**d, "results": []}, "non-empty list"),
    (lambda d: {**d, "results": ["x"]}, "results[0] must be an object"),
    (lambda d: {**d, "results": [{**d["results"][0], "name": ""}]},
     "name must be a non-empty string"),
    (lambda d: {**d, "results": [{**d["results"][0], "unit": None}]},
     "unit must be a string"),
    (lambda d: {**d, "results": [{**d["results"][0], "points": []}]},
     "points must be a non-empty list"),
    (lambda d: {**d, "results": [{**d["results"][0], "points": [[1]]}]},
     "must be an [x, value] pair"),
    (lambda d: {**d, "results": [{**d["results"][0],
                                  "points": [[1, "fast"]]}]},
     "must be a number"),
    (lambda d: {**d, "results": [{**d["results"][0],
                                  "points": [[1, True]]}]},
     "must be a number"),  # bools are not measurements
])
def test_validate_rejects_malformed(corrupt, fragment):
    with pytest.raises(BenchSchemaError) as err:
        validate_bench_doc(corrupt(_valid_doc()))
    assert fragment in str(err.value)
