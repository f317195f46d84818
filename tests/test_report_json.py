"""`report.report_bytes` writes the report's JSON itself: the bytes are
those of `json.dumps(report, indent=2, ensure_ascii=True)` plus a newline,
with and without timings and for false verdicts too.  A string that JSON
would escape is refused rather than written differently."""

import json

import pytest

from psqcayley import graph
from psqcayley.group import make_prime_triple
from psqcayley.report import build_report, report_bytes

LADDER = [(2, 3, 5), (2, 3, 7), (3, 5, 7), (3, 5, 11), (5, 7, 11), (7, 11, 13)]


def _dumps(value) -> bytes:
    return (json.dumps(value, indent=2, ensure_ascii=True) + "\n").encode("ascii")


@pytest.mark.parametrize("timings", [False, True], ids=["plain", "timings"])
@pytest.mark.parametrize("primes", LADDER, ids=lambda p: ",".join(map(str, p)))
def test_report_bytes_equal_json_dumps(primes, timings):
    rep = build_report(make_prime_triple(*primes), 12345, timings)
    assert (rep["timings"] is None) != timings
    assert report_bytes(rep) == _dumps(rep)


def test_report_bytes_equal_json_dumps_on_false_verdicts(monkeypatch):
    # the plant n/2 at (2,3,5), row +450 of the fault matrix: the degree
    # turns odd, so the eulerian verdict and the certificates' checks fail
    t = make_prime_triple(2, 3, 5)
    members = tuple(sorted(graph.enumerate_connectors(t) + (t.n // 2,)))
    monkeypatch.setattr(graph, "enumerate_connectors", lambda t: members)
    rep = build_report(t, 7, True)
    assert rep["eulerian"] is False and rep["chromatic"]["coloringProper"] is False
    assert report_bytes(rep) == _dumps(rep)


def test_report_bytes_equal_json_dumps_on_empty_and_nested_values():
    value = {"a": [], "b": {}, "c": [1, -2, {"d": None, "e": [True, False]}], "f": 1e-06, "g": 0.125, "h": "x y"}
    assert report_bytes(value) == _dumps(value)


@pytest.mark.parametrize(
    "value",
    ['a"b', "a\\b", "a\nb", "a\tb", "\x7f", "é", {1: 2}, {"nan": float("nan")}, {"inf": float("inf")}, {1, 2}],
    ids=repr,
)
def test_report_bytes_refuses_what_json_would_escape_or_cannot_write_canonically(value):
    with pytest.raises(ValueError):
        report_bytes({"key": value})
