"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Every check is exact (integer equality); each criterion also carries a
wall-clock budget that is asserted.
"""

import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import psqcayley
from psqcayley import (
    CayleyGraph,
    bezout_witness,
    build_report,
    clique_certificate,
    closed_form_distance_table,
    connector_count_formula,
    distance_sweep,
    element_order,
    enumerate_connectors,
    exact_max_clique,
    exact_max_independent_set,
    independence_certificate,
    independence_internal_edges,
    make_prime_triple,
    snake_walk,
    verify_block_adjacency,
    verify_block_partition,
    verify_coloring,
    verify_fiber_structure,
    verify_walk,
)

from helpers import crt_components, neighbors, residue_sum_color

T235 = make_prime_triple(2, 3, 5)
T237 = make_prime_triple(2, 3, 7)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)
# the CLI child imports the same package these tests import
_SRC = str(Path(psqcayley.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))),
}


def _report(num: int, ok: bool, budget_s: float, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} ({elapsed:.2f}s / {budget_s:g}s) {detail}")


def test_criterion_01_connecting_set_count():
    start = time.perf_counter()
    cs = enumerate_connectors(T235)
    scan = {m for m in range(1, 900) if element_order(m, T235) in T235.moduli}
    ok = (
        len(cs) == 28
        and set(cs) == scan
        and connector_count_formula(T235) == 28
        and len(enumerate_connectors(T357)) == 68
    )
    elapsed = time.perf_counter() - start
    _report(1, ok, 1.0, elapsed, f"|C|=28 at (2,3,5) matches 900-exponent scan; 68 at (3,5,7)")
    assert ok
    assert elapsed < 1.0


def test_criterion_02_regular_eulerian_connected():
    start = time.perf_counter()
    degrees_ok = all(len(neighbors(G235, u)) == 28 for u in range(900))
    u, v, w = bezout_witness(T235)
    identity_ok = u * 225 + v * 100 + w * 36 == 1
    reached = sum(d >= 0 for d in G235.bfs(0))
    ok = degrees_ok and 28 % 2 == 0 and identity_ok and reached == 900
    elapsed = time.perf_counter() - start
    _report(2, ok, 1.0, elapsed, f"degree 28 everywhere, even; bezout holds; BFS reached {reached}/900")
    assert ok
    assert elapsed < 1.0


def test_criterion_03_girth_and_nonplanarity_certificates():
    start = time.perf_counter()
    ok = True
    for t in (T235, T237):
        g = CayleyGraph.from_triple(t)
        tri, k5 = clique_certificate(t)[:3], clique_certificate(t)[:5]
        ok = ok and all(g.adjacent(tri[i], tri[j]) for i in range(3) for j in range(i + 1, 3))
        ok = ok and all(g.adjacent(k5[i], k5[j]) for i in range(5) for j in range(i + 1, 5))
    elapsed = time.perf_counter() - start
    _report(3, ok, 1.0, elapsed, "triangle and K5 certificates pairwise adjacent at (2,3,5), (2,3,7)")
    assert ok
    assert elapsed < 1.0


def test_criterion_04_exact_clique_on_closed_neighborhood():
    start = time.perf_counter()
    hood = [0] + neighbors(G235, 0)
    exact = exact_max_clique(hood, G235.adjacent)
    cert = clique_certificate(T235)
    cert_ok = all(G235.adjacent(cert[i], cert[j]) for i in range(5) for j in range(i + 1, 5))
    ok = len(hood) == 29 and len(exact) == 5 and cert_ok
    elapsed = time.perf_counter() - start
    _report(4, ok, 5.0, elapsed, f"exact max clique on 29-vertex closed neighborhood = {len(exact)} = gamma")
    assert ok
    assert elapsed < 5.0


def test_criterion_05_chromatic():
    start = time.perf_counter()
    result = verify_coloring(T235, G235)
    ok = result.proper and result.edges_checked == 12600 and result.chromatic == 5
    elapsed = time.perf_counter() - start
    _report(5, ok, 1.0, elapsed, f"coloring proper over all {result.edges_checked} edges; chi=5 with criterion 4")
    assert ok
    assert elapsed < 1.0


def test_criterion_06_independence():
    start = time.perf_counter()
    cert = independence_certificate(T235)
    scan = independence_internal_edges(cert, G235)
    mis235 = exact_max_independent_set(T235)
    mis357 = exact_max_independent_set(T357)
    ok = (
        cert.size == 180
        and scan.pairs_checked == 16110
        and scan.internal_edges == 0
        and len(mis235) == 6
        and len(mis357) == 15
    )
    elapsed = time.perf_counter() - start
    _report(6, ok, 10.0, elapsed, f"|S|=180 with 0 internal edges; index MIS 6 at (2,3,5), 15 at (3,5,7)")
    assert ok
    assert elapsed < 10.0


def test_criterion_07_structure_checks():
    start = time.perf_counter()
    checklist = verify_fiber_structure(G235)
    partition = verify_block_partition(G235)
    block_adj = verify_block_adjacency(G235)
    ok = checklist.all_pass and partition and block_adj
    elapsed = time.perf_counter() - start
    _report(7, ok, 10.0, elapsed, f"eight fiber checks {checklist.as_dict()}, partition, block adjacency at n=900")
    assert ok
    assert elapsed < 10.0


def test_criterion_08_distances_and_diameter():
    start = time.perf_counter()
    full = distance_sweep(G235, sources=None)
    sweep_ok = full.sources == 900 and full.pairs_checked == 810000 and full.mismatches == 0 and full.max_distance == 6
    g7 = CayleyGraph.from_triple(T357)
    ecc7 = max(g7.bfs(0))
    sampled = distance_sweep(g7, 10, seed=1)
    sampled_ok = ecc7 == 6 and sampled.pairs_checked >= 100_000 and sampled.mismatches == 0
    ok = sweep_ok and sampled_ok
    elapsed = time.perf_counter() - start
    _report(
        8,
        ok,
        60.0,
        elapsed,
        f"(2,3,5): all 810000 pairs match closed form, max 6; (3,5,7): ecc 6, {sampled.pairs_checked} pairs, 0 mismatches",
    )
    assert ok
    assert elapsed < 60.0


def test_criterion_09_hamiltonicity():
    start = time.perf_counter()
    walk235 = snake_walk(T235)
    ok = walk235.length == 900 and verify_walk(walk235, G235)
    walk357 = snake_walk(T357)
    g7 = CayleyGraph.from_triple(T357)
    first, last = walk357.endpoints
    ok = (
        ok
        and walk357.length == 11025
        and verify_walk(walk357, g7)
        and crt_components(first, T357) == (0, 0, 0)
        and crt_components(last, T357) == (1, 0, 0)
        and g7.adjacent(first, last)
    )
    reported = build_report(T357)["hamiltonian"]
    ok = ok and reported == {"kind": "cycle", "verified": True, "endpoints": [first, last]}
    elapsed = time.perf_counter() - start
    _report(9, ok, 5.0, elapsed, "verified 900-cycle at (2,3,5); verified 11025-cycle at (3,5,7), closing edge (1,0,0) -> (0,0,0)")
    assert ok
    assert elapsed < 5.0


def test_criterion_10_byte_identical_reports(tmp_path):
    start = time.perf_counter()
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "psqcayley",
                "params",
                "--primes",
                "2,3,5",
                "--seed",
                "7",
                "--out",
                str(path),
            ],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
    ok = paths[0].read_bytes() == paths[1].read_bytes() and len(paths[0].read_bytes()) > 0
    elapsed = time.perf_counter() - start
    _report(10, ok, 60.0, elapsed, "two seeded runs produced byte-identical JSON reports")
    assert ok
    assert elapsed < 60.0


def test_color_class_balance_supports_criterion_05():
    counts = Counter(residue_sum_color(v, T235) for v in range(900))
    assert counts == {c: 180 for c in range(5)}


def test_distance_table_supports_criterion_08():
    table = closed_form_distance_table(T235)
    assert table[0] == 0
    assert max(table) == 6
    assert table[30] == 6
