"""Exactness of the bitset kernel against plain list and set references."""

import random

import pytest

from psqcayley import (
    CayleyGraph,
    OracleBudget,
    build_report,
    closed_form_distance_classes,
    closed_form_distance_table,
    distance_sweep,
    independence_certificate,
    make_prime_triple,
    run_verification,
    verify_coloring,
)
from psqcayley import oracles, parameters
from psqcayley.connectors import ConnectingSet

TRIPLES = [make_prime_triple(*p) for p in ((2, 3, 5), (2, 3, 7), (3, 5, 7))]
IDS = ["2,3,5", "2,3,7", "3,5,7"]


def reference_bfs(n: int, members, source: int) -> list[int]:
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    for u in queue:
        for c in members:
            v = (u + c) % n
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_bfs_levels_match_reference_bfs(t):
    g = CayleyGraph.from_triple(t)
    for source in (0, 1, t.n // 3, t.n - 1):
        dist = reference_bfs(t.n, g.cset.members, source)
        levels = g.bfs_levels(source)
        assert len(levels) == max(dist) + 1
        for k, level in enumerate(levels):
            assert level == g.bitset(v for v in range(t.n) if dist[v] == k)
        assert g.bfs(source) == dist


def test_rotate_and_neighborhood_match_set_arithmetic():
    g = CayleyGraph.from_triple(TRIPLES[0])
    n = g.triple.n
    rng = random.Random(3)
    for _ in range(20):
        s = set(rng.sample(range(n), rng.randrange(1, 60)))
        k = rng.randrange(-n, 2 * n)
        assert g.rotate(g.bitset(s), k) == g.bitset((v + k) % n for v in s)
        reach = {w for v in s for w in g.neighbors(v)}
        assert g.neighborhood(g.bitset(s)) == g.bitset(reach)


def test_internal_edges_matches_pair_count():
    g = CayleyGraph.from_triple(TRIPLES[0])
    rng = random.Random(5)
    for _ in range(20):
        s = sorted(rng.sample(range(g.triple.n), rng.randrange(2, 80)))
        pairs = sum(g.adjacent(u, v) for i, u in enumerate(s) for v in s[i + 1 :])
        assert g.internal_edges(g.bitset(s)) == pairs


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_planted_edge_counts_once(t):
    g = CayleyGraph.from_triple(t)
    members = g.cset.members
    cert = independence_certificate(t).vertices
    assert g.internal_edges(g.bitset(cert)) == 0
    u = cert[len(cert) // 2]
    for c in (members[0], members[-1]):  # one connector below n/2, one above
        v = (u + c) % t.n
        blocked = set(g.neighbors(v))
        planted = [w for w in cert if w not in blocked] + [u, v]
        assert g.internal_edges(g.bitset(planted)) == 1


def test_bitset_rejects_out_of_range_vertices():
    g = CayleyGraph.from_triple(TRIPLES[0])
    for bad in (-1, 900):
        with pytest.raises(ValueError):
            g.bitset([0, bad])
        with pytest.raises(ValueError):
            g.bitset(v for v in (0, bad))
    assert g.bitset(v for v in (3, 0, 3)) == 0b1001
    assert g.bitset([]) == 0


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_periodic_matches_set_reference(t):
    g = CayleyGraph.from_triple(t)
    a, b, c = t.primes
    rng = random.Random(t.n)
    for period in (a * a, b * b, c * c, a * b * c, a * b * c * c, t.n):
        for residues in ([], [0], [period - 1], rng.sample(range(period), period // 3), range(period)):
            chosen = set(residues)
            expected = g.bitset(v for v in range(t.n) if v % period in chosen)
            assert g.periodic(period, residues) == expected
            assert g.periodic(period, iter(residues)) == expected


def test_periodic_rejects_bad_period_and_residue():
    g = CayleyGraph.from_triple(TRIPLES[0])  # n = 900
    for period in (7, 899, 1800, 0, -4):
        with pytest.raises(ValueError):
            g.periodic(period, [0])
    for residue in (-1, 30):
        with pytest.raises(ValueError):
            g.periodic(30, [0, residue])


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_distance_classes_match_table(t):
    g = CayleyGraph.from_triple(t)
    table = closed_form_distance_table(t)
    expected = {k: g.bitset(d for d in range(t.n) if table[d] == k) for k in set(table)}
    assert closed_form_distance_classes(t, g) == expected


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_levels_from_vertex_zero_are_built_once(t, monkeypatch):
    built = []
    levels = CayleyGraph._levels
    monkeypatch.setattr(CayleyGraph, "_levels", lambda g, s: built.append(s) or levels(g, s))
    g = CayleyGraph.from_triple(t)
    first = g.bfs_levels(0)
    assert isinstance(first, tuple) and g.bfs_levels(0) is first
    assert g.is_connected().connected and parameters.diameter(t, g).bfs_eccentricity == 6
    oracles.distance_sweep(g, OracleBudget(bfs_sources=1, seed=3))
    assert built.count(0) == 1
    built.clear()
    build_report(t)
    assert built.count(0) == 1
    built.clear()
    run_verification(t, OracleBudget(bfs_sources=1, seed=3))
    assert built.count(0) == 1


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
@pytest.mark.parametrize("shift", [1, 99])
def test_one_wrong_table_entry_gives_one_mismatch_per_source(t, shift, monkeypatch):
    g = CayleyGraph.from_triple(t)
    classes = closed_form_distance_classes(t, g)
    bit = 1 << (t.n // 2 + 1)
    k = next(k for k, e in classes.items() if e & bit)
    classes[k] ^= bit
    classes[k + shift] = classes.get(k + shift, 0) | bit
    monkeypatch.setattr(oracles, "closed_form_distance_classes", lambda _t, _g: classes)
    report = distance_sweep(g, OracleBudget(bfs_sources=4, seed=1))
    assert report.sources == 5
    assert report.mismatches == 5
    assert report.max_distance == 6


def test_sweep_counts_unreached_vertices():
    # only the c²-order connectors: the graph splits into a²b² components
    t = TRIPLES[0]
    gamma_class = CayleyGraph.from_triple(t).cset.class_gamma_sq
    g = CayleyGraph(t, ConnectingSet(gamma_class, (), (), gamma_class))
    table = closed_form_distance_table(t)
    budget = OracleBudget(bfs_sources=3, seed=2)
    report = distance_sweep(g, budget)
    expected = 0
    for s in [0] + sorted(random.Random(2).sample(range(1, t.n), 3)):
        dist = reference_bfs(t.n, gamma_class, s)
        expected += sum(dist[v] != table[(v - s) % t.n] for v in range(t.n))
    assert report.mismatches == expected > t.n
    assert report.max_distance == 2


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_bad_coloring_is_improper(t, monkeypatch):
    good = parameters.residue_sum_color
    clash = CayleyGraph.from_triple(t).cset.members[0]  # adjacent to vertex 0
    monkeypatch.setattr(
        parameters, "residue_sum_color", lambda v, t: good(0, t) if v == clash else good(v, t)
    )
    result = verify_coloring(t)
    assert result.proper is False
    assert result.edges_checked == t.n * CayleyGraph.from_triple(t).degree // 2


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_colour_clash_in_last_period_is_improper(t, monkeypatch):
    # the colouring repeats with period a·b·c²; a clash planted at the last
    # vertex is invisible to anything that reads the first period only
    good = parameters.residue_sum_color
    v = t.n - 1
    w = v - CayleyGraph.from_triple(t).cset.members[0]  # adjacent to v
    assert v >= t.n - t.alpha * t.beta * t.m_gamma and good(v, t) != good(w, t)
    monkeypatch.setattr(
        parameters, "residue_sum_color", lambda u, t: good(w, t) if u == v else good(u, t)
    )
    assert verify_coloring(t).proper is False
