from collections import Counter

import pytest

from psqcayley import (
    CayleyGraph,
    WalkCertificate,
    make_prime_triple,
    snake_walk,
    verify_walk,
    walk_lines,
)

from psqcayley.group import crt_basis

from helpers import crt_components, order_scan_connectors, triples_with_group_order_at_most

T235 = make_prime_triple(2, 3, 5)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)


def _oracle_problems(walk: WalkCertificate, t) -> list[str]:
    # adjacency from the brute-force orders, never from the closed form
    n, connectors = t.n, order_scan_connectors(t)
    verts = walk.vertices
    problems = []
    if sorted(verts) != list(range(n)):
        problems.append("not a permutation of [0, n)")
    if any((v - u) % n not in connectors for u, v in zip(verts, verts[1:])):
        problems.append("a step is no edge")
    if (verts[0] - verts[-1]) % n not in connectors:
        problems.append("the last vertex is not adjacent to the first")
    return problems


def test_cycle_at_smallest_even_instance():
    walk = snake_walk(T235)
    assert len(walk.vertices) == 900
    assert verify_walk(walk, G235)


@pytest.mark.parametrize("t", [T235, T357], ids=["2,3,5", "3,5,7"])
def test_cycle_against_brute_force_orders(t):
    assert _oracle_problems(snake_walk(t), t) == []


def test_first_three_vertices_run_along_top_axis():
    walk = snake_walk(T235)
    comps = [crt_components(v, T235) for v in walk.vertices[:3]]
    assert comps == [(0, 0, 0), (0, 0, 24), (0, 0, 23)]


def test_cycle_closure_edge():
    walk = snake_walk(T235)
    assert crt_components(walk.vertices[-1], T235) == (1, 0, 0)
    assert G235.adjacent(walk.vertices[-1], walk.vertices[0])


def test_open_spanning_path_fails_closure():
    # reverse a tail segment so that every step stays an edge but the ends
    # are no longer adjacent
    verts = snake_walk(T357).vertices
    g = CayleyGraph.from_triple(T357)
    k = next(
        k
        for k in range(1, len(verts) - 1)
        if g.adjacent(verts[k - 1], verts[-1]) and not g.adjacent(verts[0], verts[k])
    )
    path = verts[:k] + verts[k:][::-1]
    assert all(g.adjacent(u, v) for u, v in zip(path, path[1:]))
    assert sorted(path) == list(range(T357.n))
    assert not g.adjacent(path[0], path[-1])
    assert not verify_walk(WalkCertificate(path), g)
    assert _oracle_problems(WalkCertificate(path), T357) == [
        "the last vertex is not adjacent to the first"
    ]


def test_tampered_walk_fails():
    walk = snake_walk(T235)
    verts = list(walk.vertices)
    verts[10], verts[500] = verts[500], verts[10]
    assert not verify_walk(WalkCertificate(tuple(verts)), G235)


def test_duplicate_vertex_fails():
    walk = snake_walk(T235)
    verts = list(walk.vertices)
    verts[10] = verts[11]
    assert not verify_walk(WalkCertificate(tuple(verts)), G235)


def test_walk_of_wrong_length_fails():
    # one entry short, or one entry more (the first vertex again, which
    # closes the cycle through an existing edge): neither is a spanning cycle
    walk = snake_walk(T235)
    assert not verify_walk(WalkCertificate(walk.vertices[:-1]), G235)
    assert not verify_walk(WalkCertificate(walk.vertices + walk.vertices[:1]), G235)


def test_every_desk_scale_triple_verifies():
    triples = triples_with_group_order_at_most(50_000)
    assert len(triples) == 20 and sum(t.alpha == 3 for t in triples) == 3
    for t in triples + [make_prime_triple(5, 7, 11), make_prime_triple(7, 11, 13)]:
        walk = snake_walk(t)
        assert verify_walk(walk, CayleyGraph.from_triple(t)), t.primes
        assert walk.endpoints == (0, crt_basis(t)[0]), t.primes


def test_top_fiber_coverage():
    # each top-digit fiber holds a²b² vertices, so any spanning walk meets it
    # exactly that often
    walk = snake_walk(T235)
    counts = Counter(v // 36 for v in walk.vertices)
    assert counts == {t: 36 for t in range(25)}


def test_walk_export_lines():
    lines = list(walk_lines(snake_walk(T235)))
    assert lines[0] == "cycle"
    assert len(lines) == 901
    assert [int(x) for x in lines[1:4]] == list(snake_walk(T235).vertices[:3])
