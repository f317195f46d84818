from collections import Counter

import pytest

from psqcayley import (
    CayleyGraph,
    LengthMismatchError,
    WalkCertificate,
    crt_components,
    make_prime_triple,
    snake_walk,
    verify_walk,
    walk_lines,
)

from helpers import triples_with_group_order_at_most

T235 = make_prime_triple(2, 3, 5)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)


def test_cycle_at_smallest_even_instance():
    walk = snake_walk(T235)
    assert walk.kind == "cycle"
    assert walk.closed
    assert len(walk.vertices) == 900
    assert verify_walk(walk, G235)


def test_first_three_vertices_run_along_top_axis():
    walk = snake_walk(T235)
    comps = [crt_components(v, T235) for v in walk.vertices[:3]]
    assert comps == [(0, 0, 0), (0, 0, 1), (0, 0, 2)]


def test_cycle_closure_edge():
    walk = snake_walk(T235)
    assert crt_components(walk.vertices[-1], T235) == (3, 0, 0)
    assert G235.adjacent(walk.vertices[-1], walk.vertices[0])


def test_path_at_odd_instance():
    walk = snake_walk(T357)
    g = CayleyGraph.from_triple(T357)
    assert walk.kind == "path"
    assert len(walk.vertices) == 11025
    assert verify_walk(walk, g)
    first, last = walk.endpoints
    assert crt_components(first, T357) == (0, 0, 0)
    assert crt_components(last, T357) == (8, 24, 48)


def test_path_relabelled_cycle_fails_closure():
    walk = snake_walk(T357)
    g = CayleyGraph.from_triple(T357)
    assert not verify_walk(WalkCertificate(walk.vertices, "cycle"), g)


def test_path_endpoints_not_adjacent():
    walk = snake_walk(T357)
    g = CayleyGraph.from_triple(T357)
    fa, fb, fc = crt_components(walk.endpoints[0], T357)
    la, lb, lc = crt_components(walk.endpoints[1], T357)
    assert fa != la and fb != lb and fc != lc
    assert not g.adjacent(*walk.endpoints)


def test_tampered_walk_fails():
    walk = snake_walk(T235)
    verts = list(walk.vertices)
    verts[10], verts[500] = verts[500], verts[10]
    assert not verify_walk(WalkCertificate(tuple(verts), walk.kind), G235)


def test_duplicate_vertex_fails():
    walk = snake_walk(T235)
    verts = list(walk.vertices)
    verts[10] = verts[11]
    assert not verify_walk(WalkCertificate(tuple(verts), walk.kind), G235)


def test_truncated_walk_raises():
    walk = snake_walk(T235)
    with pytest.raises(LengthMismatchError):
        verify_walk(WalkCertificate(walk.vertices[:-1], walk.kind), G235)


def test_every_desk_scale_triple_verifies():
    for t in triples_with_group_order_at_most(50_000):
        walk = snake_walk(t)
        g = CayleyGraph.from_triple(t)
        assert verify_walk(walk, g), t.primes
        assert walk.kind == ("cycle" if t.alpha == 2 else "path")


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
