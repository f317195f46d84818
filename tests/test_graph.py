import re
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqcayley import CayleyGraph, TooLargeError, certify, clique_certificate, graph, make_prime_triple
from psqcayley.connectors import enumerate_connectors
from psqcayley.graph import EXPORT_CHUNK_ROWS
from psqcayley.group import crt_basis

from helpers import is_cycle, neighbors, snake_sequence

T235 = make_prime_triple(2, 3, 5)
T237 = make_prime_triple(2, 3, 7)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)


def test_adjacency_examples():
    assert G235.adjacent(0, 36)
    assert not G235.adjacent(0, 0)
    assert not G235.adjacent(0, 180)


def test_adjacency_range_check():
    with pytest.raises(ValueError):
        G235.adjacent(0, 900)


def test_adjacency_symmetric_exhaustive():
    n = T235.n
    for u in range(n):
        for v in range(u + 1, n):
            assert G235.adjacent(u, v) == G235.adjacent(v, u)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 899), st.integers(0, 899), st.integers(0, 899))
def test_translation_invariance(u, v, w):
    n = T235.n
    assert G235.adjacent(u, v) == G235.adjacent((u + w) % n, (v + w) % n)


def test_neighbors_of_zero_are_connectors():
    assert neighbors(G235, 0) == list(G235.members)


def test_certified_graph_holds_no_set():
    # C is held once, as the members tuple: no cached kernel is a set
    g = certify(T235).graph
    assert not [k for k, v in vars(g).items() if isinstance(v, (set, frozenset))]


def _cell_zero_cycle(t) -> list[int]:
    # cell 0 of fiber check (iii): the multiples of a²b², stepping by a²b²
    m_ab = t.m_alpha * t.m_beta
    return [k * m_ab for k in range(t.m_gamma)]


@pytest.mark.parametrize("t", [T235, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_is_cycle_accepts_the_cell_cycle_and_the_snake_walk(t):
    g = CayleyGraph.from_triple(t)
    assert is_cycle(g, _cell_zero_cycle(t))
    assert is_cycle(g, snake_sequence(t))


def test_is_cycle_rejects_each_fault():
    cycle = _cell_zero_cycle(T235)  # 0, 36, ..., 864
    n = T235.n
    assert is_cycle(G235, cycle[:3])  # 0, 36, 72: a triangle
    assert not is_cycle(G235, cycle[:2])  # fewer than 3 entries
    assert not is_cycle(G235, [])
    assert not is_cycle(G235, cycle + [cycle[1]])  # a repeated vertex
    for bad in (-1, n):  # an entry outside [0, n)
        assert not is_cycle(G235, cycle[:-1] + [bad])
    # a non-edge step: 0 → 180 has order 5
    assert not G235.adjacent(0, 180)
    assert not is_cycle(G235, [36, 0, 180, 144, 72])
    # every step an edge (36, 36, 225), but no closing edge: 297 has order 100
    assert G235.adjacent(72, 297) and not G235.adjacent(297, 0)
    assert not is_cycle(G235, [0, 36, 72, 297])


def _step_rule_graphs(t):
    """The true graph of t, the graph without each +e for e in crt_basis(t)
    (−e stays, a one-way connector), and at even n the graph with n/2 added,
    an element of order 2."""
    g = CayleyGraph.from_triple(t)
    members = g.members
    yield g
    for e in crt_basis(t):
        yield CayleyGraph(t, tuple(c for c in members if c != e))
    if t.n % 2 == 0:
        yield CayleyGraph(t, tuple(sorted(members + (t.n // 2,))))


def test_step_rule_equals_the_sequence_replay():
    # is_step_cycle(s, L) against the replay of 0, s, …, (L − 1)·s closed by
    # s: every s at (2,3,5), every 7th at (3,5,7), each L near 3 and near
    # the order of s, in the true, one-way and order-2-planted sets
    verdicts = Counter()
    for t, stride in ((T235, 1), (T357, 7)):
        n, graphs = t.n, list(_step_rule_graphs(t))
        for s in range(0, n, stride):
            order = n // gcd(s, n)
            for length in {1, 2, 3, 4, order - 1, order, order + 1}:
                seq = [k * s % n for k in range(length)]
                for g in graphs:
                    rule = g.is_step_cycle(s, length)
                    verdicts[rule, is_cycle(g, seq) and length * s % n == 0] += 1
    assert verdicts[True, False] == verdicts[False, True] == 0
    assert sum(verdicts.values()) == 75_457 and verdicts[True, True] > 0


def test_degree_regular():
    for u in (0, 1, 17, 450, 899):
        nbrs = neighbors(G235, u)
        assert len(nbrs) == 28
        assert all(G235.adjacent(u, v) for v in nbrs)
        assert nbrs == sorted(nbrs)


def test_neighbors_translation():
    # the reference list agrees with arithmetic adjacency away from vertex 0
    assert neighbors(G235, 1) == [v for v in range(T235.n) if G235.adjacent(1, v)]


def test_bfs_distances():
    dist = G235.bfs(0)
    assert dist[0] == 0
    assert dist[36] == 1
    assert dist[450] == 2
    assert dist[30] == 6
    assert sum(d >= 0 for d in dist) == 900


def test_connected_both_methods():
    res = G235.is_connected()
    assert res.connected
    u, v, w = res.bezout
    assert u * T235.m_beta * T235.m_gamma + v * T235.m_alpha * T235.m_gamma + w * T235.m_alpha * T235.m_beta == 1
    assert res.bfs_reached == 900
    assert CayleyGraph.from_triple(T357).is_connected().connected


def test_girth_certificate():
    # the triangle is the first three vertices of the clique certificate
    tri = clique_certificate(T235)[:3]
    assert tri == (0, 36, 72)
    assert all(G235.adjacent(tri[i], tri[j]) for i in range(3) for j in range(i + 1, 3))
    assert clique_certificate(T357)[:3] == (0, 225, 450)


def test_nonplanarity_certificate():
    for t in (T235, T237):
        g = CayleyGraph.from_triple(t)
        k5 = clique_certificate(t)[:5]
        assert k5 == (0, 36, 72, 108, 144)
        edges = [(k5[i], k5[j]) for i in range(5) for j in range(i + 1, 5)]
        assert len(edges) == 10
        assert all(g.adjacent(u, v) for u, v in edges)


def test_export_edges(tmp_path):
    out = tmp_path / "edges.txt"
    G235.export("edges", out)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 900 * 28 // 2
    assert lines[0] == "0 36"
    pairs = [tuple(map(int, line.split())) for line in lines]
    assert all(u < v for u, v in pairs)
    assert pairs == sorted(pairs)


def test_export_dot_round_trip(tmp_path):
    out = tmp_path / "graph.dot"
    G235.export("dot", out)
    payload = out.read_text()
    assert payload.startswith("graph")
    edges = re.findall(r"(\d+) -- (\d+);", payload)
    assert len(edges) == 12600
    nodes = {int(x) for e in edges for x in e}
    assert nodes == set(range(900))


def _reference_export(g: CayleyGraph, fmt: str) -> bytes:
    """The export built from the neighbour lists, one f-string per edge."""
    lines = [
        f"{u} {v}" if fmt == "edges" else f"  {u} -- {v};"
        for u in range(g.triple.n)
        for v in neighbors(g, u)
        if v > u
    ]
    if fmt == "dot":
        lines = ["graph cayley {", *lines, "}"]
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.mark.parametrize("fmt", ["edges", "dot"])
@pytest.mark.parametrize("t", [T235, T237, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_export_bytes_equal_reference(tmp_path, t, fmt):
    g = CayleyGraph.from_triple(t)
    out = tmp_path / f"{fmt}.txt"
    g.export(fmt, out)
    assert out.read_bytes() == _reference_export(g, fmt)


@pytest.mark.parametrize("t", [T235, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_bands_tile_vertices_with_connectors_below_n_minus_u(t):
    g = CayleyGraph.from_triple(t)
    n, members = t.n, g.members
    bands = list(g._bands())
    assert bands[0][0] == 0 and bands[-1][1] == n and bands[-1][2] == ()
    assert all(lo < hi for lo, hi, _ in bands)
    assert all(prev[1] == nxt[0] for prev, nxt in zip(bands, bands[1:]))
    rows = [row for lo, hi, row in bands for _ in range(lo, hi)]
    assert rows == [tuple(c for c in members if c < n - u) for u in range(n)]


@pytest.mark.parametrize("fmt", ["edges", "dot"])
def test_export_with_a_planted_connector_equals_reference(tmp_path, monkeypatch, fmt):
    # 1 and n − 1 are no connectors: bands from the closed form would miss them
    def with_extra(t):
        return tuple(sorted(enumerate_connectors(t) + (1, t.n - 1)))

    monkeypatch.setattr(graph, "enumerate_connectors", with_extra)
    for t in (T235, T357):
        g = CayleyGraph.from_triple(t)
        assert g.is_connector(1) and g.is_connector(t.n - 1)
        out = tmp_path / f"{fmt}.txt"
        g.export(fmt, out)
        assert out.read_bytes() == _reference_export(g, fmt)


@pytest.mark.parametrize("chunk", [7, 100])
def test_export_splits_long_bands_into_chunks(tmp_path, monkeypatch, chunk):
    # no band at (3,5,7) reaches the default chunk (the longest has 414 rows),
    # so shrink the chunk until bands split with a last partial chunk
    g = CayleyGraph.from_triple(T357)
    lengths = [hi - lo for lo, hi, row in g._bands() if row]
    assert max(lengths) < EXPORT_CHUNK_ROWS
    assert any(length > chunk and length % chunk for length in lengths)
    monkeypatch.setattr(graph, "EXPORT_CHUNK_ROWS", chunk)
    for fmt in ("edges", "dot"):
        out = tmp_path / f"{fmt}.txt"
        g.export(fmt, out)
        assert out.read_bytes() == _reference_export(g, fmt)


def test_export_cap(tmp_path):
    out = tmp_path / "edges.txt"
    with pytest.raises(TooLargeError):
        G235.export("edges", out, cap=100)
    assert not out.exists()
    out.write_bytes(b"keep\n")
    with pytest.raises(TooLargeError):
        G235.export("edges", out, cap=100)
    assert out.read_bytes() == b"keep\n"


def test_export_unknown_format(tmp_path):
    out = tmp_path / "graph.gml"
    with pytest.raises(ValueError):
        G235.export("gml", out)
    assert not out.exists()
    out.write_bytes(b"keep\n")
    with pytest.raises(ValueError):
        G235.export("gml", out)
    assert out.read_bytes() == b"keep\n"


def test_handshake_identity():
    assert sum(1 for _ in G235.edges()) == T235.n * G235.degree // 2


def test_eccentricity_same_from_sampled_sources():
    values = {max(G235.bfs(s)) for s in (0, 1, 17, 123, 450)}
    assert values == {6}
