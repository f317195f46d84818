import os
import re
import tracemalloc
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqcayley import cli, graph
from psqcayley.connectors import enumerate_connectors
from psqcayley.graph import EXPORT_CHUNK_ROWS, CayleyGraph, TooLargeError
from psqcayley.group import crt_basis, make_prime_triple
from psqcayley.parameters import clique_certificate
from psqcayley.report import certify

from helpers import divisors, is_cycle, levels_from, neighbors, reference_bfs, rotate, snake_sequence

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


@pytest.mark.parametrize(
    "t", [T235, pytest.param(T357, marks=pytest.mark.slow)], ids=lambda t: ",".join(map(str, t.primes))
)
def test_bfs_levels_from_every_source_are_the_levels_from_0_translated(t):
    # every translation x ↦ x + s is an automorphism, so the levels from s
    # are those from 0 shifted by s: one BFS decides every pair.  The BFS
    # from each s here is the tests' own, so the lemma the sweep rests on
    # is checked, not assumed
    g, n = CayleyGraph.from_triple(t), t.n
    zero = g.levels_from_zero
    assert sum(level.bit_count() for level in zero) == n
    for s in range(n):
        assert levels_from(g, s) == tuple(rotate(g, level, s) for level in zero), s


def _levels_by_vertex(g: CayleyGraph, source: int) -> tuple[int, ...]:
    """BFS over the vertices, u to u + c for each connector c, until a level
    comes out empty: no stop at full reach and no neighbourhood kernel."""
    n = g.triple.n
    frontier, seen, levels = [source], {source}, []
    while frontier:
        levels.append(sum(1 << v for v in frontier))
        frontier = sorted({(u + c) % n for u in frontier for c in g.members} - seen)
        seen.update(frontier)
    return tuple(levels)


def test_bfs_stopped_at_full_reach_equals_a_bfs_without_the_stop_under_class_toggles():
    # the 26 gcd-class toggles of the fault matrix at (2,3,5): removing the
    # classes of −36, −100 or −225 disconnects the graph, so the BFS runs
    # until a level is empty; elsewhere it stops when all n are reached.
    # The levels from any other source are the translates of those from 0,
    # and `bfs(s)` reads them so
    n, members = T235.n, set(G235.members)
    reaches = []
    for d in divisors(n)[:-1]:
        cls = {d * k for k in range(1, n // d) if gcd(k, n // d) == 1}
        toggled = CayleyGraph(T235, tuple(sorted(members ^ cls)))
        zero = toggled.levels_from_zero
        assert zero == _levels_by_vertex(toggled, 0), d
        for source in (1, 450):
            levels = _levels_by_vertex(toggled, source)
            assert levels_from(toggled, source) == levels == tuple(rotate(toggled, z, source) for z in zero), (d, source)
        for source in (0, 1, 450, n - 1):
            assert toggled.bfs(source) == reference_bfs(n, toggled.members, source), (d, source)
        reaches.append(sum(level.bit_count() for level in zero))
    assert len(reaches) == 26
    assert 0 < sum(r < n for r in reaches) < 26
    # the n-cycle's last level is the one vertex n/2: the stop keeps it
    ring = CayleyGraph(T235, (1, n - 1))
    assert ring.levels_from_zero == _levels_by_vertex(ring, 0)
    assert ring.levels_from_zero[-1] == 1 << (n // 2)


def test_bfs_range_check():
    with pytest.raises(ValueError):
        G235.bfs(900)
    with pytest.raises(ValueError):
        G235.bfs(-1)


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
    """The export built from the neighbour lists, one f-string per edge;
    with no edges, the edge list is empty."""
    lines = [
        f"{u} {v}" if fmt == "edges" else f"  {u} -- {v};"
        for u in range(g.triple.n)
        for v in neighbors(g, u)
        if v > u
    ]
    if fmt == "dot":
        lines = ["graph cayley {", *lines, "}"]
    return "".join(f"{line}\n" for line in lines).encode("ascii")


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


@pytest.mark.parametrize("fmt", ["edges", "dot"])
@pytest.mark.parametrize("members", [(), (450,), (1,)], ids=["empty", "half", "one-way"])
def test_export_of_a_planted_connecting_set_equals_reference(tmp_path, fmt, members):
    # no edges: the header and footer alone, with no stray line end; n/2 at
    # (2,3,5): one edge per vertex below n/2; 1 without n − 1: a path
    g = CayleyGraph(T235, members)
    out = tmp_path / f"{fmt}.txt"
    g.export(fmt, out)
    assert out.read_bytes() == _reference_export(g, fmt)
    if not members:
        assert out.read_bytes() == {"edges": b"", "dot": b"graph cayley {\n}\n"}[fmt]


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_export_splits_long_bands_into_chunks(tmp_path, monkeypatch, chunk):
    # no band at (3,5,7) reaches the default chunk (the longest has 414 rows),
    # so shrink the chunk until bands split, with a last partial chunk but
    # for one row per chunk, where every chunk holds one vertex's lines
    g = CayleyGraph.from_triple(T357)
    lengths = [hi - lo for lo, hi, row in g._bands() if row]
    assert max(lengths) < EXPORT_CHUNK_ROWS
    assert any(length > chunk and (length % chunk or chunk == 1) for length in lengths)
    monkeypatch.setattr(graph, "EXPORT_CHUNK_ROWS", chunk)
    for fmt in ("edges", "dot"):
        out = tmp_path / f"{fmt}.txt"
        g.export(fmt, out)
        assert out.read_bytes() == _reference_export(g, fmt)


LINE_END = {"edges": b"\n", "dot": b";\n"}


def _assert_whole_lines(chunks: list[bytes], end: bytes) -> None:
    for chunk in chunks:
        assert chunk and chunk.endswith(end) and not chunk.startswith(end), chunk[:40]


@pytest.mark.parametrize("fmt", ["edges", "dot"])
@pytest.mark.parametrize("t", [T235, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_every_export_chunk_holds_whole_lines(monkeypatch, t, fmt):
    g = CayleyGraph.from_triple(t)
    reference = _reference_export(g, fmt)
    written: list[bytes] = []
    monkeypatch.setattr(graph, "write_chunks", lambda out, chunks: written.extend(chunks))
    for chunk in (1, 7, EXPORT_CHUNK_ROWS):
        monkeypatch.setattr(graph, "EXPORT_CHUNK_ROWS", chunk)
        written.clear()
        g.export(fmt, os.devnull)
        header, *body, footer = written
        assert (header, footer) == {"edges": (b"", b""), "dot": (b"graph cayley {\n", b"}\n")}[fmt]
        _assert_whole_lines(body, LINE_END[fmt])
        assert b"".join(written) == reference


@pytest.mark.parametrize("fmt", ["walk", "independent-set"])
@pytest.mark.parametrize("primes", ["2,3,5", "3,5,7"])
def test_every_walk_and_independent_set_chunk_holds_whole_lines(tmp_path, monkeypatch, primes, fmt):
    out = tmp_path / f"{fmt}.txt"
    argv = ["export", "--primes", primes, "--format", fmt, "--out", str(out)]
    assert cli.main(argv) == 0
    written: list[bytes] = []
    monkeypatch.setattr(cli, "write_chunks", lambda out, chunks: written.extend(chunks))
    assert cli.main(argv) == 0
    _assert_whole_lines(written, b"\n")
    assert b"".join(written) == out.read_bytes()


@pytest.mark.parametrize("chunk", [EXPORT_CHUNK_ROWS, 7])
@pytest.mark.parametrize("fmt", ["edges", "dot"])
def test_export_peaks_at_most_192_bytes_per_vertex(monkeypatch, fmt, chunk):
    # one n-sized list of line tails and one chunk of rows: about 118 bytes
    # per vertex for edges and 146 for dot at (3,5,7)
    g = CayleyGraph.from_triple(T357)
    monkeypatch.setattr(graph, "EXPORT_CHUNK_ROWS", chunk)
    tracemalloc.start()
    try:
        g.export(fmt, os.devnull, cap=T357.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 192 * T357.n, peak / T357.n


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
