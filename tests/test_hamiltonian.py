from collections import Counter

import pytest

from psqcayley import (
    CayleyGraph,
    ConnectingSet,
    WalkCertificate,
    make_prime_triple,
    snake_walk,
    verify_walk,
    walk_lines,
)

from psqcayley import hamiltonian
from psqcayley.group import crt_basis

from helpers import (
    crt_components,
    is_partition,
    order_scan_connectors,
    snake_sequence,
    tiles,
    triples_with_group_order_at_most,
    walk_sequence,
)

T235 = make_prime_triple(2, 3, 5)
T237 = make_prime_triple(2, 3, 7)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)
G357 = CayleyGraph.from_triple(T357)
LADDER = [T235, T237, T357, make_prime_triple(3, 5, 11), make_prime_triple(5, 7, 11)]


def _oracle_problems(verts, t) -> list[str]:
    # adjacency from the brute-force orders, never from the closed form
    n, connectors = t.n, order_scan_connectors(t)
    problems = []
    if sorted(verts) != list(range(n)):
        problems.append("not a permutation of [0, n)")
    if any((v - u) % n not in connectors for u, v in zip(verts, verts[1:])):
        problems.append("a step is no edge")
    if (verts[0] - verts[-1]) % n not in connectors:
        problems.append("the last vertex is not adjacent to the first")
    return problems


def _with_inner(walk: WalkCertificate, inner) -> WalkCertificate:
    return walk._replace(inner=tuple(inner))


def _open_path(cycle, g):
    # reverse a tail segment so that every step stays an edge but the ends
    # are no longer adjacent
    k = next(
        k
        for k in range(1, len(cycle) - 1)
        if g.adjacent(cycle[k - 1], cycle[-1]) and not g.adjacent(cycle[0], cycle[k])
    )
    return cycle[:k] + cycle[k:][::-1]


def test_cycle_at_smallest_even_instance():
    walk = snake_walk(T235)
    assert (len(walk.inner), walk.step, walk.rows, walk.n) == (225, crt_basis(T235)[0], 4, 900)
    assert walk.length == 900
    assert verify_walk(walk, G235)


@pytest.mark.parametrize("t", [T235, T237, T357], ids=["2,3,5", "2,3,7", "3,5,7"])
def test_cycle_against_brute_force_orders(t):
    assert _oracle_problems(walk_sequence(snake_walk(t)), t) == []


@pytest.mark.parametrize("t", LADDER, ids=lambda t: ",".join(map(str, t.primes)))
def test_full_sequence_replays_at_the_ladder(t):
    # the n-entry replay through the connector set, which verify_walk avoids
    seq = walk_sequence(snake_walk(t))
    assert len(seq) == t.n
    assert CayleyGraph.from_triple(t).is_cycle(seq)


def test_first_three_vertices_run_along_top_axis():
    seq = walk_sequence(snake_walk(T235))
    comps = [crt_components(v, T235) for v in seq[:3]]
    assert comps == [(0, 0, 0), (0, 0, 24), (0, 0, 23)]


def test_cycle_closure_edge():
    walk = snake_walk(T235)
    first, last = walk.endpoints
    assert (first, last) == (walk_sequence(walk)[0], walk_sequence(walk)[-1])
    assert crt_components(last, T235) == (1, 0, 0)
    assert G235.adjacent(last, first)


def test_open_spanning_path_fails_closure():
    # the n-entry walk, opened: the oracle sees the missing closing edge
    path = _open_path(snake_sequence(T357), G357)
    assert all(G357.adjacent(u, v) for u, v in zip(path, path[1:]))
    assert sorted(path) == list(range(T357.n))
    assert not G357.adjacent(path[0], path[-1])
    assert _oracle_problems(path, T357) == ["the last vertex is not adjacent to the first"]
    # H, opened the same way: still a spanning path of the inner vertices,
    # but no cycle, and the lifted walk has a non-edge where the last row
    # joins the climb column
    walk = snake_walk(T357)
    opened = _with_inner(walk, _open_path(walk.inner, G357))
    assert sorted(opened.inner) == sorted(walk.inner)
    assert not G357.adjacent(opened.inner[0], opened.inner[-1])
    assert not verify_walk(opened, G357)
    assert _oracle_problems(walk_sequence(opened), T357) == ["a step is no edge"]


def test_tampered_walk_fails():
    walk = snake_walk(T235)
    inner = list(walk.inner)
    inner[10], inner[100] = inner[100], inner[10]
    assert not verify_walk(_with_inner(walk, inner), G235)


def test_duplicate_vertex_fails():
    walk = snake_walk(T235)
    inner = list(walk.inner)
    inner[10] = inner[11]
    assert not verify_walk(_with_inner(walk, inner), G235)


def test_walk_of_wrong_length_fails():
    # one row short, or one row more (row a² lands on row 0): every step is
    # still an edge, but the rows no longer partition the vertices
    walk = snake_walk(T235)
    for rows in (walk.rows - 1, walk.rows + 1):
        short_or_long = walk._replace(rows=rows)
        assert not verify_walk(short_or_long, G235)
        seq = walk_sequence(short_or_long)
        assert len(seq) != T235.n
        assert all(G235.adjacent(u, v) for u, v in zip(seq, seq[1:] + seq[:1]))


def _detour_inner_cycle(walk: WalkCertificate, g: CayleyGraph) -> list[int]:
    """H with a detour through h₅₀ + e_a and h₅₁ + e_a and two later vertices
    skipped: still a cycle of g with H's first, second and last entries, so
    every joint holds, but two residues mod b²c² repeat and two are missing."""
    h, e_a = list(walk.inner), walk.step
    i = 50
    detour = h[: i + 1] + [(h[i] + e_a) % walk.n, (h[i + 1] + e_a) % walk.n] + h[i + 1 :]
    j = next(j for j in range(100, len(detour) - 3) if g.adjacent(detour[j - 1], detour[j + 2]))
    return detour[:j] + detour[j + 2 :]


def test_inner_cycle_leaving_the_subgroup_fails():
    # H detours through two vertices of a-component 1 and skips two of its
    # own: still a cycle of g of length b²c², but its translates overlap
    walk = snake_walk(T235)
    inner = _detour_inner_cycle(walk, G235)
    assert len(inner) == len(walk.inner) and G235.is_cycle(inner)
    assert any(v % T235.m_alpha for v in inner)
    assert not verify_walk(_with_inner(walk, inner), G235)


def _verify_walk_on_n_bits(w: WalkCertificate, g: CayleyGraph) -> bool:
    """The walk verdict with the partition decided on n bits: H a cycle of g,
    every joint a connector, and the rotations of bitset(H) tile V."""
    n = g.triple.n
    return (
        w.n == n
        and g.is_cycle(w.inner)
        and all((v - u) % n in g.connector_set for u, v in hamiltonian._joints(w))
        and tiles(g, g.bitset(w.inner), w.step, w.rows)
    )


@pytest.mark.parametrize("t", [T235, T237, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_walk_partition_by_residues_equals_its_n_bit_reference(t):
    # the quotient rule (the step has order rows, H lists Z_d once for
    # d = n/rows) against tiles on bitset(H), on the certificate and under
    # planted faults; a step of another order is rejected by the rule even
    # where the rotations tile, and there the joints fail as well
    g = CayleyGraph.from_triple(t)
    walk = snake_walk(t)
    e_a, e_b, _ = crt_basis(t)
    repeated = _with_inner(walk, _detour_inner_cycle(walk, g))
    assert g.is_cycle(repeated.inner) and len({h % (t.n // walk.rows) for h in repeated.inner}) < len(walk.inner)
    skewed = walk._replace(step=(e_a + e_b) % t.n)
    cases = {
        "certificate": (walk, True),
        "repeated-residue": (repeated, False),
        "skewed-step": (skewed, False),
        "step-of-order-a": (walk._replace(step=t.alpha * e_a % t.n), False),
        "negated-step": (walk._replace(step=-e_a % t.n), True),  # the rows climb the other way
        "step-plus-n": (walk._replace(step=e_a + t.n), True),
        "one-row-short": (walk._replace(rows=walk.rows - 1), False),
    }
    for name, (w, expected) in cases.items():
        got = verify_walk(w, g)
        assert got is _verify_walk_on_n_bits(w, g) is expected, name
    assert tiles(g, g.bitset(skewed.inner), skewed.step, skewed.rows)


def test_step_off_the_a_axis_fails_at_the_joints():
    # step e_a + e_b: the translates of H still partition V, but a row's end
    # and the next row's start, and the climb's steps, differ in two components
    walk = snake_walk(T235)
    e_a, e_b, _ = crt_basis(T235)
    skewed = walk._replace(step=(e_a + e_b) % T235.n)
    inner = G235.bitset(walk.inner)
    assert is_partition(G235, (G235.rotate(inner, r * skewed.step) for r in range(skewed.rows)))
    assert not verify_walk(skewed, G235)
    assert _oracle_problems(walk_sequence(skewed), T235) == [
        "a step is no edge",
        "the last vertex is not adjacent to the first",
    ]


def test_certificate_for_another_n_fails():
    # the same H, step and rows taken modulo 2n: every check that reads g
    # reduces modulo g's n, but the walk's entries are not g's vertices
    walk = snake_walk(T235)
    assert not verify_walk(walk._replace(n=2 * T235.n), G235)
    assert not verify_walk(snake_walk(T357), G235)


def _one_way_inner_cycle(t) -> list[int]:
    """A cycle of the b²c² vertices with a-component 0 that steps only by
    e_c or 2e_c inside row y < b² and by e_b between rows: row y visits
    z₀ + k·s (k < c²) and ends at z₀ − s, so the rows stepping by 2 number
    c² − b², and the last row's e_b step returns to 0."""
    _, e_b, e_c = crt_basis(t)
    m_b, m_c = t.m_beta, t.m_gamma
    twos = m_c - m_b
    assert 0 <= twos <= m_b
    cycle, z0 = [], 0
    for y in range(m_b):
        s = 2 if y < twos else 1
        cycle += [(y * e_b + (z0 + k * s) * e_c) % t.n for k in range(m_c)]
        z0 -= s
    return cycle


def test_reversed_rows_are_replayed_as_walked():
    # H's steps are e_c, 2e_c and e_b; in a connecting set without their
    # negatives every joint is a connector and the rows partition V, but the
    # odd rows walk non-edges.  is_cycle takes a step as an edge only both
    # ways, so it rejects H in either direction, and the one replay of H
    # sees the odd rows' fault
    walk = _with_inner(snake_walk(T357), _one_way_inner_cycle(T357))
    assert verify_walk(walk, G357)
    _, e_b, e_c = crt_basis(T357)
    missing = {(-e_c) % T357.n, (-2 * e_c) % T357.n, (-e_b) % T357.n}
    one_way = CayleyGraph(T357, ConnectingSet(tuple(c for c in G357.cset.members if c not in missing)))
    n, h = T357.n, walk.inner
    assert all((v - u) % n in one_way.connector_set for u, v in zip(h, h[1:] + h[:1]))
    assert not one_way.is_cycle(walk.inner) and not one_way.is_cycle(walk.inner[::-1])
    assert not one_way.is_cycle(walk_sequence(walk))
    assert not verify_walk(walk, one_way)


def test_every_desk_scale_triple_verifies():
    triples = triples_with_group_order_at_most(50_000)
    assert len(triples) == 20 and sum(t.alpha == 3 for t in triples) == 3
    for t in triples + [make_prime_triple(5, 7, 11), make_prime_triple(7, 11, 13)]:
        walk = snake_walk(t)
        assert verify_walk(walk, CayleyGraph.from_triple(t)), t.primes
        assert walk.length == t.n, t.primes
        assert walk.endpoints == (0, crt_basis(t)[0]), t.primes
        # the certificate's pieces, concatenated, are the product-lemma walk
        # built vertex by vertex along c, b and a
        assert walk_sequence(walk) == snake_sequence(t), t.primes


def test_top_fiber_coverage():
    # each top-digit fiber holds a²b² vertices, so any spanning walk meets it
    # exactly that often
    counts = Counter(v // 36 for v in walk_sequence(snake_walk(T235)))
    assert counts == {t: 36 for t in range(25)}


def test_walk_export_lines():
    # a header, then one chunk for the head, one per row and one for the climb
    for t in (T235, T357):
        walk = snake_walk(t)
        lines = list(walk_lines(walk))
        assert lines[0] == "cycle"
        assert len(lines) == 1 + 1 + walk.rows + 1
        assert "\n".join(lines[1:]).split("\n") == [str(v) for v in snake_sequence(t)]


@pytest.mark.parametrize("size", [1, 7, 35])
def test_walk_export_splits_each_row_into_pieces_of_at_most_piece_size(size, monkeypatch):
    # rows of 35 entries at (2,3,5): split evenly, unevenly, or kept whole
    monkeypatch.setattr(hamiltonian, "PIECE_SIZE", size)
    walk = snake_walk(T235)
    lines = list(walk_lines(walk))
    pieces = lines[2:-1]
    assert len(pieces) == walk.rows * -(-(len(walk.inner) - 1) // size)
    assert max(piece.count("\n") + 1 for piece in pieces) == size
    assert "\n".join(lines[1:]).split("\n") == [str(v) for v in snake_sequence(T235)]
