from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqcayley import parameters, structure
from psqcayley.graph import DEFAULT_MATERIALIZE_CAP, CayleyGraph
from psqcayley.group import PrimeTriple, crt_combine, element_order
from psqcayley.parameters import (
    clique_certificate,
    closed_form_distance,
    closed_form_distance_table,
    diameter,
    independence_certificate,
    independence_internal_edges,
    verify_index_bounds,
)
from psqcayley.report import build_report, run_verification

from helpers import certificate_color, certified_coloring, crt_components, triples_with_group_order_at_most

T235 = PrimeTriple(2, 3, 5)
T357 = PrimeTriple(3, 5, 7)
LADDER = [PrimeTriple(*p) for p in ((2, 3, 5), (2, 3, 7), (3, 5, 7), (5, 7, 11), (7, 11, 13))]
G235 = CayleyGraph.from_triple(T235)


def test_clique_certificate_small():
    cert = clique_certificate(T235)
    assert cert == (0, 36, 72, 108, 144)
    assert all(G235.adjacent(u, v) for i, u in enumerate(cert) for v in cert[i + 1 :])


def test_clique_certificate_differences_have_top_square_order():
    cert = clique_certificate(T235)
    for i, u in enumerate(cert):
        for v in cert[i + 1 :]:
            assert element_order((v - u) % T235.n, T235) == T235.moduli[2]


def test_clique_certificate_next_instance():
    cert = clique_certificate(T357)
    assert cert == tuple(225 * k for k in range(7))
    assert len(cert) == 7


def test_color_examples():
    assert certificate_color(0, T235) == 0
    assert certificate_color(36, T235) == 1


def test_adjacent_pair_gets_distinct_colors():
    assert certificate_color(0, T235) != certificate_color(36, T235)


def test_coloring_proper_exhaustive():
    result = certified_coloring(T235, G235)
    assert result.proper
    assert result.edges_checked == 12600
    assert result.tiles is True
    assert build_report(T235)["chromatic"]["value"] == 5


def test_color_classes_balanced():
    counts = Counter(certificate_color(v, T235) for v in range(900))
    assert counts == {c: 180 for c in range(5)}


def test_coloring_exhaustive_above_materialize_cap():
    t = PrimeTriple(3, 5, 11)
    assert t.n > DEFAULT_MATERIALIZE_CAP
    result = certified_coloring(t, CayleyGraph.from_triple(t))
    assert result.proper
    assert result.edges_checked == t.n * 136 // 2
    assert result.tiles is True
    assert build_report(t)["chromatic"]["value"] == 11


def _certificate_ids(t):
    """The block ids (r mod a, r mod b, r mod c) of the certificate's
    residues r, read through `parameters.block_residues` at call time, as
    `certify` builds the certificate, so a planted id reaches them."""
    a, b, c = t.primes
    return [(r % a, r % b, r % c) for r in independence_certificate(t).residues]


def _plant_ids(monkeypatch, edit):
    """From now on `block_residues` receives edit(ids, t) in place of the
    certificate's ids."""
    residues = parameters.block_residues
    monkeypatch.setattr(parameters, "block_residues", lambda t, ids: residues(t, edit(ids, t)))


def test_independence_index_set():
    ids = _certificate_ids(T235)
    assert len(ids) == 6
    assert (1, 2, 3) in ids
    assert all((i + j) % 5 == k for i, j, k in ids)


def test_independence_certificate_size_and_scan():
    cert = independence_certificate(T235)
    assert cert.size == 180
    scan = independence_internal_edges(cert, G235)
    assert scan.pairs_checked == 16110
    assert scan.internal_edges == 0


def test_independence_certificate_next_instance():
    g = CayleyGraph.from_triple(T357)
    cert = independence_certificate(T357)
    assert cert.size == 9 * 25 * 7
    scan = independence_internal_edges(cert, g)
    assert scan.internal_edges == 0


def _index_bounds(t):
    """`verify_index_bounds` on the certificate's residues, as `certify`
    passes them, built through `parameters.block_residues` at call time, so
    a planted id reaches the verdict."""
    return verify_index_bounds(t, independence_certificate(t).residues)


def test_index_bounds():
    assert _index_bounds(T235) is True
    assert len(independence_certificate(T235).residues) == 6
    assert _index_bounds(T357) is True
    assert len(independence_certificate(T357).residues) == 15


def _index_bounds_by_every_line(t) -> tuple[bool, bool]:
    """Both index bounds with every pair of every line checked by
    `structure.index_adjacent`, the reference for the line lemma that
    `verify_index_bounds` states; the box walk reads `structure.index_ids`."""
    ids = _certificate_ids(t)
    lines = [[(i, j, k) for k in range(t.gamma)] for i in range(t.alpha) for j in range(t.beta)]
    adjacent = structure.index_adjacent
    cover = (
        len(lines) == len(ids)
        and sorted(bid for line in lines for bid in line) == structure.index_ids(t)
        and all(adjacent(x, y) for line in lines for x, y in combinations(line, 2))
    )
    return not any(adjacent(x, y) for x, y in combinations(ids, 2)), cover


def test_index_bounds_make_no_adjacency_call(monkeypatch):
    # two ids on one line agree in exactly (i, j), so every line is a clique
    # for every c (the line lemma), and the index set's projections take no
    # adjacency call: none at (2,3,167), where every line's pairs would be
    # 83,166; the literal loop stays the reference
    for t in LADDER:
        assert _index_bounds(t) is True
        assert _index_bounds_by_every_line(t) == (True, True)
    t = PrimeTriple(2, 3, 167)
    calls = Counter()
    adjacent = structure.index_adjacent
    monkeypatch.setattr(structure, "index_adjacent", lambda x, y: calls.update([1]) or adjacent(x, y))
    assert _index_bounds(t) is True
    assert len(independence_certificate(t).residues) == 6
    assert calls[1] == 0


def test_a_line_missing_an_edge_still_fails_the_structure_line(monkeypatch):
    # the index bounds no longer read the index graph, but block adjacency
    # does: the connector ids of (2,3,5) include (0, 0, 1), so dropping the
    # edge (0, 0, 0) - (0, 0, 1) from the index graph fails `verify`'s
    # structure line, and no other
    adjacent = structure.index_adjacent
    monkeypatch.setattr(structure, "index_adjacent", lambda x, y: adjacent(x, y) and {x, y} != {(0, 0, 0), (0, 0, 1)})
    assert _index_bounds(T235) is True
    failed = [line.split(":")[0] for line in run_verification(T235, 0).lines if line.startswith("FAIL")]
    assert failed == ["FAIL structure"]


def test_index_bounds_by_projection_equal_every_line_of_pairs():
    # part 1 is three injective projections of the a·b ids, O(ab), and part 2
    # the line count, by the line lemma: no C(ab, 2) pair loop, no C(c, 2)
    # line loop and no box walk, equal to the pair loops at every ladder
    # triple; the projection plants below fail each projection alone
    for t in triples_with_group_order_at_most(1_100_000):
        assert _index_bounds_by_every_line(t) == (True, True)
        assert _index_bounds(t) is True
    t = PrimeTriple(101, 103, 107)
    assert _index_bounds(t) is True
    assert len(independence_certificate(t).residues) == 101 * 103


@pytest.mark.parametrize(
    "plant, expected",
    [
        ("adjacent-index-ids", (False, True)),
        ("id-outside-the-lines", (True, False)),
    ],
)
def test_each_index_bound_fails_on_its_own_planted_fault(plant, expected, monkeypatch):
    # the ids bound the MIS from below, the line cover from above; a fault in
    # one leaves the other standing, and either fails the verdict
    origin, next_k = (0, 0, 0), (0, 0, 1)
    calls = Counter()
    if plant == "adjacent-index-ids":
        _plant_ids(monkeypatch, lambda ids, t: calls.update([1]) or [origin, next_k] + ids[2:])
    else:
        # (a, b, c) lies on no line: its residue is the origin's, so the
        # certificate keeps a·b − 1 residues, free but short of the lines
        _plant_ids(monkeypatch, lambda ids, t: calls.update([1]) or ids[:-1] + [t.primes])
    assert _index_bounds_by_every_line(T235) == expected
    assert _index_bounds(T235) is False
    assert calls[1] > 0


# a planted id at (2, 3, 5) → (the certificate id it replaces, the one
# two-coordinate projection in which it meets another id, the origin)
PROJECTION_PLANTS = {(0, 0, 4): (1, (0, 1)), (0, 1, 0): (1, (0, 2)), (1, 0, 0): (3, (1, 2))}


@pytest.mark.parametrize("other", list(PROJECTION_PLANTS))
def test_index_set_freedom_reads_each_projection(other, monkeypatch):
    # (0, 0, 0) and other agree in exactly two coordinates, so one
    # projection maps them to one pair and the other two stay injective: in
    # place of one certificate id, a·b ids intact, it fails the verdict
    position, projection = PROJECTION_PLANTS[other]
    _plant_ids(monkeypatch, lambda ids, t: ids[:position] + [other] + ids[position + 1 :])
    ids = _certificate_ids(T235)
    assert structure.index_adjacent((0, 0, 0), other) and len(ids) == 6
    collided = [(u, v) for u, v in combinations(range(3), 2) if len({(x[u], x[v]) for x in ids}) < len(ids)]
    assert collided == [projection]
    assert _index_bounds_by_every_line(T235) == (False, True)
    assert _index_bounds(T235) is False


@pytest.mark.parametrize("position", [0, 17, -1])
def test_line_cover_reads_every_id(position, monkeypatch):
    # one id moved out of the box a × b × c, the count of ids unchanged: the
    # lines list the box by construction, so the check reads no id and keeps
    # its verdict, while the box walk, kept as the reference, reads every id
    ids, calls = structure.index_ids, Counter()

    def moved(t):
        calls.update([1])
        box = ids(t)
        box[position] = (t.alpha, 0, 0)
        return box

    monkeypatch.setattr(structure, "index_ids", moved)
    assert _index_bounds(T235) is True
    assert len(independence_certificate(T235).residues) == 6
    assert calls[1] == 0
    assert _index_bounds_by_every_line(T235) == (True, False)
    assert calls[1] == 1


def test_distance_examples():
    assert closed_form_distance(0, 0, T235) == 0
    assert closed_form_distance(0, 450, T235) == 2
    assert closed_form_distance(0, 30, T235) == 6


def test_distance_profile_components():
    # a difference in one component costs 1 off the multiples of its prime
    # and 2 on them: 450 = (2, 0, 0) and 36 = (0, 0, 11)
    assert closed_form_distance(0, 450, T235) == 2
    assert closed_form_distance(0, 36, T235) == 1
    for i, (p, m) in enumerate(zip(T235.primes, T235.moduli)):
        for r in range(1, m):
            comps = tuple(r if j == i else 0 for j in range(3))
            assert closed_form_distance(crt_combine(comps, T235), 0, T235) == (1 if r % p else 2)


def test_distance_zero_only_on_equal_vertices():
    for v in range(1, 900, 13):
        assert closed_form_distance(0, v, T235) > 0


def test_closed_form_matches_bfs_from_several_sources():
    table = closed_form_distance_table(T235)
    for source in (0, 1, 123):
        dist = G235.bfs(source)
        for v in range(900):
            assert dist[v] == table[(v - source) % 900]


def test_closed_form_symmetric():
    for u in range(0, 900, 17):
        for v in range(0, 900, 23):
            assert closed_form_distance(u, v, T235) == closed_form_distance(v, u, T235)


def test_diameter_small():
    res = diameter(T235, G235)
    assert res.value == 6
    assert res.witness_pair == (0, 30)
    assert res.bfs_eccentricity == 6


def test_diameter_value_is_the_level_that_holds_the_witness():
    # toggling the pair ±180 at (2,3,5) keeps the BFS eccentricity 6, but
    # the witness (0, 30), at closed-form distance 6, is at BFS distance 5:
    # the value is its level, so the diameter verdict fails
    members = tuple(sorted(set(G235.members) ^ {180, T235.n - 180}))
    g = CayleyGraph(T235, members)
    assert closed_form_distance(0, 30, T235) == 6 and g.bfs(0)[30] == 5
    assert diameter(T235, g) == (5, (0, 30), 6)
    # the c-class alone reaches only the 25 multiples of 36, not the witness
    c_class = tuple(x for x in G235.members if x % 36 == 0)
    assert diameter(T235, CayleyGraph(T235, c_class)) == (-1, (0, 30), 2)


def test_diameter_next_instance():
    res = diameter(T357, CayleyGraph.from_triple(T357))
    assert res.value == 6
    assert res.bfs_eccentricity == 6


def _component_cost(d: int, p: int) -> int:
    # reference rule for a component difference d mod p²: 0 equal,
    # 1 non-congruent mod p, 2 congruent mod p but unequal
    return 0 if d == 0 else 1 if d % p else 2


def test_two_prime_cases():
    # pairs sharing the c²-component: the four case values for distinct
    # vertices, in order, whatever the shared component
    for top in (0, 7):
        def dist(x: int, y: int) -> int:
            u = crt_combine((x, y, top), T235)
            return closed_form_distance(u, crt_combine((0, 0, top), T235), T235)

        assert dist(0, 1) == 1  # equal, non-congruent
        assert dist(1, 1) == 2  # non-congruent twice
        assert dist(2, 1) == 3  # congruent-unequal + non-congruent
        assert dist(2, 3) == 4  # congruent-unequal twice
        assert dist(0, 0) == 0


def test_two_prime_range_check():
    with pytest.raises(ValueError):
        closed_form_distance(900, 0, T235)
    with pytest.raises(ValueError):
        closed_form_distance(0, -1, T235)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 899), st.integers(0, 899))
def test_two_prime_is_restriction_of_closed_form(u, v):
    # on pairs sharing the c²-component, the two-coordinate rule is exact
    ua, ub, uc = crt_components(u, T235)
    va, vb, _ = crt_components(v, T235)
    w = crt_combine((va, vb, uc), T235)  # v's lower components, u's top one
    expected = _component_cost((ua - va) % 4, 2) + _component_cost((ub - vb) % 9, 3)
    assert closed_form_distance(u, w, T235) == expected
