from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqcayley import (
    DEFAULT_MATERIALIZE_CAP,
    CayleyGraph,
    clique_certificate,
    closed_form_distance,
    closed_form_distance_table,
    crt_combine,
    diameter,
    element_order,
    independence_certificate,
    independence_index_set,
    independence_internal_edges,
    make_prime_triple,
    verify_coloring,
    verify_index_bounds,
)
from psqcayley import parameters

from helpers import UNVALIDATED, crt_components, residue_sum_color, triples_with_group_order_at_most

T235 = make_prime_triple(2, 3, 5)
T357 = make_prime_triple(3, 5, 7)
LADDER = [make_prime_triple(*p) for p in ((2, 3, 5), (2, 3, 7), (3, 5, 7), (5, 7, 11), (7, 11, 13))]
G235 = CayleyGraph.from_triple(T235)


def test_clique_certificate_small():
    cert = clique_certificate(T235)
    assert cert == (0, 36, 72, 108, 144)
    assert all(G235.adjacent(u, v) for i, u in enumerate(cert) for v in cert[i + 1 :])


def test_clique_certificate_differences_have_top_square_order():
    cert = clique_certificate(T235)
    for i, u in enumerate(cert):
        for v in cert[i + 1 :]:
            assert element_order((v - u) % T235.n, T235) == T235.m_gamma


def test_clique_certificate_next_instance():
    cert = clique_certificate(T357)
    assert cert == tuple(225 * k for k in range(7))
    assert len(cert) == 7


def test_color_examples():
    assert residue_sum_color(0, T235) == 0
    assert residue_sum_color(36, T235) == 1


def test_adjacent_pair_gets_distinct_colors():
    assert residue_sum_color(0, T235) != residue_sum_color(36, T235)


def test_coloring_proper_exhaustive():
    result = verify_coloring(T235, G235)
    assert result.proper
    assert result.edges_checked == 12600
    assert result.chromatic == 5


def test_color_classes_balanced():
    counts = Counter(residue_sum_color(v, T235) for v in range(900))
    assert counts == {c: 180 for c in range(5)}


def test_coloring_exhaustive_above_materialize_cap():
    t = make_prime_triple(3, 5, 11)
    assert t.n > DEFAULT_MATERIALIZE_CAP
    result = verify_coloring(t, CayleyGraph.from_triple(t))
    assert result.proper
    assert result.edges_checked == t.n * 136 // 2
    assert result.chromatic == 11


def test_independence_index_set():
    ids = independence_index_set(T235)
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


def test_index_bounds():
    rep = verify_index_bounds(T235)
    assert rep.index_set_two_agreement_free
    assert rep.lines_cover_ids
    assert rep.mis_size == 6
    rep7 = verify_index_bounds(T357)
    assert rep7.mis_size == 15
    assert rep7.index_set_two_agreement_free and rep7.lines_cover_ids


def _index_bounds_by_every_line(t) -> tuple[bool, bool]:
    """Both index bounds with every pair of every line checked, through the
    index-graph bindings that `verify_index_bounds` reads, so a fault planted
    in one shows in both."""
    ids = independence_index_set(t)
    lines = [[(i, j, k) for k in range(t.gamma)] for i in range(t.alpha) for j in range(t.beta)]
    adjacent = parameters.index_adjacent
    cover = (
        len(lines) == len(ids)
        and sorted(bid for line in lines for bid in line) == parameters.index_ids(t)
        and all(adjacent(x, y) for line in lines for x, y in combinations(line, 2))
    )
    return not any(adjacent(x, y) for x, y in combinations(ids, 2)), cover


def test_index_bounds_check_one_line_of_pairs(monkeypatch):
    # the lines are translates of line (0, 0), so its C(c, 2) pairs decide
    # the clique bound, and the index set's projections take no adjacency
    # call: 13,861 calls at (2,3,167), where every line's pairs would be 83,166
    for t in LADDER:
        rep = verify_index_bounds(t)
        assert (rep.index_set_two_agreement_free, rep.lines_cover_ids) == _index_bounds_by_every_line(t) == (True, True)
    t = make_prime_triple(2, 3, 167)
    calls = Counter()
    adjacent = parameters.index_adjacent
    monkeypatch.setattr(parameters, "index_adjacent", lambda x, y: calls.update([1]) or adjacent(x, y))
    assert verify_index_bounds(t) == (True, True, 6)
    assert calls[1] == comb(167, 2)


def test_index_bounds_by_projection_equal_every_line_of_pairs():
    # part 1 is three injective projections of the a·b ids, O(ab), and part 2
    # the line count and line (0, 0)'s pairs: no C(ab, 2) pair loop and no
    # box walk, equal to the pair loops at every ladder triple and on unvalidated
    # triples, where the index set (i, j, i + j mod 3) is not free: at
    # (2, 5, 3) ids agree in (i, k), at (5, 2, 3) in (j, k)
    for t in triples_with_group_order_at_most(1_100_000) + UNVALIDATED:
        rep = verify_index_bounds(t)
        expected = (t.primes not in ((2, 5, 3), (5, 2, 3)), True)
        assert (rep.index_set_two_agreement_free, rep.lines_cover_ids) == _index_bounds_by_every_line(t) == expected
    assert verify_index_bounds(make_prime_triple(101, 103, 107)) == (True, True, 101 * 103)


@pytest.mark.parametrize(
    "plant, expected",
    [
        ("adjacent-index-ids", (False, True)),
        ("id-outside-the-lines", (True, False)),
        ("line-missing-an-edge", (True, False)),
    ],
)
def test_each_index_bound_fails_on_its_own_planted_fault(plant, expected, monkeypatch):
    # the index set bounds the MIS from below, the line cover from above; a
    # fault in one leaves the other standing
    origin, next_k = (0, 0, 0), (0, 0, 1)
    calls = Counter()
    if plant == "adjacent-index-ids":
        index_set = parameters.independence_index_set
        monkeypatch.setattr(
            parameters, "independence_index_set", lambda t: calls.update([1]) or (origin, next_k) + index_set(t)[2:]
        )
    elif plant == "id-outside-the-lines":
        # (a, b, c) lies on no line and shares no projection with another id,
        # so the set stays free but outnumbers the a·b lines
        index_set = parameters.independence_index_set
        monkeypatch.setattr(
            parameters, "independence_index_set", lambda t: calls.update([1]) or index_set(t) + (t.primes,)
        )
    else:
        adjacent = parameters.index_adjacent
        monkeypatch.setattr(
            parameters,
            "index_adjacent",
            lambda x, y: calls.update([1]) or (adjacent(x, y) and {x, y} != {origin, next_k}),
        )
    rep = verify_index_bounds(T235)
    assert (rep.index_set_two_agreement_free, rep.lines_cover_ids) == expected
    assert calls[1] > 0


@pytest.mark.parametrize("other", [(0, 0, 1), (0, 1, 0), (1, 0, 0)])
def test_index_set_freedom_reads_each_projection(other, monkeypatch):
    # (0, 0, 0) and other agree in exactly two coordinates, so exactly one
    # two-coordinate projection maps them to one pair
    pair = ((0, 0, 0), other)
    monkeypatch.setattr(parameters, "independence_index_set", lambda t: pair)
    assert parameters.index_adjacent(*pair)
    assert verify_index_bounds(T235).index_set_two_agreement_free is False


@pytest.mark.parametrize("position", [0, 17, -1])
def test_line_cover_reads_every_id(position, monkeypatch):
    # one id moved out of the box a × b × c, the count of ids unchanged: the
    # lines list the box by construction, so the check reads no id and keeps
    # its verdict, while the box walk, kept as the reference, reads every id
    ids, calls = parameters.index_ids, Counter()

    def moved(t):
        calls.update([1])
        box = ids(t)
        box[position] = (t.alpha, 0, 0)
        return box

    monkeypatch.setattr(parameters, "index_ids", moved)
    assert verify_index_bounds(T235) == (True, True, 6)
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
