"""Exactness of the bitset kernel against plain list and set references, and of
the residue-block checks against their n-bit references."""

import random
import sys
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqcayley import (
    CayleyGraph,
    IndependenceCertificate,
    build_report,
    certify,
    clique_certificate,
    closed_form_distance_classes,
    closed_form_distance_table,
    distance_sweep,
    independence_certificate,
    independence_internal_edges,
    make_prime_triple,
    run_verification,
    verify_block_adjacency,
    verify_block_partition,
    verify_coloring,
)
from psqcayley import oracles, parameters, structure
from psqcayley.graph import set_bits

from helpers import (
    adjacency_by_neighbourhood,
    block_of,
    block_set,
    coloring_by_neighbourhood,
    coset_plan_by_scan,
    divisors,
    edges_by_pairs,
    internal_edges,
    is_partition,
    neighbors,
    periodic,
    residue_sum_color,
    residues_of,
    rotations_by_sort,
    tiles,
    triples_with_group_order_at_most,
)

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
        dist = reference_bfs(t.n, g.members, source)
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
        reach = {w for v in s for w in neighbors(g, v)}
        assert g.neighborhood(g.bitset(s)) == g.bitset(reach)


def reference_neighborhood(n: int, members, vertices) -> set[int]:
    """N(S) = ⋃_{c∈C} (S + c), one connector at a time."""
    return {(v + c) % n for c in members for v in vertices}


@st.composite
def connector_lists(draw):
    """The real connectors of a small triple, with random members dropped
    (which leaves partial cosets and one-way connectors), 1 or n − 1
    planted and some members repeated, ascending."""
    t = draw(st.sampled_from(TRIPLES))
    members = set(CayleyGraph.from_triple(t).members)
    if draw(st.booleans()):
        members -= set(draw(st.lists(st.sampled_from(sorted(members)), max_size=12)))
    members |= set(draw(st.lists(st.sampled_from([1, t.n - 1]), max_size=2)))
    repeats = draw(st.lists(st.sampled_from(sorted(members)), max_size=3))
    return t, tuple(sorted([*members, *repeats]))


@settings(max_examples=150, deadline=None)
@given(connector_lists(), st.data())
def test_neighborhood_equals_per_connector_reference(case, data):
    t, members = case
    g = CayleyGraph(t, members)
    vertices = data.draw(st.lists(st.integers(0, t.n - 1), max_size=40))
    assert g.neighborhood(g.bitset(vertices)) == g.bitset(reference_neighborhood(t.n, members, vertices))
    assert g.coset_plan == coset_plan_by_scan(g)
    inside = set(members)
    assert [g.is_connector(x) for x in range(t.n)] == [x in inside for x in range(t.n)]


LADDER = triples_with_group_order_at_most(1_100_000)


def test_coset_plan_covers_exactly_the_connectors_on_the_ladder():
    # the order-p² class is the p − 1 cosets r + ⟨n/p⟩ of the order-p
    # subgroup, one family per prime, 2 and 3 included, and no connector is
    # left over for the family of order 1; the plan allocates no n-bit int
    assert len(LADDER) == 146
    for t in LADDER:
        g = CayleyGraph.from_triple(t)
        covered = []
        families = {}
        for h, order, reps in g.coset_plan:
            assert h * order == t.n
            covered.extend((r + j * h) % t.n for r in reps for j in range(order))
            if order > 1:
                families[order] = len(reps)
        assert sorted(covered) == list(g.members)
        assert families == {p: p - 1 for p in t.primes}
        assert g.coset_plan == coset_plan_by_scan(g)
        assert all(order > 1 for _, order, _ in g.coset_plan)
        assert "_full" not in vars(g)


def test_coset_plan_is_built_on_first_use_only():
    g = CayleyGraph.from_triple(TRIPLES[2])
    assert "coset_plan" not in vars(g)
    g.neighborhood(1)
    assert "coset_plan" in vars(g)


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_coset_plan_takes_members_mod_n(t):
    # a member outside [0, n) counts as its residue mod n: n + a²b² repeats
    # a²b² and 2n − 1 plants n − 1, and the neighbourhood follows suit
    members = CayleyGraph.from_triple(t).members
    vertices = [0, 1, t.n // 3]
    for extra in (t.n + t.m_alpha * t.m_beta, 2 * t.n - 1):
        g = CayleyGraph(t, (*members, extra))
        assert g.neighborhood(g.bitset(vertices)) == g.bitset(reference_neighborhood(t.n, g.members, vertices))


def test_internal_edges_matches_pair_count():
    g = CayleyGraph.from_triple(TRIPLES[0])
    rng = random.Random(5)
    for _ in range(20):
        s = sorted(rng.sample(range(g.triple.n), rng.randrange(2, 80)))
        pairs = sum(g.adjacent(u, v) for i, u in enumerate(s) for v in s[i + 1 :])
        assert internal_edges(g, g.bitset(s)) == pairs


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_planted_edge_counts_once(t):
    g = CayleyGraph.from_triple(t)
    members = g.members
    cert = list(set_bits(block_set(g, independence_certificate(t).residues)))
    assert internal_edges(g, g.bitset(cert)) == 0
    u = cert[len(cert) // 2]
    for c in (members[0], members[-1]):  # one connector below n/2, one above
        v = (u + c) % t.n
        blocked = set(neighbors(g, v))
        planted = [w for w in cert if w not in blocked] + [u, v]
        assert internal_edges(g, g.bitset(planted)) == 1


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
            assert periodic(g, period, residues) == expected
            assert periodic(g, period, iter(residues)) == expected


def test_periodic_rejects_bad_period_and_residue():
    g = CayleyGraph.from_triple(TRIPLES[0])  # n = 900
    for period in (7, 899, 1800, 0, -4):
        with pytest.raises(ValueError):
            periodic(g, period, [0])
    for residue in (-1, 30):
        with pytest.raises(ValueError):
            periodic(g, 30, [0, residue])


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_multiples_match_set_reference(t):
    g = CayleyGraph.from_triple(t)
    a, b, c = t.primes
    for d in (1, a, a * a, b, c * c, a * b * c, t.n // 2 + 1, t.n - 1, t.n, 2 * t.n):
        assert g.multiples(d) == g.bitset(range(0, t.n, d)), d
    for d in (0, -4):
        with pytest.raises(ValueError):
            g.multiples(d)


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
    oracles.distance_sweep(g, 1, seed=3)
    assert built.count(0) == 1
    built.clear()
    build_report(t)
    assert built.count(0) == 1
    built.clear()
    run_verification(t, 1, seed=3)
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
    report = distance_sweep(g, 4, seed=1)
    assert report.sources == 5
    assert report.mismatches == 5
    assert report.max_distance == 6


def test_sweep_counts_unreached_vertices():
    # only the c²-order connectors: the graph splits into a²b² components
    t = TRIPLES[0]
    m_ab = t.m_alpha * t.m_beta
    gamma_class = tuple(c for c in CayleyGraph.from_triple(t).members if c % m_ab == 0)
    g = CayleyGraph(t, gamma_class)
    table = closed_form_distance_table(t)
    report = distance_sweep(g, 3, seed=2)
    expected = 0
    for s in [0] + sorted(random.Random(2).sample(range(1, t.n), 3)):
        dist = reference_bfs(t.n, gamma_class, s)
        expected += sum(dist[v] != table[(v - s) % t.n] for v in range(t.n))
    assert report.mismatches == expected > t.n
    assert report.max_distance == 2


def _edit_class_zero(monkeypatch, edit) -> None:
    """From now on the residue sets that `parameters` builds pass through
    edit(residues); in verify_coloring that set is colour class 0."""
    residues = parameters.block_residues
    monkeypatch.setattr(parameters, "block_residues", lambda t, ids: edit(residues(t, ids)))


def _period(t) -> int:
    return t.alpha * t.beta * t.gamma


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_bad_coloring_is_improper(t, monkeypatch):
    # the residue of a connector, adjacent to vertex 0, recoloured like it
    g = CayleyGraph.from_triple(t)
    clash = g.members[0] % _period(t)
    assert residue_sum_color(0, t) == 0 != residue_sum_color(clash, t)
    _edit_class_zero(monkeypatch, lambda zero: sorted({*zero, clash}))
    result = verify_coloring(t, g)
    assert result.proper is False
    assert result.edges_checked == t.n * g.degree // 2


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_colour_clash_in_last_period_is_improper(t, monkeypatch):
    # the colouring repeats with period abc, and the check reads one period
    # of residues, in which the last vertex n − 1 is the last residue abc − 1;
    # it has a neighbour in class 0, so recolouring it like class 0 clashes
    v = t.n - 1
    g = CayleyGraph.from_triple(t)
    assert v % _period(t) == _period(t) - 1 and residue_sum_color(v, t) != 0
    assert any(residue_sum_color(w, t) == 0 for w in neighbors(g, v))
    _edit_class_zero(monkeypatch, lambda zero: sorted({*zero, v % _period(t)}))
    assert verify_coloring(t, g).proper is False


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
@pytest.mark.parametrize("fault", ["no class", "two classes", "extra class"])
def test_coloring_that_is_no_partition_into_gamma_classes_is_improper(t, fault, monkeypatch):
    # a residue in no class leaves class 0 free of edges, so only the
    # partition test catches it; a residue in class 0 and its own, or one
    # rotation of class 0 more than the c of the clique certificate, break
    # the partition as well
    in_zero = next(v for v in range(t.n // 2, t.n) if residue_sum_color(v, t) == 0) % _period(t)
    outside = next(v for v in range(t.n // 2, t.n) if residue_sum_color(v, t) != 0) % _period(t)
    m_ab = t.m_alpha * t.m_beta
    if fault == "no class":
        _edit_class_zero(monkeypatch, lambda zero: [r for r in zero if r != in_zero])
    elif fault == "two classes":
        _edit_class_zero(monkeypatch, lambda zero: sorted({*zero, outside}))
    else:
        monkeypatch.setattr(parameters, "clique_certificate", lambda t: clique_certificate(t) + (t.gamma * m_ab,))
    assert verify_coloring(t, CayleyGraph.from_triple(t)).proper is False


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_class_zero_rotations_are_the_residue_sum_classes(t, monkeypatch):
    g = CayleyGraph.from_triple(t)
    colours = {}
    for v in range(t.n):
        colours.setdefault(residue_sum_color(v, t), []).append(v)
    built = []
    _edit_class_zero(monkeypatch, lambda zero: built.append(zero) or zero)
    assert verify_coloring(t, g).proper
    [zero] = built
    rotations = {residue_sum_color(k, t): g.rotate(block_set(g, zero), k) for k in clique_certificate(t)}
    assert rotations == {colour: g.bitset(vs) for colour, vs in colours.items()}


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_residue_blocks_and_independence_members_match_block_of(t):
    # every single block, the independence index set and colour class 0,
    # each against the union of its blocks by the per-vertex projection; the
    # certificate's members are listed as the independent-set export lists them
    g = CayleyGraph.from_triple(t)
    members = {}
    for v in range(t.n):
        members.setdefault(block_of(v, t), []).append(v)

    def union(ids):
        return g.bitset(v for x in ids for v in members[x])

    assert len(members) == _period(t)
    assert all(block_set(g, structure.block_residues(t, [x])) == union([x]) for x in members)
    cert = independence_certificate(t)
    listed = [base + r for base in range(0, t.n, cert.period) for r in cert.residues]
    assert listed == list(set_bits(union(cert.index_set)))
    assert cert.size == len(listed) and cert.period == _period(t)
    zero = [x for x in members if sum(x) % t.gamma == 0]
    colour_zero = g.bitset(v for v in range(t.n) if residue_sum_color(v, t) == 0)
    assert block_set(g, structure.block_residues(t, zero)) == union(zero) == colour_zero


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_coloring_takes_one_neighbourhood_and_independence_no_block(t, monkeypatch):
    # class 0 stands for every class and is decided on its residues, and the
    # certificate is one period of residues: no neighbourhood at all and no
    # per-block construction; each residue set maps its ids through one CRT
    # basis (structure.block_residues)
    calls = {"neighborhood": 0, "crt_basis": 0}

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update({name: calls[name] + 1}) or fn(*args))

    counted(CayleyGraph, "neighborhood")
    counted(structure, "crt_basis")
    g = CayleyGraph.from_triple(t)
    assert verify_coloring(t, g).proper
    assert calls == {"neighborhood": 0, "crt_basis": 1}
    cert = independence_certificate(t)
    assert parameters.independence_internal_edges(cert, g).internal_edges == 0
    assert calls == {"neighborhood": 0, "crt_basis": 2}


@pytest.mark.parametrize("t", TRIPLES[:2], ids=IDS[:2])
def test_block_of_a_translate_is_the_sum_of_the_blocks(t):
    # the residue lemma: abc divides n, so block_of((v + c) mod n) =
    # block_of(v) + block_of(c), coordinate by coordinate, for every v and c
    g = CayleyGraph.from_triple(t)
    blocks = [block_of(v, t) for v in range(t.n)]
    for c in g.members:
        shifted = [tuple((x + y) % p for x, y, p in zip(bv, blocks[c], t.primes)) for bv in blocks]
        assert [blocks[(v + c) % t.n] for v in range(t.n)] == shifted


def _symmetric_edits(t) -> list[tuple[int, ...]]:
    """The connectors of t, then with a symmetric pair ±d added (each d a
    non-member) or removed, and with every pair outside the c²-order class
    removed."""
    members = CayleyGraph.from_triple(t).members
    m_ab = t.m_alpha * t.m_beta

    def edit(add=(), drop=()):
        extra = {x % t.n for d in add for x in (d, -d)}
        gone = {x % t.n for d in drop for x in (d, -d)}
        return tuple(sorted(set(members) - gone | extra))

    cases = [members]
    cases += [edit(add=[d]) for d in (1, t.alpha, _period(t), t.m_alpha, t.gamma * m_ab)]
    cases += [edit(drop=[d]) for d in (members[0], m_ab, t.m_alpha * t.m_gamma)]
    cases.append(edit(drop=[c for c in members if c % m_ab]))
    return cases


def _class_zero(t) -> list[int]:
    return residues_of(t, [x for x in structure.index_ids(t) if sum(x) % t.gamma == 0])


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_residue_checks_equal_their_n_bit_references_under_connector_faults(t):
    # the colouring on N(class 0), the internal edges by one n-bit AND per
    # connector and block adjacency on N(B₀), at the real connectors and
    # with symmetric pairs planted or removed
    zero = _class_zero(t)
    cert = independence_certificate(t)
    seen = set()
    for members in _symmetric_edits(t):
        g = CayleyGraph(t, members)
        proper = verify_coloring(t, g).proper
        assert proper == coloring_by_neighbourhood(t, g, block_set(g, zero))
        count = independence_internal_edges(cert, g).internal_edges
        assert count == internal_edges(g, block_set(g, residues_of(t, cert.index_set)))
        adjacency = verify_block_adjacency(g)
        assert adjacency == adjacency_by_neighbourhood(g, block_set(g, [0]))
        seen.update([("proper", proper), ("independent", count == 0), ("adjacency", adjacency)])
    # the faults turn every verdict at least once
    assert seen == {(k, v) for k in ("proper", "independent", "adjacency") for v in (True, False)}


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_coloring_equals_its_n_bit_reference_with_a_residue_moved_into_class_zero(t, monkeypatch):
    g = CayleyGraph.from_triple(t)
    zero = _class_zero(t)
    outside = [r for r in (1, _period(t) - 1, g.members[0] % _period(t)) if r not in zero]
    assert len(outside) == 3
    for r in outside:
        moved = sorted({*zero, r})
        monkeypatch.setattr(parameters, "block_residues", lambda _t, _ids: moved)
        assert verify_coloring(t, g).proper is False
        assert coloring_by_neighbourhood(t, g, block_set(g, moved)) is False


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_independence_scan_counts_the_edges_pair_by_pair_under_every_plant(t):
    # the certificate's edges pair by pair, at the true C, with each gcd class
    # toggled, with n/2 planted and with one-way 1 or n − 1: each edge is
    # counted once, from either end, whichever way C holds it
    n = t.n
    cert = independence_certificate(t)
    vertices = [base + r for base in range(0, n, cert.period) for r in cert.residues]
    connectors = set(CayleyGraph.from_triple(t).members)
    cases = {"true": connectors}
    for d in divisors(n)[:-1]:
        cls = {d * k for k in range(1, n // d) if gcd(k, n // d) == 1}
        cases[f"toggle {d}"] = connectors ^ cls
    if n % 2 == 0:
        cases["n/2"] = connectors | {n // 2}
    cases["one-way 1"], cases["one-way n-1"] = connectors | {1}, connectors | {n - 1}
    counts = {}
    for name, members in cases.items():
        g = CayleyGraph(t, tuple(sorted(members)))
        counts[name] = independence_internal_edges(cert, g).internal_edges
        assert counts[name] == edges_by_pairs(g, vertices), name
    assert len(cases) == 29 + (n % 2 == 0) and counts["true"] == 0
    assert counts.get("n/2") == {900: 90, 1764: 126}.get(n)
    assert n != 11025 or counts["one-way 1"] == counts["one-way n-1"] == 105


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_coloring_tiling_lemma_agrees_with_the_sorted_rotations(t, monkeypatch):
    # class 0 a transversal mod ab and K tiling (`clique_tiles`) against the
    # sorted rotations, with class 0 and K planted: the lemma reads K only
    # through its residues mod c·a²b², so every planted K is on the multiples
    # of a²b², where the sort and the tiling agree
    g = CayleyGraph.from_triple(t)
    ab, m_ab, c = t.alpha * t.beta, t.m_alpha * t.m_beta, t.gamma
    zero, k = _class_zero(t), clique_certificate(t)
    outside = next(r for r in range(_period(t)) if r not in zero)
    zeros = {
        "class 0": zero,
        "one short": zero[1:],
        "one extra": sorted({*zero, outside}),
        "repeated": zero[1:] + zero[:1] * 2,
        "same coset": [(zero[0] + ab) % _period(t), *zero[1:]],
        "next coset": [(zero[0] + 1) % _period(t), *zero[1:]],
    }
    cliques = {
        "K": k,
        "by-a-unit": tuple(2 * x % t.n for x in k),
        "equal-mod-c": k[:-1] + (c * m_ab,),
        "one-short": k[:-1],
        "one-extra": k + (c * m_ab,),
    }
    verdicts = set()
    for z in zeros.values():
        monkeypatch.setattr(parameters, "block_residues", lambda _t, _ids, _z=z: _z)
        zero_set = block_set(g, z)
        for planted in cliques.values():
            monkeypatch.setattr(parameters, "clique_certificate", lambda _t, _k=planted: _k)
            tiling = rotations_by_sort(t, z, planted)
            assert verify_coloring(t, g).proper == (tiling and not g.neighborhood(zero_set) & zero_set)
            verdicts.add(tiling)
    assert verdicts == {True, False}


def test_coloring_tiling_lemma_agrees_with_the_sorted_rotations_on_the_ladder(monkeypatch):
    # at all 146 triples with n ≤ 1.1·10⁶: class 0, and class 0 with its
    # first residue moved to the next coset mod ab
    for t in LADDER:
        g = CayleyGraph.from_triple(t)
        zero = _class_zero(t)
        moved = [(zero[0] + 1) % _period(t), *zero[1:]]
        for z, expected in ((zero, True), (moved, False)):
            monkeypatch.setattr(parameters, "block_residues", lambda _t, _ids, _z=z: _z)
            assert verify_coloring(t, g).proper == rotations_by_sort(t, z, clique_certificate(t)) == expected


@pytest.mark.parametrize(
    "primes, count",
    [((2, 3, 5), None), ((2, 3, 7), None), ((3, 5, 7), None), ((5, 7, 11), 8_855), ((7, 11, 13), 31_031)],
    ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_an_extra_block_in_the_certificate_counts_as_its_n_bit_reference(primes, count):
    # block (0, 0, 1) agrees with the certificate's (0, 0, 0) in two residues
    t = make_prime_triple(*primes)
    g = CayleyGraph.from_triple(t)
    ids = independence_certificate(t).index_set + ((0, 0, 1),)
    cert = IndependenceCertificate(ids, tuple(structure.block_residues(t, ids)), _period(t))
    got = independence_internal_edges(cert, g).internal_edges
    assert got == internal_edges(g, block_set(g, residues_of(t, ids))) > 0
    assert count is None or got == count


def test_the_four_residue_checks_build_no_n_bit_set_at_a_large_c_triple(monkeypatch):
    # at (2,3,167) one n-bit AND per connector is 27,730 operations on ints of
    # a million bits; the four checks must pass without building any n-bit set
    t = make_prime_triple(2, 3, 167)
    g = CayleyGraph.from_triple(t)
    assert t.n == 1_004_004 and g.degree == 27_730
    calls = Counter()
    for name in ("neighborhood", "multiples", "bitset", "rotate"):
        fn = getattr(CayleyGraph, name)
        monkeypatch.setattr(CayleyGraph, name, lambda *args, _fn=fn, _name=name: calls.update([_name]) or _fn(*args))
    assert verify_coloring(t, g).proper
    assert independence_internal_edges(independence_certificate(t), g).internal_edges == 0
    assert verify_block_partition(g) and verify_block_adjacency(g)
    assert not calls


def test_certify_takes_neighbourhoods_only_for_bfs(monkeypatch):
    # at (2,3,167), n = 1,004,004: every neighbourhood certify takes is a BFS
    # level's, and no certificate check builds or rotates an n-bit set
    callers = Counter()
    for name in ("neighborhood", "multiples", "bitset", "rotate"):
        fn = getattr(CayleyGraph, name)

        def recorded(*args, _fn=fn, _name=name):
            callers.update([f"{_name} from {sys._getframe(1).f_code.co_name}"])
            return _fn(*args)

        monkeypatch.setattr(CayleyGraph, name, recorded)
    c = certify(make_prime_triple(2, 3, 167))
    assert c.walk_verified and all(c.fiber.values()) and c.connectivity.connected
    assert callers == {"neighborhood from _levels": c.diameter.bfs_eccentricity + 1}


def test_is_partition():
    g = CayleyGraph.from_triple(TRIPLES[0])
    full = (1 << 900) - 1
    assert is_partition(g, [full]) and is_partition(g, [0b101, full ^ 0b101])
    assert not is_partition(g, [full ^ 1])  # vertex 0 in no set
    assert not is_partition(g, [full, 1])  # vertex 0 in two sets
    assert not is_partition(g, [full ^ 2, 1])  # sizes sum to n, yet 0 is in two sets and 1 in none
    assert not is_partition(g, [full | 1 << 900])  # a bit beyond the last vertex


@pytest.mark.parametrize("t", [TRIPLES[0], TRIPLES[2]], ids=[IDS[0], IDS[2]])
def test_tiles_is_the_partition_of_the_rotations(t):
    g = CayleyGraph.from_triple(t)
    n = t.n

    def reference(s, step, count):
        return is_partition(g, (g.rotate(s, r * step) for r in range(count)))

    cases = []
    for d in divisors(n):
        count = n // d  # 3, 5, 15, 45, ... are no powers of two
        interval = g.bitset(range(d))
        unit = next(u for u in range(2, n) if gcd(u, count) == 1)
        cases += [
            (interval, d, count, True),
            (interval, d * unit, count, True),  # count·step exceeds n and wraps
            (interval, d + n, count, True),
            (interval, d, count - 1, False),  # a gap
            (interval, d, count + 1, False),  # an overlap
            (interval, d + 1, count, None),
        ]
        if 1 < d < n:
            # one vertex moved one step on: the sizes still sum to n, but the
            # translates overlap at d and leave d - 1 uncovered
            cases.append((interval & ~(1 << (d - 1)) | 1 << d, d, count, False))
    rng = random.Random(3)
    for _ in range(200):
        count = rng.choice(divisors(n))
        s = g.bitset(rng.sample(range(n), n // count))
        cases.append((s, rng.randrange(n), count, None))
    for s, step, count, expected in cases:
        assert tiles(g, s, step, count) == reference(s, step, count), (s.bit_count(), step, count)
        assert expected is None or tiles(g, s, step, count) == expected, (s.bit_count(), step, count)
    assert any(tiles(g, s, step, count) for s, step, count, expected in cases if expected is None)
