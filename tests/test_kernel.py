"""Exactness of the bitset kernel against plain list and set references, and of
the residue-block checks against their n-bit references."""

import random
import sys
import tracemalloc
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqcayley import graph, oracles, parameters, structure
from psqcayley.graph import CayleyGraph, _closure, set_bits
from psqcayley.group import make_prime_triple
from psqcayley.oracles import distance_sweep
from psqcayley.parameters import (
    IndependenceCertificate,
    clique_certificate,
    closed_form_distance_table,
    independence_certificate,
    independence_internal_edges,
    verify_coloring,
)
from psqcayley.report import build_report, certify, run_verification
from psqcayley.structure import verify_block_adjacency, verify_block_partition

from helpers import (
    adjacency_by_neighbourhood,
    axis_plan_by_scan,
    bitset,
    block_of,
    block_set,
    certificate_color,
    certified_coloring,
    coloring_by_neighbourhood,
    count_level_builds,
    divisors,
    edges_by_pairs,
    internal_edges,
    is_partition,
    neighbors,
    periodic,
    plant_table_levels,
    reference_bfs,
    residues_of,
    rotate,
    rotations_by_sort,
    tiles,
    triples_with_group_order_at_most,
)

TRIPLES = [make_prime_triple(*p) for p in ((2, 3, 5), (2, 3, 7), (3, 5, 7))]
IDS = ["2,3,5", "2,3,7", "3,5,7"]


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_bfs_levels_match_reference_bfs(t):
    g = CayleyGraph.from_triple(t)
    dist = reference_bfs(t.n, g.members, 0)
    levels = g.levels_from_zero
    assert len(levels) == max(dist) + 1
    for k, level in enumerate(levels):
        assert level == bitset(g, (v for v in range(t.n) if dist[v] == k))
    for source in (0, 1, t.n // 3, t.n - 1):
        assert g.bfs(source) == reference_bfs(t.n, g.members, source)


def test_rotate_and_neighborhood_match_set_arithmetic():
    g = CayleyGraph.from_triple(TRIPLES[0])
    n = g.triple.n
    rng = random.Random(3)
    for _ in range(20):
        s = set(rng.sample(range(n), rng.randrange(1, 60)))
        k = rng.randrange(-n, 2 * n)
        assert rotate(g, bitset(g, s), k) == bitset(g, ((v + k) % n for v in s))
        reach = {w for v in s for w in neighbors(g, v)}
        assert g.neighborhood(bitset(g, s)) == bitset(g, reach)


def reference_neighborhood(n: int, members, vertices) -> set[int]:
    """N(S) = ⋃_{c∈C} (S + c), one connector at a time."""
    return {(v + c) % n for c in members for v in vertices}


@st.composite
def connector_lists(draw):
    """The real connectors of a small triple, with random members dropped
    (which leaves partial order classes and one-way connectors), 1 or n − 1
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
    assert g.neighborhood(bitset(g, vertices)) == bitset(g, reference_neighborhood(t.n, members, vertices))
    assert g.axis_plan == axis_plan_by_scan(g)
    inside = set(members)
    assert [g.is_connector(x) for x in range(t.n)] == [x in inside for x in range(t.n)]


LADDER = triples_with_group_order_at_most(1_100_000)


def test_axis_plan_covers_exactly_the_connectors_on_the_ladder():
    # the order-p² class is the p² − p generators of the subgroup of order
    # p², one axis per prime, 2 and 3 included, and no connector is left over
    # as a single; the plan allocates no n-bit int: building it peaks below
    # n/8 bytes under tracemalloc
    assert len(LADDER) == 146
    for t in LADDER:
        g = CayleyGraph.from_triple(t)
        n = t.n
        covered = [k * (n // p**2) for p in t.primes for k in range(1, p * p) if k % p]
        assert g.axis_plan == (t.primes, ())
        assert sorted(covered) == list(g.members)
        assert g.axis_plan == axis_plan_by_scan(g)
    for primes in ((7, 11, 13), (11, 13, 17)):
        g = CayleyGraph.from_triple(make_prime_triple(*primes))
        tracemalloc.start()
        try:
            g.axis_plan
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.triple.n / 8, (primes, peak)


@pytest.mark.parametrize("primes", [(2, 3, 167), (2, 3, 401)], ids=["2,3,167", "2,3,401"])
def test_large_c_neighbourhood_takes_two_closures_per_axis(primes, monkeypatch):
    # the c-axis holds c² − c connectors, yet one neighbourhood is six
    # closures, two per axis, and no n-bit operation per connector
    g = CayleyGraph.from_triple(make_prime_triple(*primes))
    assert g.axis_plan == (primes, ())
    calls = []
    monkeypatch.setattr(graph, "_closure", lambda *args: calls.append(args[1:]) or _closure(*args))
    assert g.neighborhood(1) == bitset(g, g.members)
    assert len(calls) == 6, calls


def test_axis_plan_is_built_on_first_use_only():
    g = CayleyGraph.from_triple(TRIPLES[2])
    assert "axis_plan" not in vars(g)
    g.neighborhood(1)
    assert "axis_plan" in vars(g)


def _toggles(t):
    """C, then C with each gcd class {x : gcd(x, n) = d}, 0 < d < n, toggled
    in or out, then C with each symmetric pair {x, n − x}, 0 < x ≤ n/2,
    toggled, each ascending."""
    n, members = t.n, set(CayleyGraph.from_triple(t).members)
    yield tuple(sorted(members))
    for d in divisors(n)[:-1]:
        yield tuple(sorted(members ^ {x for x in range(d, n, d) if gcd(x, n) == d}))
    for x in range(1, n // 2 + 1):
        yield tuple(sorted(members ^ {x, n - x}))


@pytest.mark.parametrize("t", TRIPLES[:2], ids=IDS[:2])
def test_the_axis_premise_is_the_order_scan_verdict_under_every_toggle(t):
    # every prime is an axis exactly when `verify`'s connecting-set oracle
    # passes, and under no gcd-class or pair toggle does either hold
    verdicts = []
    for members in _toggles(t):
        g = CayleyGraph(t, members)
        premise = g.axis_plan[0] == t.primes
        assert premise == oracles.order_scan(g)[0], members
        verdicts.append(premise)
    assert verdicts[0] and not any(verdicts[1:])
    assert len(verdicts) == 1 + 26 + t.n // 2


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_a_planted_member_list_takes_no_axis(t, monkeypatch):
    # with one member of a class gone, the other two classes still lie whole
    # among the members, yet the plan takes no axis: it never builds a
    # partial plan, and its premise reads the closed-form classes, not the
    # member list that the plants go through
    members = CayleyGraph.from_triple(t).members
    for gone in (members[0], members[len(members) // 2], members[-1]):
        monkeypatch.setattr(graph, "enumerate_connectors", lambda t: tuple(m for m in members if m != gone))
        g = CayleyGraph.from_triple(t)
        assert g.axis_plan == ((), g.members), gone


def test_axis_plan_on_the_premise_peaks_below_one_mib():
    # the merge against the closed-form classes builds no set and no list:
    # at (2,3,401), |C| = 160,408, the plan peaks below 1 MiB
    g = CayleyGraph.from_triple(make_prime_triple(2, 3, 401))
    tracemalloc.start()
    try:
        plan = g.axis_plan
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan == ((2, 3, 401), ())
    assert peak < 2**20, peak


@pytest.mark.parametrize("primes", [(2, 3, 5), (3, 5, 7), (2, 3, 167)], ids=["2,3,5", "3,5,7", "2,3,167"])
@pytest.mark.parametrize("run", [certify, run_verification], ids=["certify", "run_verification"])
def test_one_run_makes_one_premise_pass(primes, run, monkeypatch):
    # the members are C is decided once per run, on the one graph, and every
    # stage that reads the premise reads that verdict: the merge against the
    # closed-form classes runs once, whatever the stages and the oracles ask
    calls = Counter()
    classes = graph.connector_classes
    monkeypatch.setattr(graph, "connector_classes", lambda t: calls.update([t.primes]) or classes(t))
    run(make_prime_triple(*primes))
    assert calls == {primes: 1}


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_neighborhood_takes_members_mod_n(t):
    # a member outside [0, n) counts as its residue mod n: n + a²b² repeats
    # a²b² and 2n − 1 plants n − 1, and the neighbourhood follows suit
    members = CayleyGraph.from_triple(t).members
    vertices = [0, 1, t.n // 3]
    for extra in (t.n + t.m_alpha * t.m_beta, 2 * t.n - 1):
        g = CayleyGraph(t, (*members, extra))
        assert g.neighborhood(bitset(g, vertices)) == bitset(g, reference_neighborhood(t.n, g.members, vertices))


def test_internal_edges_matches_pair_count():
    g = CayleyGraph.from_triple(TRIPLES[0])
    rng = random.Random(5)
    for _ in range(20):
        s = sorted(rng.sample(range(g.triple.n), rng.randrange(2, 80)))
        pairs = sum(g.adjacent(u, v) for i, u in enumerate(s) for v in s[i + 1 :])
        assert internal_edges(g, bitset(g, s)) == pairs


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_planted_edge_counts_once(t):
    g = CayleyGraph.from_triple(t)
    members = g.members
    cert = list(set_bits(block_set(g, independence_certificate(t).residues)))
    assert internal_edges(g, bitset(g, cert)) == 0
    u = cert[len(cert) // 2]
    for c in (members[0], members[-1]):  # one connector below n/2, one above
        v = (u + c) % t.n
        blocked = set(neighbors(g, v))
        planted = [w for w in cert if w not in blocked] + [u, v]
        assert internal_edges(g, bitset(g, planted)) == 1


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_periodic_matches_set_reference(t):
    g = CayleyGraph.from_triple(t)
    a, b, c = t.primes
    rng = random.Random(t.n)
    for period in (a * a, b * b, c * c, a * b * c, a * b * c * c, t.n):
        for residues in ([], [0], [period - 1], rng.sample(range(period), period // 3), range(period)):
            chosen = set(residues)
            expected = bitset(g, (v for v in range(t.n) if v % period in chosen))
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
        assert g.multiples(d) == bitset(g, range(0, t.n, d)), d
    for d in (0, -4):
        with pytest.raises(ValueError):
            g.multiples(d)


@pytest.mark.parametrize("t", TRIPLES[:2], ids=IDS[:2])
def test_closure_equals_the_or_of_its_shifts(t):
    # S + {j·h : j < count} unreduced, for step 1 and the kernel's steps n/p²
    # and n/p, at every count up to 33: the doubling never overshoots count
    g = CayleyGraph.from_triple(t)
    rng = random.Random(t.n)
    sets = [1, bitset(g, [0, 1, 5, t.n - 1]), bitset(g, rng.sample(range(t.n), 40))]
    for h in {1, *(t.n // p**e for p in t.primes for e in (1, 2))}:
        for count in range(1, 34):
            for s in sets:
                expected = 0
                for j in range(count):
                    expected |= s << j * h
                assert _closure(s, h, count) == expected, (h, count)


def test_multiples_match_set_reference_for_every_step():
    g = CayleyGraph.from_triple(TRIPLES[0])
    n = TRIPLES[0].n
    for d in range(1, n + 2):
        assert g.multiples(d) == bitset(g, range(0, n, d)), d


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_distance_classes_match_table(t):
    # levels planted as the table's classes match every vertex; relabelled
    # k → k + s they match none, for every shift s = 1…6: so E_k is exactly
    # the table's class k for every k
    g = CayleyGraph.from_triple(t)
    plant_table_levels(g)
    assert distance_sweep(g, 2) == (3, 3 * t.n, 6, 0)
    for shift in range(1, 7):
        g = CayleyGraph.from_triple(t)
        plant_table_levels(g, shift)
        assert distance_sweep(g, 2) == (3, 3 * t.n, 6 + shift, 3 * t.n), shift


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_levels_from_vertex_zero_are_built_once(t, monkeypatch):
    built = count_level_builds(monkeypatch)
    g = CayleyGraph.from_triple(t)
    first = g.levels_from_zero
    assert isinstance(first, tuple) and g.levels_from_zero is first
    assert g.is_connected().connected and parameters.diameter(t, g).bfs_eccentricity == 6
    oracles.distance_sweep(g, 1)
    g.bfs(1)
    assert built == [g]
    built.clear()
    build_report(t)
    assert len(built) == 1
    built.clear()
    run_verification(t, 1)
    assert len(built) == 1


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
@pytest.mark.parametrize("shift", [1, 99])
def test_one_wrong_table_entry_gives_one_mismatch_per_source(t, shift):
    # the table's classes planted as levels with one entry wrong, one vertex
    # moved from level k to level k + shift: one mismatch per source, also
    # when no class reaches the new level
    g = CayleyGraph.from_triple(t)
    levels = list(plant_table_levels(g))
    bit = 1 << (t.n // 2 + 1)
    k = next(k for k, level in enumerate(levels) if level & bit)
    levels += [0] * max(0, k + shift + 1 - len(levels))
    levels[k] ^= bit
    levels[k + shift] |= bit
    g.__dict__["levels_from_zero"] = tuple(levels)
    report = distance_sweep(g, 4)
    assert report.sources == 5
    assert report.mismatches == 5
    assert report.max_distance == max(6, k + shift)


def test_sweep_counts_unreached_vertices():
    # only the c²-order connectors: the graph splits into a²b² components
    t = TRIPLES[0]
    m_ab = t.m_alpha * t.m_beta
    gamma_class = tuple(c for c in CayleyGraph.from_triple(t).members if c % m_ab == 0)
    g = CayleyGraph(t, gamma_class)
    table = closed_form_distance_table(t)
    report = distance_sweep(g, 3)
    expected = 0
    for s in (0, 1, 450, t.n - 1):  # any four sources: each has the same count
        dist = reference_bfs(t.n, gamma_class, s)
        expected += sum(dist[v] != table[(v - s) % t.n] for v in range(t.n))
    assert report.mismatches == expected > t.n
    assert report.max_distance == 2


def _edit_class_zero(monkeypatch, edit) -> None:
    """From now on the residue sets that `parameters` builds pass through
    edit(residues); that set is the independence certificate, which is
    colour class 0 of `verify_coloring`."""
    residues = parameters.block_residues
    monkeypatch.setattr(parameters, "block_residues", lambda t, ids: edit(residues(t, ids)))


def _period(t) -> int:
    return t.alpha * t.beta * t.gamma


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_bad_coloring_is_improper(t, monkeypatch):
    # the residue of a connector, adjacent to vertex 0, recoloured like it
    g = CayleyGraph.from_triple(t)
    clash = g.members[0] % _period(t)
    assert certificate_color(0, t) == 0 != certificate_color(clash, t)
    _edit_class_zero(monkeypatch, lambda zero: sorted({*zero, clash}))
    result = certified_coloring(t, g)
    assert result.proper is False
    assert result.edges_checked == t.n * g.degree // 2


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_colour_clash_in_last_period_is_improper(t, monkeypatch):
    # the colouring repeats with period abc, and the check reads one period
    # of residues, to its end: the last vertex outside class 0 is n − 1, the
    # last residue abc − 1, or at (3,5,7), where n − 1 lies in class 0,
    # n − 2; it has a neighbour in class 0, so recolouring it like class 0 clashes
    v = next(v for v in range(t.n - 1, 0, -1) if certificate_color(v, t) != 0)
    g = CayleyGraph.from_triple(t)
    assert v == t.n - (2 if t.primes == (3, 5, 7) else 1)
    assert any(certificate_color(w, t) == 0 for w in neighbors(g, v))
    _edit_class_zero(monkeypatch, lambda zero: sorted({*zero, v % _period(t)}))
    assert certified_coloring(t, g).proper is False


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
@pytest.mark.parametrize("fault", ["no class", "two classes", "extra class"])
def test_coloring_that_is_no_partition_into_gamma_classes_is_improper(t, fault, monkeypatch):
    # a residue in no class leaves class 0 free of edges, so only the
    # partition test catches it; a residue in class 0 and its own, or one
    # rotation of class 0 more than the c of the clique certificate, break
    # the partition as well
    in_zero = next(v for v in range(t.n // 2, t.n) if certificate_color(v, t) == 0) % _period(t)
    outside = next(v for v in range(t.n // 2, t.n) if certificate_color(v, t) != 0) % _period(t)
    m_ab = t.m_alpha * t.m_beta
    if fault == "no class":
        _edit_class_zero(monkeypatch, lambda zero: [r for r in zero if r != in_zero])
    elif fault == "two classes":
        _edit_class_zero(monkeypatch, lambda zero: sorted({*zero, outside}))
    else:
        monkeypatch.setattr(parameters, "clique_certificate", lambda t: clique_certificate(t) + (t.gamma * m_ab,))
    assert certified_coloring(t, CayleyGraph.from_triple(t)).proper is False


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_class_zero_rotations_are_the_certificate_classes(t, monkeypatch):
    g = CayleyGraph.from_triple(t)
    colours = {}
    for v in range(t.n):
        colours.setdefault(certificate_color(v, t), []).append(v)
    built = []
    _edit_class_zero(monkeypatch, lambda zero: built.append(zero) or zero)
    assert certified_coloring(t, g).proper
    [zero] = built
    rotations = {certificate_color(k, t): rotate(g, block_set(g, zero), k) for k in clique_certificate(t)}
    assert rotations == {colour: bitset(g, vs) for colour, vs in colours.items()}


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_residue_blocks_and_independence_members_match_block_of(t):
    # every single block and the independence index set, which is colour
    # class 0, each against the union of its blocks by the per-vertex
    # projection; the certificate's members are listed as the independent-set
    # export lists them
    g = CayleyGraph.from_triple(t)
    members = {}
    for v in range(t.n):
        members.setdefault(block_of(v, t), []).append(v)

    def union(ids):
        return bitset(g, (v for x in ids for v in members[x]))

    assert len(members) == _period(t)
    assert all(block_set(g, structure.block_residues(t, [x])) == union([x]) for x in members)
    cert = independence_certificate(t)
    listed = [base + r for base in range(0, t.n, cert.period) for r in cert.residues]
    assert listed == list(set_bits(union(cert.index_set)))
    assert cert.size == len(listed) and cert.period == _period(t)
    assert union(cert.index_set) == bitset(g, (v for v in range(t.n) if certificate_color(v, t) == 0))


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_coloring_takes_one_neighbourhood_and_independence_no_block(t, monkeypatch):
    # class 0 stands for every class and is the certificate, one period of
    # residues: no neighbourhood at all and no per-block construction; its
    # ids map through one CRT basis (structure.block_residues), and the
    # colouring reads the certificate and its scan without building another
    calls = {"neighborhood": 0, "crt_basis": 0}

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update({name: calls[name] + 1}) or fn(*args))

    counted(CayleyGraph, "neighborhood")
    counted(structure, "crt_basis")
    g = CayleyGraph.from_triple(t)
    cert = independence_certificate(t)
    scan = independence_internal_edges(cert, g)
    assert scan.internal_edges == 0 and verify_coloring(t, cert, scan, clique_certificate(t)).proper
    assert calls == {"neighborhood": 0, "crt_basis": 1}


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


def _one_sided_plants(t) -> list[tuple[int, ...]]:
    """The connectors of t with n/2 planted (when n is even), and with 1 or
    n − 1 planted one way, without its negative."""
    members = CayleyGraph.from_triple(t).members
    planted = ([t.n // 2] if t.n % 2 == 0 else []) + [1, t.n - 1]
    return [tuple(sorted({*members, d})) for d in planted]


def _class_zero(t) -> list[int]:
    """Colour class 0, the independence certificate's ids, as residues found
    by scanning all abc of them."""
    return residues_of(t, parameters.independence_index_set(t))


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_residue_checks_equal_their_n_bit_references_under_connector_faults(t):
    # the colouring on N(class 0), the internal edges by one n-bit AND per
    # step ±c and block adjacency on N(B₀), at the real connectors, with
    # symmetric pairs planted or removed, and with n/2 or a one-way step planted
    zero = _class_zero(t)
    cert = independence_certificate(t)
    seen = set()
    for members in _symmetric_edits(t) + _one_sided_plants(t):
        g = CayleyGraph(t, members)
        proper = certified_coloring(t, g).proper
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
    # the first and last residues outside class 0 (abc − 1 lies in it at
    # (3,5,7)) and a connector's
    last = max(r for r in range(_period(t)) if r not in zero)
    outside = [r for r in (1, last, g.members[0] % _period(t)) if r not in zero]
    assert len(set(outside)) == 3
    for r in outside:
        moved = sorted({*zero, r})
        monkeypatch.setattr(parameters, "block_residues", lambda _t, _ids: moved)
        assert certified_coloring(t, g).proper is False
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
            assert certified_coloring(t, g).proper == (tiling and not g.neighborhood(zero_set) & zero_set)
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
            assert certified_coloring(t, g).proper == rotations_by_sort(t, z, clique_certificate(t)) == expected


@pytest.mark.parametrize(
    "primes, count",
    [((2, 3, 5), None), ((2, 3, 7), None), ((3, 5, 7), None), ((5, 7, 11), 8_855), ((7, 11, 13), 31_031)],
    ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_an_extra_block_in_the_certificate_counts_as_its_n_bit_reference(primes, count):
    # block (0, 0, 1) agrees with the certificate's (0, 0, 0) in two residues;
    # the count matches its reference also with n/2 or a one-way step planted
    t = make_prime_triple(*primes)
    g = CayleyGraph.from_triple(t)
    ids = independence_certificate(t).index_set + ((0, 0, 1),)
    cert = IndependenceCertificate(ids, tuple(structure.block_residues(t, ids)), _period(t))
    got = independence_internal_edges(cert, g).internal_edges
    s = block_set(g, residues_of(t, ids))
    assert got == internal_edges(g, s) > 0
    assert count is None or got == count
    for members in _one_sided_plants(t):
        planted = CayleyGraph(t, members)
        assert independence_internal_edges(cert, planted).internal_edges == internal_edges(planted, s) > got


def test_the_four_residue_checks_build_no_n_bit_set_at_a_large_c_triple(monkeypatch):
    # at (2,3,167) one n-bit AND per connector is 27,730 operations on ints of
    # a million bits; the four checks must pass without building any n-bit set
    t = make_prime_triple(2, 3, 167)
    g = CayleyGraph.from_triple(t)
    assert t.n == 1_004_004 and g.degree == 27_730
    calls = Counter()
    for name in ("neighborhood", "multiples"):
        fn = getattr(CayleyGraph, name)
        monkeypatch.setattr(CayleyGraph, name, lambda *args, _fn=fn, _name=name: calls.update([_name]) or _fn(*args))
    assert certified_coloring(t, g).proper
    assert independence_internal_edges(independence_certificate(t), g).internal_edges == 0
    assert verify_block_partition(g) and verify_block_adjacency(g)
    assert not calls


def test_certify_takes_neighbourhoods_only_for_bfs(monkeypatch):
    # at (2,3,167), n = 1,004,004: every neighbourhood certify takes is a BFS
    # level's, and no certificate check builds or rotates an n-bit set; the
    # BFS stops at full reach, so it takes none after the last level
    callers = Counter()
    for name in ("neighborhood", "multiples"):
        fn = getattr(CayleyGraph, name)

        def recorded(*args, _fn=fn, _name=name):
            callers.update([f"{_name} from {sys._getframe(1).f_code.co_name}"])
            return _fn(*args)

        monkeypatch.setattr(CayleyGraph, name, recorded)
    c = certify(make_prime_triple(2, 3, 167))
    assert c.walk_verified and all(c.fiber.values()) and c.connectivity.connected
    assert callers == {"neighborhood from levels_from_zero": c.diameter.bfs_eccentricity}


@pytest.mark.parametrize("t", TRIPLES, ids=IDS)
def test_certify_builds_one_residue_set_and_counts_its_edges_once(t, monkeypatch):
    # colour class 0 is the independence certificate: certify maps block ids
    # to residues once and counts the edges inside them once, for both the
    # colouring and the independence verdicts
    calls = Counter()
    for owner, name in ((structure, "block_residues"), (parameters, "block_residues"), (parameters, "_residue_edges")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _fn=fn, _name=name: calls.update([_name]) or _fn(*args))
    c = certify(t)
    assert c.coloring.proper and c.independence_scan.internal_edges == 0
    assert calls == {"block_residues": 1, "_residue_edges": 1}


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
        return is_partition(g, (rotate(g, s, r * step) for r in range(count)))

    cases = []
    for d in divisors(n):
        count = n // d  # 3, 5, 15, 45, ... are no powers of two
        interval = bitset(g, range(d))
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
        s = bitset(g, rng.sample(range(n), n // count))
        cases.append((s, rng.randrange(n), count, None))
    for s, step, count, expected in cases:
        assert tiles(g, s, step, count) == reference(s, step, count), (s.bit_count(), step, count)
        assert expected is None or tiles(g, s, step, count) == expected, (s.bit_count(), step, count)
    assert any(tiles(g, s, step, count) for s, step, count, expected in cases if expected is None)
