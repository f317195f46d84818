from collections import Counter
from math import gcd

import pytest

import helpers
from psqcayley import graph, structure
from psqcayley.connectors import enumerate_connectors
from psqcayley.graph import CayleyGraph
from psqcayley.group import PrimeTriple, crt_combine
from psqcayley.report import certify, run_verification
from psqcayley.structure import (
    block_residues,
    index_adjacent,
    index_ids,
    verify_block_adjacency,
    verify_block_partition,
    verify_fiber_structure,
)

from helpers import (
    adjacency_by_neighbourhood,
    adjacency_by_residue_scan,
    bitset,
    block_of,
    block_set,
    cell_rule_by_difference,
    divisors,
    is_cycle,
    is_partition,
    residues_of,
    triples_with_group_order_at_most,
)

T235 = PrimeTriple(2, 3, 5)
T237 = PrimeTriple(2, 3, 7)
T357 = PrimeTriple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)
SMALL = pytest.mark.parametrize("t", [T235, T357], ids=lambda t: ",".join(map(str, t.primes)))
LADDER = triples_with_group_order_at_most(1_100_000)


def _plant(monkeypatch, extra) -> None:
    """Graphs built from now on also join the differences ±extra(t)."""

    def with_extra(t):
        return tuple(sorted(enumerate_connectors(t) + (extra(t), t.n - extra(t))))

    monkeypatch.setattr(graph, "enumerate_connectors", with_extra)


def _blocks_ok(t) -> tuple[bool, bool]:
    g = CayleyGraph.from_triple(t)
    return verify_block_partition(g), verify_block_adjacency(g)


def _residue_blocks(g: CayleyGraph) -> dict[tuple[int, int, int], int]:
    """Every block by the per-vertex residue projection."""
    members: dict[tuple[int, int, int], list[int]] = {}
    for v in range(g.triple.n):
        members.setdefault(block_of(v, g.triple), []).append(v)
    return {x: bitset(g, vs) for x, vs in members.items()}


def _constructed_blocks(g: CayleyGraph, combine=crt_combine) -> dict[tuple[int, int, int], int]:
    """Every block from its component triples (i + a·x, j + b·y, k + c·z),
    combined by `combine` (so a fault planted there shows)."""
    t = g.triple
    a, b, c = t.primes
    return {
        (i, j, k): bitset(
            g, (combine((i + a * x, j + b * y, k + c * z), t) for x in range(a) for y in range(b) for z in range(c))
        )
        for i, j, k in index_ids(t)
    }


def _partition_by_blocks(g: CayleyGraph, combine=crt_combine) -> bool:
    """Block partition with every block compared to its construction: the
    reference for the partition by translation."""
    constructed = _constructed_blocks(g, combine)
    return is_partition(g, constructed.values()) and constructed == _residue_blocks(g)


def _partition_by_construction(g: CayleyGraph, combine=crt_combine) -> bool:
    """Block 0's construction, sorted, is abc·Z_n: the reference for the
    partition by pairwise coprime moduli, O(abc log abc)."""
    t = g.triple
    a, b, c = t.primes
    block0 = (combine((a * x, b * y, c * z), t) for x in range(a) for y in range(b) for z in range(c))
    return sorted(block0) == list(range(0, t.n, a * b * c))


def _adjacency_by_pairs(g: CayleyGraph) -> bool:
    """Block adjacency over every block pair: the reference for the check on
    N(B₀)."""
    residue_blocks = _residue_blocks(g)
    ids = index_ids(g.triple)
    for x, bx in enumerate(ids):
        reach = g.neighborhood(residue_blocks[bx])
        if reach & residue_blocks[bx]:
            return False
        if any(bool(reach & residue_blocks[by]) != index_adjacent(bx, by) for by in ids[x + 1 :]):
            return False
    return True


def _gamma_fibers_by_fiber(g: CayleyGraph) -> bool:
    """Fiber check (i) with one neighbourhood per gamma fiber."""
    m_ab, m_c = g.triple.moduli[0] * g.triple.moduli[1], g.triple.moduli[2]
    fibers = (((1 << m_ab) - 1) << (k * m_ab) for k in range(m_c))
    return not any(g.neighborhood(f) & f for f in fibers)


def _cell_cycles_by_cell(g: CayleyGraph) -> bool:
    """Fiber check (iii) with one cycle check per (alpha, beta) cell."""
    t = g.triple
    m_a, m_b, m_c = t.moduli
    m_ab = m_a * m_b
    return all(
        is_cycle(g, [r + s * m_a + k * m_ab for k in range(m_c)])
        for r in range(m_a)
        for s in range(m_b)
    )


def _fiber_items_by_loops(g: CayleyGraph) -> dict[str, bool]:
    """Fiber checks (iv) to (viii) by their literal loops, over the a²b²
    multiples of c², the a² multiples of b²c² and one b²-entry sequence per
    alpha fiber, cycles replayed entry by entry: the references for the gcd
    lemmas and the step rule."""
    t = g.triple
    n, (m_a, m_b, m_c) = t.n, t.moduli
    m_ab = m_a * m_b
    iv = sorted(k * m_c % m_ab for k in range(1, m_ab)) == list(range(1, m_ab))
    v = all(len({(k * m_a * m_c + r * m_c) % m_a for k in range(m_b)}) == 1 for r in range(m_a))
    reps: dict[int, list[int]] = {}
    for k in range(m_a):
        x = k * m_b * m_c % n
        reps.setdefault(x % m_a, []).append(x)
    vi = len(reps) == m_a and all(len(xs) == 1 for xs in reps.values())
    vii = is_cycle(g, sorted(x for xs in reps.values() for x in xs))
    seqs = [[(reps[r][0] + l * m_a * m_c) % n for l in range(m_b)] for r in range(m_a)] if vi else []
    viii = vi and all(
        is_cycle(g, seq) and all(x % m_a == r for x in seq) and {(x % m_ab) // m_a for x in seq} == set(range(m_b))
        for r, seq in enumerate(seqs)
    )
    return {"iv": iv, "v": v, "vi": vi, "vii": vii, "viii": viii}


@pytest.mark.parametrize("t", [T235, T237, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_fiber_i_by_connectors_equals_the_neighbourhood_reference(t):
    # fiber 0 = [0, a²b²) holds an edge iff a connector lies in (0, a²b²) or
    # (n − a²b², n); each planted one-way connector is checked against the
    # n-bit neighbourhood of every gamma fiber.  a²b² and n − a²b² are
    # connectors already, the bounds of the rule
    n, m_ab = t.n, t.moduli[0] * t.moduli[1]
    members = enumerate_connectors(t)
    planted = {None: True, 1: False, m_ab - 1: False, n - m_ab + 1: False, n - 1: False, m_ab: True, n - m_ab: True}
    for extra, expected in planted.items():
        cs = members if extra is None else tuple(sorted(set(members) | {extra}))
        g = CayleyGraph(t, cs)
        assert verify_fiber_structure(g)["i"] is _gamma_fibers_by_fiber(g) is expected, extra


def _members(t, ids) -> list[int]:
    """The vertices of the union of the blocks with these ids, ascending."""
    period = t.alpha * t.beta * t.gamma
    return [base + r for base in range(0, t.n, period) for r in block_residues(t, ids)]


def test_block_members():
    assert block_residues(T235, [(0, 0, 0)]) == [0]
    members = _members(T235, [(0, 0, 0)])
    assert len(members) == 30
    assert 0 in members
    assert crt_combine((2, 3, 5), T235) in members


def test_block_internally_independent():
    verts = _members(T235, [(1, 2, 4)])
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    assert len(pairs) == 435
    assert not any(G235.adjacent(u, v) for u, v in pairs)


@pytest.mark.parametrize("t", [T235, T357, PrimeTriple(5, 7, 11)], ids=lambda t: ",".join(map(str, t.primes)))
def test_block_residues_by_the_crt_equal_the_residue_scan(t):
    # each id of the box, one by one and all at once, against the scan of
    # all abc residues by the per-vertex projection
    ids = index_ids(t)
    assert all(block_residues(t, [x]) == residues_of(t, [x]) for x in ids)
    assert block_residues(t, ids) == residues_of(t, ids) == list(range(t.alpha * t.beta * t.gamma))


def test_block_of_is_residue_projection():
    for v in range(0, 900, 11):
        assert block_of(v, T235) == (v % 2, v % 3, v % 5)


def test_partition_verifies():
    assert _blocks_ok(T235) == (True, True)
    assert _blocks_ok(T357) == (True, True)


@SMALL
def test_block_checks_equal_their_per_block_references(t):
    g = CayleyGraph.from_triple(t)
    assert verify_block_partition(g) is _partition_by_construction(g) is _partition_by_blocks(g) is True
    assert verify_block_adjacency(g) is adjacency_by_residue_scan(g) is _adjacency_by_pairs(g) is True


@SMALL
def test_fiber_checks_equal_their_per_fiber_references(t):
    g = CayleyGraph.from_triple(t)
    items = verify_fiber_structure(g)
    assert items["i"] is _gamma_fibers_by_fiber(g) is True
    assert items["iii"] is _cell_cycles_by_cell(g) is True
    assert items["viii"] is _fiber_items_by_loops(g)["viii"] is True


def test_structure_checks_run_above_twenty_thousand_vertices():
    # n = 27,225, above the export cap: the structure checks know no vertex cap
    c = certify(PrimeTriple(3, 5, 11))
    assert all(c.fiber.values()) and c.block_adjacency is True and c.verdicts["structure"] is True


def test_structure_stage_takes_no_neighbourhood_and_no_construction(monkeypatch):
    # no per-block or per-fiber loop and no n-bit set: one step rule each
    # for (iii), (vii) and (viii), whatever the triple; fiber (i) and block
    # adjacency read the connectors, with no neighbourhood, and the block
    # partition is a stated lemma, with no construction of block 0
    calls = {"neighborhood": 0, "is_step_cycle": 0}
    built = []
    inside = [False]

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += inside[0]
            return fn(*args)

        monkeypatch.setattr(owner, name, wrapper)

    def stage(name):
        fn = getattr(structure, name)

        def wrapper(*args):
            inside[0] = True
            try:
                return fn(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(structure, name, wrapper)

    multiples = graph.CayleyGraph.multiples

    def recorded(g, d):
        if inside[0]:
            built.append(d)
        return multiples(g, d)

    counted(graph.CayleyGraph, "neighborhood")
    counted(graph.CayleyGraph, "is_step_cycle")
    monkeypatch.setattr(graph.CayleyGraph, "multiples", recorded)
    for name in ("verify_fiber_structure", "verify_block_adjacency"):
        stage(name)
    for t in (T235, T357):
        calls.update(neighborhood=0, is_step_cycle=0)
        built.clear()
        c = certify(t)
        assert all(c.fiber.values()) and c.block_adjacency
        assert calls == {"neighborhood": 0, "is_step_cycle": 3}
        assert built == []


@pytest.mark.parametrize("run", [certify, run_verification], ids=["certify", "run_verification"])
@SMALL
def test_a_run_decides_no_lemma_of_the_triple(t, run, monkeypatch):
    # the block partition, fiber items (iv) and (vi) and (viii)'s crossings
    # hold at every PrimeTriple: a run calls no `verify_block_partition` and
    # no gcd in `structure`, and still prints them as true.  The gcd probe
    # sees the partition check's three gcds when that check is called
    calls = Counter()
    partition, structure_gcd = structure.verify_block_partition, structure.gcd
    monkeypatch.setattr(structure, "verify_block_partition", lambda g: calls.update(["partition"]) or partition(g))
    monkeypatch.setattr(structure, "gcd", lambda x, y: calls.update(["gcd"]) or structure_gcd(x, y))
    outcome = run(t)
    assert calls == {}
    if run is certify:
        assert outcome.verdicts["structure"] is True
    else:
        assert "PASS structure" in {line.split(":")[0] for line in outcome.lines}
    assert partition(CayleyGraph.from_triple(t)) is True
    assert calls == {"gcd": 3}


def test_index_graph_rule():
    assert index_ids(T235) == [(i, j, k) for i in range(2) for j in range(3) for k in range(5)]
    assert index_adjacent((0, 0, 0), (1, 0, 0))
    assert not index_adjacent((0, 0, 0), (1, 1, 0))
    assert not index_adjacent((0, 0, 0), (0, 0, 0))
    assert not index_adjacent((0, 0, 0), (1, 1, 1))


def test_block_adjacency_consistency():
    assert verify_block_adjacency(G235)


@pytest.mark.parametrize("extra", [30, 1])
def test_block_and_fiber_checks_catch_a_planted_connector(extra, monkeypatch):
    # 30 = abc joins vertices of one block; 1 joins blocks that agree in no
    # residue.  Either joins vertices of one gamma fiber (an interval of 36).
    _plant(monkeypatch, lambda t: extra)
    g = CayleyGraph.from_triple(T235)
    assert not verify_block_adjacency(g) and not _adjacency_by_pairs(g)
    assert not verify_fiber_structure(g)["i"] and not _gamma_fibers_by_fiber(g)


def _without(t, drop) -> CayleyGraph:
    """The graph of t with the connectors ±d, for d in drop, removed."""
    gone = {x % t.n for d in drop for x in (d, -d)}
    return CayleyGraph(t, tuple(m for m in enumerate_connectors(t) if m not in gone))


@SMALL
def test_block_adjacency_catches_index_adjacent_blocks_without_an_edge(t):
    # without the a²- and b²-order connectors only blocks that differ in the
    # c-residue alone are joined, so (1, 0, 0) is index-adjacent to (0, 0, 0)
    # yet sees no edge from it
    m_ab = t.moduli[0] * t.moduli[1]
    g = _without(t, [c for c in enumerate_connectors(t) if c % m_ab])
    assert verify_block_partition(g)
    assert not verify_block_adjacency(g) and not _adjacency_by_pairs(g)


@SMALL
def test_cross_section_cycles_catch_a_removed_connector(t):
    # without ±a²c² no cross-section sequence closes a single step
    g = _without(t, [t.moduli[0] * t.moduli[2]])
    items = verify_fiber_structure(g)
    assert items["vi"]
    assert not items["viii"] and not _fiber_items_by_loops(g)["viii"]


@SMALL
def test_cell_cycles_catch_a_removed_connector(t):
    # without ±a²b² no cell cycle closes a single step
    g = _without(t, [t.moduli[0] * t.moduli[1]])
    assert not verify_fiber_structure(g)["iii"] and not _cell_cycles_by_cell(g)


def test_block_adjacency_catches_a_projection_fault_at_the_last_residue(monkeypatch):
    # a projection that also puts residue abc − 1, of block (a − 1, b − 1,
    # c − 1), into every residue set holding residue 0: the residue scan's
    # N(B₀) then holds a block that agrees with (0, 0, 0) in no residue, and
    # so does the n-bit N(B₀).  `verify` no longer reads the projection: it
    # reads the connectors' ids, and passes
    projection = helpers.residues_of

    def plant(t, ids):
        residues = projection(t, ids)
        last = t.alpha * t.beta * t.gamma - 1
        return sorted({*residues, last}) if 0 in residues else residues

    monkeypatch.setattr(helpers, "residues_of", plant)
    for t in (T235, T357):
        b0 = plant(t, [(0, 0, 0)])
        assert b0 == [0, t.alpha * t.beta * t.gamma - 1]
        g = CayleyGraph.from_triple(t)
        assert adjacency_by_residue_scan(g) is False
        assert adjacency_by_neighbourhood(g, block_set(g, b0)) is False
        assert _blocks_ok(t) == (True, True)


def _move_in_construction(moved: dict[int, int]):
    """crt_combine, but returning moved[v] in place of each vertex v that
    the mapping names."""

    def faulty(comps, t):
        v = crt_combine(comps, t)
        return moved.get(v, v)

    return faulty


def _structure_line(t) -> str:
    [line] = [x for x in run_verification(t, 0).lines if " structure: " in x]
    return line


def test_block_partition_catches_a_vertex_in_two_blocks_and_one_in_none():
    # block 0's construction lists u = crt(a, 0, 0) as u + 1, a vertex of
    # block (1, 1, 1) (crt(1, 1, 1) = 1): u + 1 then lies in the constructed
    # blocks 0 and (1, 1, 1), and u in none.  `verify` no longer reads the
    # construction: it decides the partition by the pairwise coprime moduli
    for t in (T235, T357):
        g = CayleyGraph.from_triple(t)
        u = crt_combine((t.alpha, 0, 0), t)
        faulty = _move_in_construction({u: u + 1})
        assert not is_partition(g, _constructed_blocks(g, faulty).values())
        assert _partition_by_construction(g, faulty) is False
        assert verify_block_partition(g) is True
        assert _structure_line(t).startswith("PASS structure: ")


def test_block_partition_catches_two_vertices_swapped_between_residue_sets():
    # u = crt(a, 0, 0) of block 0 and v = crt(a + 1, 0, 0) of block (1, 0, 0)
    # trade places in the constructions: every block still has abc members
    # and the constructed blocks still partition V, so only the comparison
    # with the residue projection sees that block 0 is not abc·Z_n.  `verify`
    # no longer reads the construction: it decides the partition by the
    # pairwise coprime moduli
    for t in (T235, T357):
        g = CayleyGraph.from_triple(t)
        u, v = crt_combine((t.alpha, 0, 0), t), crt_combine((t.alpha + 1, 0, 0), t)
        faulty = _move_in_construction({u: v, v: u})
        assert is_partition(g, _constructed_blocks(g, faulty).values())
        assert not _partition_by_blocks(g, faulty)
        assert _partition_by_construction(g, faulty) is False
        assert verify_block_partition(g) is True
        assert _structure_line(t).startswith("PASS structure: ")


def test_block_partition_by_coprime_moduli_equals_the_construction_at_every_census_triple():
    # the lemma and block 0's sorted construction agree at all 146 triples
    assert len(LADDER) == 146
    for t in LADDER:
        g = CayleyGraph(t, ())
        assert verify_block_partition(g) is _partition_by_construction(g) is True, t.primes


def _toggled_member_lists(t) -> list[tuple[int, ...]]:
    """The members of t with each gcd class, then each single element x of
    Z_n, toggled in or out."""
    n, members = t.n, set(enumerate_connectors(t))
    classes = [{d * k for k in range(1, n // d) if gcd(k, n // d) == 1} for d in divisors(n)[:-1]]
    return [tuple(sorted(members ^ toggled)) for toggled in classes + [{x} for x in range(n)]]


@pytest.mark.parametrize("t", [T235, T237], ids=lambda t: ",".join(map(str, t.primes)))
def test_block_adjacency_by_ids_equals_the_residue_scan_under_every_toggle(t):
    # the 26 gcd-class toggles and the n single toggles: the connectors'
    # ids against the residues of N(B₀) found by scanning all abc residues
    verdicts = set()
    for members in _toggled_member_lists(t):
        g = CayleyGraph(t, members)
        verdict = verify_block_adjacency(g)
        assert verdict is adjacency_by_residue_scan(g), members
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _cell_rule_by_pairs(g: CayleyGraph) -> bool:
    """Fiber check (ii) over every pair of every cell: the reference for the
    check by difference."""
    t = g.triple
    n, m_ab, m_c = t.n, t.moduli[0] * t.moduli[1], t.moduli[2]
    rule = [dk % t.gamma != 0 for dk in range(m_c)]  # rule[k2 − k1]
    for base in range(m_ab):
        cell = range(base, n, m_ab)
        for k1, x in enumerate(cell):
            if [g.is_connector((y - x) % n) for y in cell[k1 + 1 :]] != rule[1 : m_c - k1]:
                return False
    return True


def test_cell_rule_catches_a_planted_connector(monkeypatch):
    # γ·a²b² joins cell pairs whose top digits agree modulo gamma
    _plant(monkeypatch, lambda t: t.gamma * t.moduli[0] * t.moduli[1])
    for t in (T235, T357):
        g = CayleyGraph.from_triple(t)
        items = verify_fiber_structure(g)
        assert not items["ii"] and not _cell_rule_by_pairs(g)
        assert items["iii"] and _cell_cycles_by_cell(g) and items["vii"] and items["viii"]


@pytest.mark.parametrize("t", [T235, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_cell_rule_by_difference_equals_the_pairwise_reference(t):
    g = CayleyGraph.from_triple(t)
    assert verify_fiber_structure(g)["ii"] is _cell_rule_by_pairs(g) is True


@pytest.mark.parametrize("t", [T235, T237, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_cell_rule_in_one_pass_equals_one_test_per_difference_under_faults(t):
    # the check reads the tops of the members that a²b² divides, the
    # reference tests each difference dk·a²b² for membership; the faults
    # toggle every gcd class in or out of C and plant single members: 0,
    # n/2, n, n + a²b², a repeated a²b² and γ·a²b²
    n, m_ab = t.n, t.moduli[0] * t.moduli[1]
    members = enumerate_connectors(t)
    cases = [members]
    for d in divisors(n)[:-1]:
        toggled = set(members) ^ {d * k for k in range(1, n // d) if gcd(k, n // d) == 1}
        cases.append(tuple(sorted(toggled)))
    cases += [tuple(sorted(members + (x,))) for x in (0, n // 2, n, n + m_ab, m_ab, t.gamma * m_ab)]
    verdicts = set()
    for cs in cases:
        g = CayleyGraph(t, cs)
        verdict = verify_fiber_structure(g)["ii"]
        assert verdict == cell_rule_by_difference(g), cs
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_cross_block_edge_witness():
    # blocks differing only in the first residue do see an edge
    u = crt_combine((0, 0, 0), T235)
    v = crt_combine((1, 0, 0), T235)
    assert block_of(u, T235) == (0, 0, 0)
    assert block_of(v, T235) == (1, 0, 0)
    assert G235.adjacent(u, v)


def test_no_cross_edge_when_all_residues_differ():
    a_block = _members(T235, [(0, 0, 0)])
    b_block = _members(T235, [(1, 1, 1)])
    assert not any(G235.adjacent(u, v) for u in a_block for v in b_block)


def test_fiber_structure_all_pass_at_small_instances():
    assert all(verify_fiber_structure(G235).values())
    assert all(verify_fiber_structure(CayleyGraph.from_triple(T237)).values())


def test_shifted_cosets_lie_in_single_alpha_fibers_at_every_ladder_triple():
    # item v as stated: each coset {k·a²c² + r·c² : k < b²} lies inside one
    # alpha fiber; it and the other seven items hold at all 146 triples
    assert len(LADDER) == 146
    for t in LADDER:
        items = verify_fiber_structure(CayleyGraph.from_triple(t))
        assert items["v"] and all(items.values()), t.primes


def _fiber_lemmas_and_loops(t: PrimeTriple) -> tuple[dict[str, bool], dict[str, bool]]:
    g = CayleyGraph.from_triple(t)
    lemmas = verify_fiber_structure(g)
    loops = _fiber_items_by_loops(g)
    return {k: lemmas[k] for k in loops}, loops


def test_fiber_lemmas_equal_their_literal_loops():
    # (iv) as gcd(c², a²b²) = 1, (v) as a² | a²c² and (vi) as
    # gcd(b²c², a²) = 1 hold at every PrimeTriple, so they are stated as
    # True; (vii) is the step rule, and (viii) the step rule with the
    # crossings that gcd(c², b²) = 1 gives.  The loops run at all 146 triples
    for t in LADDER:
        lemmas, loops = _fiber_lemmas_and_loops(t)
        assert lemmas == loops and all(loops.values()), t.primes
    # a²b² = 110,355,001 at (101, 103, 107): no loop runs over it
    assert all(verify_fiber_structure(CayleyGraph.from_triple(PrimeTriple(101, 103, 107))).values())


def _cosets_within_fiber_r(t) -> bool:
    """The stronger residue fact: the coset of r lies inside alpha fiber r."""
    m_a, m_b, m_c = t.moduli
    return all((k * m_a * m_c + r * m_c) % m_a == r for r in range(m_a) for k in range(m_b))


def test_shifted_cosets_lie_in_fiber_r_exactly_when_c_squared_is_one_mod_a_squared():
    # every member of the coset of r has residue r·c² mod a², which is r for
    # all r iff c² ≡ 1 (mod a²): so the fiber-r form fails at (3, 5, 7), where
    # 49 ≡ 4 (mod 9), and at 34 more of the 146 ladder triples
    failing = [t.primes for t in LADDER if not _cosets_within_fiber_r(t)]
    assert failing == [t.primes for t in LADDER if t.moduli[2] % t.moduli[0] != 1]
    assert (3, 5, 7) in failing and len(failing) == 35


def test_cell_adjacency_witness():
    # 0 and 180 share both lower digits and their top digits agree mod 5
    assert 180 == 5 * 36
    assert not G235.adjacent(0, 180)
    assert G235.adjacent(0, 36)


def test_nonidentity_cells_meet_gamma_square_multiples_once():
    # direct recount of the singleton property behind checklist item iv
    m_ab = 36
    cells: dict[tuple[int, int], int] = {}
    for k in range(1, m_ab):
        x = k * 25
        cells[(x % 4, (x % 36) // 4)] = cells.get((x % 4, (x % 36) // 4), 0) + 1
    assert (0, 0) not in cells
    assert len(cells) == m_ab - 1
    assert set(cells.values()) == {1}
