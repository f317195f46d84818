import pytest

from psqcayley import graph, structure
from psqcayley import (
    BlockId,
    CayleyGraph,
    OracleBudget,
    block_exponents,
    block_members,
    block_of,
    block_projection,
    certify,
    crt_combine,
    index_graph,
    make_prime_triple,
    verify_block_adjacency,
    verify_block_partition,
    verify_fiber_structure,
)
from psqcayley.connectors import ConnectingSet, enumerate_connectors

from helpers import edit_residue_classes, move_vertex

T235 = make_prime_triple(2, 3, 5)
T237 = make_prime_triple(2, 3, 7)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)


def _plant(monkeypatch, extra) -> None:
    """Graphs built from now on also join the differences ±extra(t)."""

    def with_extra(t):
        cs = enumerate_connectors(t)
        members = tuple(sorted(cs.members + (extra(t), t.n - extra(t))))
        return ConnectingSet(members, cs.class_alpha_sq, cs.class_beta_sq, cs.class_gamma_sq)

    monkeypatch.setattr(graph, "enumerate_connectors", with_extra)


def _blocks_ok(t) -> tuple[bool, bool]:
    g = CayleyGraph.from_triple(t)
    blocks = block_projection(g)
    return verify_block_partition(g, blocks), verify_block_adjacency(g, blocks)


def test_block_members():
    members = block_members(BlockId(0, 0, 0), T235)
    assert len(members) == 30
    assert (0, 0, 0) in members
    assert (2, 3, 5) in members


def test_block_internally_independent():
    verts = block_exponents(BlockId(1, 2, 4), T235)
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :]]
    assert len(pairs) == 435
    assert not any(G235.adjacent(u, v) for u, v in pairs)


def test_block_id_range():
    with pytest.raises(ValueError):
        block_members(BlockId(2, 0, 0), T235)


def test_block_of_is_residue_projection():
    for v in range(0, 900, 11):
        assert block_of(v, T235) == BlockId(v % 2, v % 3, v % 5)


def test_partition_verifies():
    assert _blocks_ok(T235) == (True, True)
    assert _blocks_ok(T357) == (True, True)


def test_partition_cap():
    # the cap is decided once, in certify: above it no structure check runs
    over = certify(T235, OracleBudget(), 899)
    assert (over.fiber, over.block_partition, over.block_adjacency) == (None, None, None)
    at = certify(T235, OracleBudget(), 900)
    assert at.fiber.all_pass and at.block_partition and at.block_adjacency


def test_index_graph_rule():
    ig = index_graph(T235)
    assert len(ig.ids()) == 30
    assert ig.adjacent(BlockId(0, 0, 0), BlockId(1, 0, 0))
    assert not ig.adjacent(BlockId(0, 0, 0), BlockId(1, 1, 0))
    assert not ig.adjacent(BlockId(0, 0, 0), BlockId(0, 0, 0))
    assert not ig.adjacent(BlockId(0, 0, 0), BlockId(1, 1, 1))


def test_block_adjacency_consistency():
    assert verify_block_adjacency(G235, block_projection(G235))


@pytest.mark.parametrize("extra", [30, 1])
def test_block_and_fiber_checks_catch_a_planted_connector(extra, monkeypatch):
    # 30 = abc joins vertices of one block; 1 joins blocks that agree in no
    # residue.  Either joins vertices of one gamma fiber (an interval of 36).
    _plant(monkeypatch, lambda t: extra)
    g = CayleyGraph.from_triple(T235)
    assert not verify_block_adjacency(g, block_projection(g))
    assert not verify_fiber_structure(g).gamma_fibers_independent


def test_block_checks_catch_a_projection_fault_at_the_last_vertex(monkeypatch):
    # the blocks repeat with period abc; a fault at vertex n − 1 breaks that
    for t in (T235, T357):
        with monkeypatch.context() as m:
            edit_residue_classes(m, lambda blocks: move_vertex(blocks, t.n - 1, BlockId(0, 0, 0)))
            assert _blocks_ok(t) == (False, False)


def test_block_partition_catches_a_vertex_in_two_blocks_and_one_in_none(monkeypatch):
    # v joins block x and u leaves it, in the projection and in the
    # constructor alike: every block keeps abc vertices and matches its
    # construction, so only the cover-and-disjoint test sees the fault
    x = BlockId(0, 0, 0)
    u = block_exponents(x, T235)[0]
    v = block_exponents(BlockId(1, 0, 0), T235)[0]
    good = structure.block_exponents

    def constructed(b, t):
        return sorted({*good(b, t), v} - {u}) if b == x else good(b, t)

    monkeypatch.setattr(structure, "block_exponents", constructed)

    def plant(blocks):
        blocks[x] = (blocks[x] & ~(1 << u)) | 1 << v

    edit_residue_classes(monkeypatch, plant)
    assert _blocks_ok(T235)[0] is False


def _cell_rule_by_pairs(g: CayleyGraph) -> bool:
    """Fiber check (ii) over every pair of every cell: the reference for the
    check by difference."""
    t = g.triple
    n, m_ab, m_c = t.n, t.m_alpha * t.m_beta, t.m_gamma
    rule = [dk % t.gamma != 0 for dk in range(m_c)]  # rule[k2 − k1]
    for base in range(m_ab):
        cell = range(base, n, m_ab)
        for k1, x in enumerate(cell):
            if [(y - x) % n in g.connector_set for y in cell[k1 + 1 :]] != rule[1 : m_c - k1]:
                return False
    return True


def test_cell_rule_catches_a_planted_connector(monkeypatch):
    # γ·a²b² joins cell pairs whose top digits agree modulo gamma
    _plant(monkeypatch, lambda t: t.gamma * t.m_alpha * t.m_beta)
    for t in (T235, T357):
        g = CayleyGraph.from_triple(t)
        items = verify_fiber_structure(g).as_dict()
        assert not items["ii"] and not _cell_rule_by_pairs(g)
        assert items["iii"] and items["vii"] and items["viii"]


@pytest.mark.parametrize("t", [T235, T357], ids=lambda t: ",".join(map(str, t.primes)))
def test_cell_rule_by_difference_equals_the_pairwise_reference(t):
    g = CayleyGraph.from_triple(t)
    assert verify_fiber_structure(g).cell_adjacency_rule is _cell_rule_by_pairs(g) is True


def test_cross_block_edge_witness():
    # blocks differing only in the first residue do see an edge
    u = crt_combine((0, 0, 0), T235)
    v = crt_combine((1, 0, 0), T235)
    assert block_of(u, T235) == BlockId(0, 0, 0)
    assert block_of(v, T235) == BlockId(1, 0, 0)
    assert G235.adjacent(u, v)


def test_no_cross_edge_when_all_residues_differ():
    a_block = block_exponents(BlockId(0, 0, 0), T235)
    b_block = block_exponents(BlockId(1, 1, 1), T235)
    assert not any(G235.adjacent(u, v) for u in a_block for v in b_block)


def test_fiber_structure_all_pass_at_small_instances():
    assert verify_fiber_structure(G235).all_pass
    assert verify_fiber_structure(CayleyGraph.from_triple(T237)).all_pass


def test_fiber_structure_shifted_coset_check_is_residue_dependent():
    # the shifted-coset containment (item v) needs c² ≡ 1 (mod a²); it holds
    # for a = 2 but genuinely fails at (3, 5, 7), where 49 ≡ 4 (mod 9)
    checklist = verify_fiber_structure(CayleyGraph.from_triple(T357))
    assert not checklist.shifted_cosets_within_alpha_fibers
    items = checklist.as_dict()
    assert not items["v"]
    assert all(ok for key, ok in items.items() if key != "v")


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
