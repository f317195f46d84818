import pytest

from psqcayley import graph
from psqcayley import (
    BlockId,
    CayleyGraph,
    FiberId,
    block_exponents,
    block_members,
    block_of,
    crt_combine,
    fiber_members,
    index_graph,
    make_prime_triple,
    verify_block_adjacency,
    verify_block_partition,
    verify_fiber_structure,
)
from psqcayley.connectors import ConnectingSet, enumerate_connectors
from psqcayley.graph import TooLargeError

T235 = make_prime_triple(2, 3, 5)
T237 = make_prime_triple(2, 3, 7)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)


def test_fiber_sizes():
    assert len(fiber_members(FiberId("alpha", 0), T235)) == 225
    assert len(fiber_members(FiberId("beta", 0), T235)) == 100
    assert len(fiber_members(FiberId("gamma", 0), T235)) == 36


def test_gamma_fiber_zero_contents():
    expected = sorted(i + 4 * j for i in range(4) for j in range(9))
    assert sorted(fiber_members(FiberId("gamma", 0), T235)) == expected


def test_zero_in_all_three_zero_fibers():
    for axis in ("alpha", "beta", "gamma"):
        assert 0 in fiber_members(FiberId(axis, 0), T235)


def test_fiber_families_partition_vertices():
    for axis, count in (("alpha", 4), ("beta", 9), ("gamma", 25)):
        seen: set[int] = set()
        for r in range(count):
            members = fiber_members(FiberId(axis, r), T235)
            assert not (seen & set(members))
            seen.update(members)
        assert seen == set(range(900))


def test_fiber_index_range():
    with pytest.raises(ValueError):
        fiber_members(FiberId("alpha", 4), T235)
    with pytest.raises(ValueError):
        fiber_members(FiberId("delta", 0), T235)


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
    assert verify_block_partition(T235)
    assert verify_block_partition(T357)


def test_partition_cap():
    with pytest.raises(TooLargeError):
        verify_block_partition(T235, cap=100)


def test_index_graph_rule():
    ig = index_graph(T235)
    assert len(ig.ids()) == 30
    assert ig.adjacent(BlockId(0, 0, 0), BlockId(1, 0, 0))
    assert not ig.adjacent(BlockId(0, 0, 0), BlockId(1, 1, 0))
    assert not ig.adjacent(BlockId(0, 0, 0), BlockId(0, 0, 0))
    assert not ig.adjacent(BlockId(0, 0, 0), BlockId(1, 1, 1))


def test_block_adjacency_consistency():
    assert verify_block_adjacency(T235)


@pytest.mark.parametrize("extra", [30, 1])
def test_block_and_fiber_checks_catch_a_planted_connector(extra, monkeypatch):
    # 30 = abc joins vertices of one block; 1 joins blocks that agree in no
    # residue.  Either joins vertices of one gamma fiber (an interval of 36).
    def with_extra(t):
        cs = enumerate_connectors(t)
        members = tuple(sorted(cs.members + (extra, t.n - extra)))
        return ConnectingSet(members, cs.class_alpha_sq, cs.class_beta_sq, cs.class_gamma_sq)

    monkeypatch.setattr(graph, "enumerate_connectors", with_extra)
    assert not verify_block_adjacency(T235)
    assert not verify_fiber_structure(T235).gamma_fibers_independent


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
    assert verify_fiber_structure(T235).all_pass
    assert verify_fiber_structure(T237).all_pass


def test_fiber_structure_shifted_coset_check_is_residue_dependent():
    # the shifted-coset containment (item v) needs c² ≡ 1 (mod a²); it holds
    # for a = 2 but genuinely fails at (3, 5, 7), where 49 ≡ 4 (mod 9)
    checklist = verify_fiber_structure(T357)
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
