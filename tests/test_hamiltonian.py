import time
from collections import Counter

import pytest

from psqcayley import hamiltonian
from psqcayley.graph import CayleyGraph
from psqcayley.group import crt_basis, make_prime_triple
from psqcayley.hamiltonian import WalkCertificate, snake_walk, verify_walk, walk_lines

from helpers import (
    bitset,
    crt_components,
    is_cycle,
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


def _ids(t) -> str:
    return ",".join(map(str, t.primes))


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


def _with_level(walk: WalkCertificate, k: int, step: int, rows: int) -> WalkCertificate:
    levels = list(walk.levels)
    levels[k] = (step, rows)
    return walk._replace(levels=tuple(levels))


def _n_entry_replay(w: WalkCertificate, g: CayleyGraph) -> bool:
    """The walk verdict on every vertex: the pieces, concatenated, are a
    permutation of [0, n) and a cycle of g both ways."""
    seq = walk_sequence(w)
    return sorted(seq) == list(range(g.triple.n)) and is_cycle(g, seq)


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
    e_a, e_b, e_c = crt_basis(T235)
    assert walk == (((e_c, 25), (e_b, 9), (e_a, 4)), 900)
    assert walk.length == 900
    assert verify_walk(walk, G235)


@pytest.mark.parametrize("t", [T235, T237, T357], ids=["2,3,5", "2,3,7", "3,5,7"])
def test_cycle_against_brute_force_orders(t):
    assert _oracle_problems(walk_sequence(snake_walk(t)), t) == []


@pytest.mark.parametrize("t", LADDER, ids=_ids)
def test_full_sequence_replays_at_the_ladder(t):
    # the n-entry replay through the connector set, which verify_walk avoids
    seq = walk_sequence(snake_walk(t))
    assert len(seq) == t.n
    assert is_cycle(CayleyGraph.from_triple(t), seq)


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
    # the levels have no open form: every level's walk closes from the top of
    # its climb column, one step above the head, by the climb's own step
    for k in range(3):
        walk = WalkCertificate(snake_walk(T357).levels[: k + 1], T357.n)
        seq = walk_sequence(walk)
        assert (seq[-1] - seq[0]) % T357.n == (seq[-2] - seq[-1]) % T357.n == walk.levels[-1][0]


def test_tampered_walk_fails():
    # the steps of two levels swapped, each level keeping its rows: the rows
    # of the inner levels overlap.  Swapping whole levels is still a cycle.
    walk = snake_walk(T235)
    (e_c, m_c), (e_b, m_b), top = walk.levels
    swapped_steps = walk._replace(levels=((e_b, m_c), (e_c, m_b), top))
    assert not verify_walk(swapped_steps, G235)
    assert "not a permutation of [0, n)" in _oracle_problems(walk_sequence(swapped_steps), T235)
    swapped = walk._replace(levels=((e_b, m_b), (e_c, m_c), top))
    assert verify_walk(swapped, G235) and _oracle_problems(walk_sequence(swapped), T235) == []


def test_duplicate_vertex_fails():
    # a step times its level's prime has order p, not p², so each row of
    # that level lands on a row below it
    walk = snake_walk(T235)
    for k, p in enumerate(reversed(T235.primes)):
        step, rows = walk.levels[k]
        repeated = _with_level(walk, k, step * p % T235.n, rows)
        assert not verify_walk(repeated, G235), k
        seq = walk_sequence(repeated)
        assert len(seq) == T235.n and len(set(seq)) < T235.n, k


def test_walk_of_wrong_length_fails():
    # one level's rows one short or one more: the product of the rows is not
    # n.  At the top level every step is still an edge (row a² lands on row 0)
    walk = snake_walk(T235)
    for k in range(3):
        step, rows = walk.levels[k]
        for wrong in (rows - 1, rows + 1):
            short_or_long = _with_level(walk, k, step, wrong)
            assert not verify_walk(short_or_long, G235), (k, wrong)
            assert len(walk_sequence(short_or_long)) != T235.n, (k, wrong)
    step, rows = walk.levels[-1]
    for wrong in (rows - 1, rows + 1):
        seq = walk_sequence(_with_level(walk, 2, step, wrong))
        assert all(G235.adjacent(u, v) for u, v in zip(seq, seq[1:] + seq[:1]))


def test_inner_cycle_leaving_the_subgroup_fails():
    # the c level stepping by e_c + e_b: its walk leaves ⟨e_c⟩, and although
    # the b level's rows still cover the b²c² vertices with a-component 0
    # once, the c level's own steps change two components
    walk = snake_walk(T235)
    (e_c, m_c), (e_b, _), _ = walk.levels
    leaving = _with_level(walk, 0, e_c + e_b, m_c)
    assert not verify_walk(leaving, G235)
    inner = walk_sequence(WalkCertificate(leaving.levels[:2], T235.n))
    assert sorted(inner) == sorted(walk_sequence(WalkCertificate(walk.levels[:2], T235.n)))
    assert not is_cycle(G235, inner)
    assert _oracle_problems(walk_sequence(leaving), T235) == ["a step is no edge"]


def _level_faults(walk: WalkCertificate, t) -> dict[str, WalkCertificate]:
    """The certificate with one level fault planted, at each level in turn."""
    n, levels = t.n, walk.levels
    faults = {"certificate": walk, "single-level": WalkCertificate(((1, n),), n), "n-doubled": walk._replace(n=2 * n)}
    for k, p in enumerate(reversed(t.primes)):
        step, rows = levels[k]
        planted = {
            "rows-1": (step, rows - 1),
            "rows+1": (step, rows + 1),
            "negated-step": (-step % n, rows),
            "step-plus-n": (step + n, rows),
            "step-plus-next": ((step + levels[(k + 1) % 3][0]) % n, rows),
            **{f"step-times-{f}": (step * f % n, rows) for f in (2, 3, 5, 7)},
            "step-times-p": (step * p % n, rows),
        }
        faults.update({f"{name}@{k}": _with_level(walk, k, *level) for name, level in planted.items()})
        faults[f"two-levels-without-{k}"] = walk._replace(levels=levels[:k] + levels[k + 1 :])
        j = (k + 1) % 3
        swapped = list(levels)
        swapped[k], swapped[j] = levels[j], levels[k]
        faults[f"levels-swapped-{k}-{j}"] = walk._replace(levels=tuple(swapped))
        swapped[k], swapped[j] = (levels[j][0], levels[k][1]), (levels[k][0], levels[j][1])
        faults[f"steps-swapped-{k}-{j}"] = walk._replace(levels=tuple(swapped))
    return faults


@pytest.mark.parametrize("t", [T235, T237, T357], ids=_ids)
def test_walk_partition_by_residues_equals_its_n_bit_reference(t):
    # the level rule (orders coprime, product n, each step ±s ∈ C)
    # against the n-entry replay, on the certificate and under every planted
    # level fault, and in connecting sets missing −e_c, −e_b or −e_a
    g = CayleyGraph.from_triple(t)
    walk = snake_walk(t)
    verdicts = {}
    for name, w in _level_faults(walk, t).items():
        verdicts[name] = verify_walk(w, g)
        assert verdicts[name] is _n_entry_replay(w, g), name
    assert verdicts["certificate"] and not verdicts["rows-1@0"] and verdicts["negated-step@2"]
    assert sum(verdicts.values()) < len(verdicts) - 10
    for e in crt_basis(t):
        one_way = CayleyGraph(t, tuple(c for c in g.members if c != -e % t.n))
        assert not verify_walk(walk, one_way) and not _n_entry_replay(walk, one_way), e


def _with_identity(walk: WalkCertificate, k: int, step: int) -> WalkCertificate:
    """The certificate with the level (step, 1) inserted at position k."""
    levels = list(walk.levels)
    levels.insert(k, (step, 1))
    return walk._replace(levels=tuple(levels))


@pytest.mark.parametrize("t", [T235, T237, T357], ids=_ids)
def test_identity_level_is_rejected_at_every_position(t):
    # one row of step 0 or n lifts a walk to itself, so the replay accepts
    # the walk with it inserted anywhere; a level needs at least 3 rows
    g = CayleyGraph.from_triple(t)
    walk = snake_walk(t)
    for k in range(len(walk.levels) + 1):
        for step in (0, t.n):
            w = _with_identity(walk, k, step)
            assert walk_sequence(w) == walk_sequence(walk), (k, step)
            assert _n_entry_replay(w, g) and not verify_walk(w, g), (k, step)


@pytest.mark.parametrize("t", [T235, T237, T357], ids=_ids)
def test_walk_check_is_sound_under_every_planted_fault(t):
    # every certificate that verify_walk accepts replays as a Hamiltonian
    # cycle: each level fault and identity level, in the true graph and in
    # the connecting sets without +e or −e for each e in crt_basis(t)
    g, n, walk = CayleyGraph.from_triple(t), t.n, snake_walk(t)
    graphs = [g] + [
        CayleyGraph(t, tuple(c for c in g.members if c != d))
        for e in crt_basis(t)
        for d in (e, -e % n)
    ]
    faults = [*_level_faults(walk, t).values()]
    faults += [_with_identity(walk, k, step) for k in range(4) for step in (0, n)]
    accepted = 0
    for h in graphs:
        for w in faults:
            if verify_walk(w, h):
                accepted += 1
                assert _n_entry_replay(w, h), w
    assert accepted > 1


def test_step_off_the_a_axis_fails_at_the_joints():
    # step e_a + e_b: the translates of the walk below the top level still
    # partition V, but a row's end and the next row's start, and the climb's
    # steps, differ in two components
    walk = snake_walk(T235)
    e_a, e_b, _ = crt_basis(T235)
    skewed = _with_level(walk, 2, (e_a + e_b) % T235.n, 4)
    inner = bitset(G235, walk_sequence(WalkCertificate(walk.levels[:2], T235.n)))
    assert tiles(G235, inner, (e_a + e_b) % T235.n, 4)
    assert not verify_walk(skewed, G235)
    assert _oracle_problems(walk_sequence(skewed), T235) == [
        "a step is no edge",
        "the last vertex is not adjacent to the first",
    ]


def test_certificate_for_another_n_fails():
    # the same levels taken modulo 2n: every check that reads g reduces
    # modulo g's n, but the walk's entries are not g's vertices
    walk = snake_walk(T235)
    assert not verify_walk(walk._replace(n=2 * T235.n), G235)
    assert not verify_walk(snake_walk(T357), G235)


def test_reversed_rows_are_replayed_as_walked():
    # the c level's walk steps by −e_c only, so in a connecting set without
    # +e_c every one of its steps is a connector one way; but the b level's
    # odd rows walk it backwards, by +e_c.  Each step is checked both ways,
    # so verify_walk sees the odd rows' fault without walking them
    _, _, e_c = crt_basis(T357)
    n = T357.n
    one_way = CayleyGraph(T357, tuple(c for c in G357.members if c != e_c))
    walk = snake_walk(T357)
    c_walk = walk_sequence(WalkCertificate(walk.levels[:1], n))
    assert all(one_way.is_connector((v - u) % n) for u, v in zip(c_walk, c_walk[1:] + c_walk[:1]))
    seq = walk_sequence(walk)
    assert any(not one_way.is_connector((v - u) % n) for u, v in zip(seq, seq[1:]))
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


def test_walk_verifies_far_beyond_the_memory_limit(monkeypatch):
    # n ≈ 1.24·10¹²: the check decides each level by its step, one
    # is_step_cycle call per level it reaches, and never builds the walk
    t = make_prime_triple(101, 103, 107)
    g = CayleyGraph.from_triple(t)
    walk = snake_walk(t)
    is_step_cycle, calls = CayleyGraph.is_step_cycle, []

    def counted(graph, step, length):
        calls.append((step, length))
        return is_step_cycle(graph, step, length)

    def refuse(w):
        raise AssertionError("the walk was built")

    monkeypatch.setattr(CayleyGraph, "is_step_cycle", counted)
    monkeypatch.setattr(WalkCertificate, "pieces", refuse)
    for k in range(3):
        step, rows = walk.levels[k]
        for w, expected in ((walk, True), (_with_level(walk, k, step, rows + 1), False)):
            calls.clear()
            start = time.perf_counter()
            assert verify_walk(w, g) is expected, k
            assert time.perf_counter() - start < 1.0
            assert calls == list(w.levels[: 3 if expected else k + 1]), k


def test_top_fiber_coverage():
    # each top-digit fiber holds a²b² vertices, so any spanning walk meets it
    # exactly that often
    counts = Counter(v // 36 for v in walk_sequence(snake_walk(T235)))
    assert counts == {t: 36 for t in range(25)}


def test_walk_export_lines():
    # a header, the head, then per row of the a level one piece per row of the
    # b level and its climb, and the a level's climb
    for t in (T235, T357):
        walk = snake_walk(t)
        lines = list(walk_lines(walk))
        assert lines[0] == b"cycle\n"
        assert len(lines) == 1 + 1 + t.m_alpha * (t.m_beta + 1) + 1
        assert b"".join(lines[1:]) == b"".join(b"%d\n" % v for v in snake_sequence(t))


@pytest.mark.parametrize("t", LADDER, ids=_ids)
def test_walk_pieces_hold_fewer_than_c_squared_entries(t):
    # the innermost level's tail, c² − 1 entries, is the largest piece
    pieces = list(snake_walk(t).pieces())
    assert max(map(len, pieces)) == t.m_gamma - 1
    assert tuple(v for piece in pieces for v in piece) == snake_sequence(t)


@pytest.mark.parametrize("chunk", [1, 7, 100])
@pytest.mark.parametrize("t", [T235, T357], ids=_ids)
def test_walk_climb_columns_are_sliced_at_the_chunk(t, chunk, monkeypatch):
    # with the chunk below c² − 1 every long climb column, forwards and in
    # the odd rows backwards, splits into slices with a last partial one
    monkeypatch.setattr(hamiltonian, "WALK_CHUNK", chunk)
    pieces = list(snake_walk(t).pieces())
    assert max(map(len, pieces)) == min(chunk, t.m_gamma - 1)
    assert tuple(v for piece in pieces for v in piece) == snake_sequence(t)
    assert b"".join(walk_lines(snake_walk(t))) == b"cycle\n" + b"".join(b"%d\n" % v for v in snake_sequence(t))


def test_walk_pieces_stay_within_the_chunk_where_c_squared_exceeds_it():
    # at (2,3,67) the c level's climb column has c² − 1 = 4488 entries
    t = make_prime_triple(2, 3, 67)
    pieces = list(snake_walk(t).pieces())
    assert t.m_gamma - 1 > hamiltonian.WALK_CHUNK == max(map(len, pieces))
    assert tuple(v for piece in pieces for v in piece) == snake_sequence(t)
