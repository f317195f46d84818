import random

import networkx as nx
import pytest

from psqcayley import (
    DEFAULT_SEED,
    CayleyGraph,
    build_report,
    clique_certificate,
    distance_sweep,
    element_order,
    exact_max_clique,
    exact_max_independent_set,
    find_triangle,
    make_prime_triple,
    run_verification,
)
from psqcayley import graph, oracles, parameters
from psqcayley.connectors import enumerate_connectors
from psqcayley.oracles import order_classes
from psqcayley.structure import index_adjacent, index_ids

from helpers import block_of, is_partition, neighbors, periodic, triples_with_group_order_at_most

T235 = make_prime_triple(2, 3, 5)
T357 = make_prime_triple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)


@pytest.mark.parametrize("primes", [(2, 3, 5), (2, 3, 7), (3, 5, 7)])
def test_order_classes_equal_per_element_orders(primes):
    t = make_prime_triple(*primes)
    g = CayleyGraph.from_triple(t)
    orders = [element_order(k, t) for k in range(t.n)]
    expected = {o: g.bitset(k for k in range(t.n) if orders[k] == o) for o in set(orders)}
    classes = dict(order_classes(g))
    assert classes == expected  # every divisor is some element's order
    # so the classes partition [0, n), which the order scan does not recheck
    assert is_partition(g, classes.values())


@pytest.mark.parametrize("primes", [(2, 3, 5), (3, 5, 7)], ids=["2,3,5", "3,5,7"])
def test_order_classes_build_each_set_of_multiples_once(primes, monkeypatch):
    # the 27 classes are products of the three splits per prime by
    # min(v_p(x), 2): six sets of multiples, of each p and each p², and no
    # other n-bit set is built from scratch
    t = make_prime_triple(*primes)
    g = CayleyGraph.from_triple(t)
    built = []
    multiples = CayleyGraph.multiples
    monkeypatch.setattr(CayleyGraph, "multiples", lambda g, d: built.append(d) or multiples(g, d))
    for name in ("bitset", "rotate", "neighborhood"):
        monkeypatch.setattr(CayleyGraph, name, None)
    assert len(dict(order_classes(g))) == 27
    assert sorted(built) == sorted(p**e for p in t.primes for e in (1, 2))


@pytest.mark.parametrize("fault", [None, "vertex-in-two-classes", "vertex-in-no-class", "moved-vertex"])
def test_connecting_set_line_reads_no_partition_of_the_order_classes(fault, monkeypatch):
    # planted classes whose union or sizes are off fail is_partition, while
    # the connecting-set line passes: `verify` no longer checks the
    # partition, and reads only the classes of order a², b² and c².
    # Vertices 1 and 7 have order 900, outside the order scan
    classes = dict(order_classes(G235))
    if fault in ("vertex-in-two-classes", "moved-vertex"):
        classes[1] |= 1 << 1
    if fault in ("vertex-in-no-class", "moved-vertex"):
        classes[900] &= ~(1 << 7)
    monkeypatch.setattr(oracles, "order_classes", lambda g: iter(classes.items()))
    line = run_verification(T235, 0).lines[0]
    assert is_partition(G235, classes.values()) is (fault is None)
    assert line.startswith("PASS connecting-set: ")


@pytest.mark.parametrize("swap", [(1, 899), (30, 870)], ids=["order-900", "order-30"])
def test_a_swapped_connector_pair_fails_the_order_classes(swap, monkeypatch):
    # ±36 (order 25) swapped for ±1 or ±abc: C stays symmetric with the
    # formula's size, so only the order classes tell the sets apart
    def planted(t):
        members = set(enumerate_connectors(t)) - {36, 864} | set(swap)
        return tuple(sorted(members))

    monkeypatch.setattr(graph, "enumerate_connectors", planted)
    lines = run_verification(T235, 0).lines
    status = {line.split(":")[0] for line in lines}
    assert "FAIL connecting-set" in status
    assert "|C|=28, formula=28, order-scan=28" in lines[0]
    assert "PASS regular-eulerian-connected" in status


def test_neighborhood_clique_is_gamma():
    hood = [0] + neighbors(G235, 0)
    assert len(hood) == 29
    clique = exact_max_clique(hood, G235.adjacent)
    assert len(clique) == 5
    assert all(G235.adjacent(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :])


def test_clique_on_independent_block_is_one():
    verts = [v for v in range(T235.n) if block_of(v, T235) == (0, 0, 0)]
    assert len(exact_max_clique(verts, G235.adjacent)) == 1


def test_clique_on_complete_certificate():
    k5 = clique_certificate(T235)[:5]
    assert len(exact_max_clique(list(k5), G235.adjacent)) == 5


def test_clique_empty_input():
    assert exact_max_clique([], G235.adjacent) == []


def test_clique_against_reference_library():
    rng = random.Random(99)
    for trial in range(25):
        n = rng.randrange(8, 36)
        p = rng.choice([0.2, 0.4, 0.6, 0.8])
        g = nx.gnp_random_graph(n, p, seed=rng.randrange(10**6))
        ours = exact_max_clique(list(g.nodes), lambda u, v: g.has_edge(u, v))
        reference = max(len(c) for c in nx.find_cliques(g))
        assert len(ours) == reference, f"trial {trial}"


def test_index_mis_sizes():
    assert len(exact_max_independent_set(T235)) == 6
    assert len(exact_max_independent_set(T357)) == 15


def test_index_mis_is_independent():
    mis = exact_max_independent_set(T235)
    assert not any(index_adjacent(x, y) for i, x in enumerate(mis) for y in mis[i + 1 :])


def _verdicts(lines) -> dict[str, str]:
    """{check name: PASS or FAIL} from the lines of a verification run."""
    return {line.split(":")[0].split(" ")[1]: line.split(" ")[0] for line in lines}


@pytest.mark.parametrize(
    "primes", [(2, 3, 5), (2, 3, 7), (3, 5, 7), (3, 5, 11), (5, 7, 11)], ids=lambda p: ",".join(map(str, p))
)
def test_exact_searches_agree_with_the_certified_bounds(primes):
    # the uncapped searches reach every params-ladder triple: the closed
    # neighbourhood of 0 holds no clique above c, the index graph no
    # independent set above a·b, as the certificates behind verify say
    t = make_prime_triple(*primes)
    g = CayleyGraph.from_triple(t)
    hood = [0] + neighbors(g, 0)
    clique = exact_max_clique(hood, g.adjacent)
    mis = exact_max_independent_set(t)
    verdicts = _verdicts(run_verification(t, 0).lines)
    assert len(clique) == t.gamma
    assert verdicts["clique"] == verdicts["chromatic"] == "PASS"
    assert len(mis) == t.alpha * t.beta == build_report(t)["indexGraphMIS"]
    assert verdicts["independence"] == "PASS"


@pytest.mark.parametrize(
    "t", triples_with_group_order_at_most(1_100_000), ids=lambda t: ",".join(map(str, t.primes))
)
def test_census_every_check_passes_on_the_ladder(t):
    # all 146 triples with n <= 1,100,000, from vertex 0 alone: every line
    # of the verification passes
    outcome = run_verification(t, 0)
    failed = [line for line in outcome.lines if not line.startswith("PASS ")]
    assert outcome.ok and not failed, failed


@pytest.mark.parametrize(
    "edit, failing",
    [
        (lambda members: members - set(range(0, 900, 36)), {"clique", "chromatic", "independence"}),
        (lambda members: members | {30, 870}, {"clique", "chromatic"}),
    ],
    ids=["without-multiples-of-a2b2", "with-abc"],
)
def test_a_planted_connecting_set_fails_the_certified_bounds(edit, failing, monkeypatch):
    # without the multiples of a²b² = 36 the certificate K = {0, 36, ..., 144}
    # is no clique, so neither ω ≥ c nor the cover by translates of K holds;
    # ±abc = ±30 joins 0 and 30, which the colouring gives colour 0 both
    def planted(t):
        return tuple(sorted(edit(set(enumerate_connectors(t)))))

    monkeypatch.setattr(graph, "enumerate_connectors", planted)
    verdicts = _verdicts(run_verification(T235, 0).lines)
    assert all(verdicts[name] == "FAIL" for name in failing)


def test_a_clique_certificate_whose_translates_overlap_fails_the_cover(monkeypatch):
    # the rotations of S₀ = {v : v mod 180 < 36} by K = {0, ..., 4} overlap,
    # so they cover no vertex set exactly and α ≤ n/c is left unproved
    monkeypatch.setattr(parameters, "clique_certificate", lambda t: (0, 1, 2, 3, 4))
    line = run_verification(T235, 0).lines[5]
    assert line.startswith("FAIL independence: size=180 <= alpha <= 180 (cover by translates of K: False)")


@pytest.mark.parametrize("primes", [(2, 3, 5), (2, 3, 7), (3, 5, 7)], ids=["2,3,5", "2,3,7", "3,5,7"])
def test_clique_cover_by_quotient_equals_its_n_bit_reference(primes, monkeypatch):
    # the rule (|K| = c, every κ a multiple of a²b², the κ/a²b² distinct mod
    # c) against the rotations of the n-bit S₀ by K, on the certificate and
    # under planted K; the rule is complete for K on the multiples of a²b²,
    # and rejects K + 1, whose rotations tile too
    t = make_prime_triple(*primes)
    g = CayleyGraph.from_triple(t)
    m_ab, c = t.m_alpha * t.m_beta, t.gamma
    k = clique_certificate(t)
    s0 = periodic(g, c * m_ab, range(m_ab))
    cases = {  # name: (K, (the rule's verdict, the reference's))
        "certificate": (k, (True, True)),
        "by-a-unit": (tuple(2 * x % t.n for x in k), (True, True)),
        "off-the-multiples": (k[:-1] + (k[-1] + 1,), (False, False)),
        "equal-mod-c": (k[:-1] + (c * m_ab,), (False, False)),
        "one-short": (k[:-1], (False, False)),
        "one-extra": (k + (c * m_ab,), (False, False)),
        "shifted": (tuple(x + 1 for x in k), (False, True)),
    }
    for name, (planted, expected) in cases.items():
        monkeypatch.setattr(parameters, "clique_certificate", lambda t, _k=planted: _k)
        line = run_verification(t, 0).lines[5]
        cover = line.split("(cover by translates of K: ")[1].startswith("True")
        assert (cover, is_partition(g, (g.rotate(s0, x) for x in planted))) == expected, name


def test_index_mis_against_reference_library():
    ids = index_ids(T235)
    g = nx.Graph()
    g.add_nodes_from(range(len(ids)))
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if index_adjacent(ids[i], ids[j]):
                g.add_edge(i, j)
    reference = max(len(c) for c in nx.find_cliques(nx.complement(g)))
    assert len(exact_max_independent_set(T235)) == reference == 6


def test_distance_sweep_sampled_sources():
    report = distance_sweep(CayleyGraph.from_triple(T357), 10, seed=5)
    assert report.sources == 11
    assert report.pairs_checked == 11 * 11025
    assert report.max_distance == 6
    assert report.mismatches == 0


@pytest.fixture
def swept(monkeypatch):
    """The sources of every BFS level query from now on, in call order."""
    sources = []
    levels = CayleyGraph.bfs_levels
    monkeypatch.setattr(CayleyGraph, "bfs_levels", lambda g, s: sources.append(s) or levels(g, s))
    return sources


def test_default_sweep_takes_every_vertex_up_to_2000_and_51_sources_above(swept):
    report = distance_sweep(G235)
    assert report.sources == 900 and swept == list(range(900))
    assert report.mismatches == 0 and report.max_distance == 6
    g = CayleyGraph.from_triple(T357)
    for seed in (DEFAULT_SEED, 7):
        swept.clear()
        report = distance_sweep(g) if seed == DEFAULT_SEED else distance_sweep(g, seed=seed)
        default = swept.copy()
        swept.clear()
        distance_sweep(g, 50, seed)
        assert report.sources == 51 and default == swept
        assert default[0] == 0 and default == sorted(set(default))


def test_run_verification_sweeps_the_default_51_sources(monkeypatch):
    # every BFS run (the levels from 0 are built once and cached); a sweep
    # from every vertex, 11,025 runs at (3,5,7), stops at the 53rd
    runs = []
    levels = CayleyGraph._levels

    def counted(g, s):
        runs.append(s)
        if len(runs) > 52:
            raise AssertionError("more than 52 BFS runs")
        return levels(g, s)

    monkeypatch.setattr(CayleyGraph, "_levels", counted)
    outcome = run_verification(T357)
    assert outcome.ok and len(runs) == 51
    assert outcome.lines[7].endswith("over 562275 pairs from 51 sources")


def test_distance_sweep_deterministic():
    g = CayleyGraph.from_triple(T235)
    assert distance_sweep(g, 8, 42) == distance_sweep(g, 8, 42)


def test_distance_histogram_covers_graph():
    dist = G235.bfs(0)
    assert len(dist) == 900
    assert min(dist) == 0
    assert all(d >= 0 for d in dist)


def test_find_triangle():
    tri = find_triangle(G235)
    assert tri == (0, 36, 72)
    assert all(G235.adjacent(u, v) for i, u in enumerate(tri) for v in tri[i + 1 :])


def test_budget_validation(swept):
    # a negative count is refused by the sample, before any BFS runs
    assert distance_sweep(G235, sources=0).sources == 1 and swept == [0]
    swept.clear()
    with pytest.raises(ValueError):
        distance_sweep(G235, sources=-1)
    assert swept == []
