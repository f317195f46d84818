import random
import tracemalloc
from math import gcd

import networkx as nx
import pytest

from psqcayley import cli, graph, oracles, parameters
from psqcayley.connectors import enumerate_connectors
from psqcayley.graph import CayleyGraph
from psqcayley.group import PrimeTriple
from psqcayley.oracles import distance_sweep, exact_max_clique, exact_max_independent_set, find_triangle
from psqcayley.parameters import clique_certificate
from psqcayley.report import DEFAULT_SEED, build_report, run_verification
from psqcayley.structure import index_adjacent, index_ids

from helpers import (
    block_of,
    count_level_builds,
    divisors,
    is_partition,
    neighbors,
    order_scan_connectors,
    periodic,
    plant_table_levels,
    reference_sweep,
    rotate,
    triples_with_group_order_at_most,
)

T235 = PrimeTriple(2, 3, 5)
T357 = PrimeTriple(3, 5, 7)
G235 = CayleyGraph.from_triple(T235)


@pytest.mark.parametrize("primes", [(2, 3, 5), (3, 5, 7)], ids=["2,3,5", "3,5,7"])
def test_distance_classes_build_each_set_of_multiples_once(primes, monkeypatch):
    # the distance classes are folded from the 27 gcd classes, the products
    # of the three splits per prime by min(v_p(x), 2): six sets of multiples,
    # of each p and each p², and no other n-bit set is built from scratch;
    # with the levels planted, the sweep takes no neighbourhood
    t = PrimeTriple(*primes)
    g = CayleyGraph.from_triple(t)
    plant_table_levels(g)
    built = []
    multiples = CayleyGraph.multiples
    monkeypatch.setattr(CayleyGraph, "multiples", lambda g, d: built.append(d) or multiples(g, d))
    monkeypatch.setattr(CayleyGraph, "neighborhood", None)
    assert distance_sweep(g, 0).mismatches == 0
    assert sorted(built) == sorted(p**e for p in t.primes for e in (1, 2))


def test_sweep_peaks_below_fourteen_n_bit_sets():
    # with the levels cached, the sweep holds the nine splits and builds one
    # class at a time: at (7,11,13), n = 1,002,001, its traced peak stays
    # at or below 14 sets of n bits
    g = CayleyGraph.from_triple(PrimeTriple(7, 11, 13))
    g.levels_from_zero
    tracemalloc.start()
    try:
        report = distance_sweep(g, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.mismatches == 0
    assert peak <= 14 * g.triple.n / 8, peak / (g.triple.n / 8)


def test_order_scan_builds_no_n_bit_set(monkeypatch):
    # the scan reads the a² + b² + c² elements of the three subgroups of
    # order p²: at (19,23,29), n = 160,604,929, past the CLI's memory gate,
    # no n-bit set is built and no BFS runs
    def refused(*args):
        raise AssertionError("n-bit set built")

    for name in ("multiples", "neighborhood"):
        monkeypatch.setattr(CayleyGraph, name, refused)
    monkeypatch.setattr(CayleyGraph, "levels_from_zero", property(refused))
    t = PrimeTriple(19, 23, 29)
    assert oracles.order_scan(CayleyGraph.from_triple(t)) == (True, 19 * 18 + 23 * 22 + 29 * 28)


def test_order_scan_equals_the_brute_force_order_scan():
    # the elements of each subgroup of order p² whose gcd with n is n/p²
    # are exactly those of brute-force order p², at every n ≤ 11,025
    for t in triples_with_group_order_at_most(11_025):
        g = CayleyGraph.from_triple(t)
        expected = order_scan_connectors(t)
        assert sorted(g.members) == sorted(expected)
        assert oracles.order_scan(g) == (True, len(expected))


@pytest.mark.parametrize("swap", [(1, 899), (30, 870)], ids=["order-900", "order-30"])
def test_a_swapped_connector_pair_fails_the_order_classes(swap, monkeypatch):
    # ±36 (order 25) swapped for ±1 or ±abc: C stays symmetric with the
    # formula's size, so only the order classes tell the sets apart
    def planted(t):
        members = set(enumerate_connectors(t)) - {36, 864} | set(swap)
        return tuple(sorted(members))

    monkeypatch.setattr(graph, "enumerate_connectors", planted)
    g = CayleyGraph.from_triple(T235)
    assert set(g.members) != order_scan_connectors(T235)
    assert oracles.order_scan(g) == (False, 28)
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
    t = PrimeTriple(*primes)
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
    t = PrimeTriple(*primes)
    g = CayleyGraph.from_triple(t)
    m_ab, c = t.moduli[0] * t.moduli[1], t.gamma
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
        assert (cover, is_partition(g, (rotate(g, s0, x) for x in planted))) == expected, name


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


def _sweep_cases() -> dict[str, tuple[int, ...]]:
    """Connecting sets at (2,3,5) whose sweeps differ: each of the 26
    gcd-class toggles, a stride of the ±x pair plants, the n-cycle and a
    repeated member."""
    n, members = T235.n, set(G235.members)
    cases = {}
    for d in divisors(n)[:-1]:
        cls = {d * k for k in range(1, n // d) if gcd(k, n // d) == 1}
        cases[f"toggle {d}"] = tuple(sorted(members ^ cls))
    for x in range(1, n // 2 + 1, 7):
        cases[f"pair {x}"] = tuple(sorted(members ^ {x, n - x}))
    cases["n-cycle"] = (1, n - 1)
    cases["repeated"] = tuple(sorted(G235.members + (G235.members[3],)))
    return cases


def test_distance_sweep_equals_a_bfs_from_each_sampled_source():
    # one BFS from vertex 0 gives the report of a BFS from every sampled
    # source, whatever the connecting set and whichever sources are drawn
    cases = _sweep_cases()
    assert len(cases) == 26 + 65 + 2
    faulty = 0
    for name, members in cases.items():
        g = CayleyGraph(T235, members)
        for sources, seed in ((0, DEFAULT_SEED), (5, DEFAULT_SEED), (5, 7), (3, 1)):
            assert distance_sweep(g, sources) == reference_sweep(g, sources, seed), (name, sources, seed)
        faulty += distance_sweep(g, 0).mismatches > 0
    assert faulty == len(cases) - 1  # the repeated member changes no distance
    assert distance_sweep(G235) == reference_sweep(G235, None, DEFAULT_SEED) == (900, 6, 0)


def test_distance_sweep_sampled_sources():
    g = CayleyGraph.from_triple(T357)
    report = distance_sweep(g, 10)
    assert report == reference_sweep(g, 10, 5)
    assert report.sources == 11
    assert report.max_distance == 6
    assert report.mismatches == 0


def test_distance_sweep_deterministic():
    # no sample is drawn: the report is the one a BFS from any sample gives
    g = CayleyGraph(T235, (1, T235.n - 1))
    assert distance_sweep(g, 8) == distance_sweep(g, 8) == reference_sweep(g, 8, 42) == reference_sweep(g, 8, 43)


def test_default_sweep_takes_every_vertex_up_to_2000_and_51_sources_above():
    assert distance_sweep(G235) == distance_sweep(G235, 899) == (900, 6, 0)
    g = CayleyGraph.from_triple(T357)
    assert distance_sweep(g) == distance_sweep(g, 50) == (51, 6, 0)
    assert distance_sweep(g, 10**6) == (11025, 6, 0)


def test_run_verification_and_cli_verify_build_the_levels_once(monkeypatch, capsys):
    # one BFS per graph at every budget: the default 51 sources at (3,5,7)
    # and an explicit 25 both read the levels from vertex 0 alone
    built = count_level_builds(monkeypatch)
    outcome = run_verification(T357)
    assert outcome.ok and len(built) == 1
    assert outcome.lines[7].endswith("over 562275 pairs from 51 sources")
    built.clear()
    assert cli.main(["verify", "--primes", "3,5,7", "--budget-sources", "25"]) == 0
    assert len(built) == 1
    assert "mismatches=0 over 286650 pairs from 26 sources\n" in capsys.readouterr().out


def test_distance_histogram_covers_graph():
    dist = G235.bfs(0)
    assert len(dist) == 900
    assert min(dist) == 0
    assert all(d >= 0 for d in dist)


def test_find_triangle():
    tri = find_triangle(G235)
    assert tri == (0, 36, 72)
    assert all(G235.adjacent(u, v) for i, u in enumerate(tri) for v in tri[i + 1 :])


def test_budget_validation(monkeypatch):
    # a negative count is refused before any BFS runs
    built = count_level_builds(monkeypatch)
    g = CayleyGraph.from_triple(T235)
    with pytest.raises(ValueError):
        distance_sweep(g, sources=-1)
    assert built == []
    assert distance_sweep(g, sources=0) == (1, 6, 0) and built == [g]
