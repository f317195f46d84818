"""The machine-readable certificate report and the full verification run.

The report ties every graph parameter to its explicit certificate and to the
in-schema verdicts (BFS reach, proper-coloring sweep, internal-edge scan,
index-graph search, walk replay, fiber and block checks).  Serialization is
canonical: fixed key order, ASCII, two-space indent, trailing newline — byte
identical across runs with equal primes and seed.  Wall-clock timings are
non-reproducible, so they serialize as null unless explicitly requested.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import BinaryIO

from . import oracles, parameters, structure
from .connectors import connector_count_formula, enumerate_connectors
from .graph import DEFAULT_MATERIALIZE_CAP, CayleyGraph, TooLargeError
from .group import PrimeTriple, element_order
from .hamiltonian import snake_walk, verify_walk
from .oracles import OracleBudget, SweepReport

SCHEMA_VERSION = 1


def build_report(
    t: PrimeTriple,
    budget: OracleBudget | None = None,
    materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
    include_timings: bool = False,
) -> dict:
    """Assemble the full certificate report for one triple.

    The coloring and independence scans are always exhaustive; the block and
    fiber checks report null when n exceeds materialize_cap.  The index-graph
    search reports null when the id count exceeds its budget cap.
    """
    if budget is None:
        budget = OracleBudget()
    timings: dict[str, float] = {}
    clock = time.perf_counter

    start = clock()
    g = CayleyGraph.from_triple(t)
    cset = g.cset
    exhaustive = t.n <= materialize_cap
    timings["build"] = clock() - start

    start = clock()
    conn = g.is_connected()
    eulerian = g.degree % 2 == 0 and conn.connected
    timings["connectivity"] = clock() - start

    start = clock()
    coloring = parameters.verify_coloring(t)
    timings["coloring"] = clock() - start

    start = clock()
    independence = parameters.independence_certificate(t)
    scan = parameters.independence_internal_edges(independence, g)
    timings["independence"] = clock() - start

    start = clock()
    ig = structure.index_graph(t)
    if ig.order <= budget.max_index_vertices:
        mis_size = len(oracles.exact_max_independent_set(ig, budget))
    else:
        mis_size = None
    timings["indexSearch"] = clock() - start

    start = clock()
    diam = parameters.diameter(t, g)
    timings["diameter"] = clock() - start

    start = clock()
    walk = snake_walk(t)
    walk_ok = verify_walk(walk, g)
    timings["hamiltonian"] = clock() - start

    start = clock()
    if exhaustive:
        fiber = structure.verify_fiber_structure(t, materialize_cap).as_dict()
        partition = structure.verify_block_partition(t, materialize_cap)
        block_adj = structure.verify_block_adjacency(t, materialize_cap)
    else:
        fiber = None
        partition = None
        block_adj = None
    timings["structure"] = clock() - start

    report = {
        "schemaVersion": SCHEMA_VERSION,
        "primes": {"alpha": t.alpha, "beta": t.beta, "gamma": t.gamma},
        "n": t.n,
        "cSize": cset.size,
        "degree": g.degree,
        "connected": {
            "bezout": list(conn.bezout),
            "bfsReached": conn.bfs_reached,
        },
        "eulerian": eulerian,
        "girth": {"value": 3, "triangle": list(g.girth_certificate())},
        "nonplanar": {"k5": list(g.nonplanarity_certificate())},
        "clique": {"value": t.gamma, "certificate": list(parameters.clique_certificate(t))},
        "chromatic": {
            "value": coloring.chromatic,
            "coloringProper": coloring.proper,
            "edgesChecked": coloring.edges_checked,
        },
        "independence": {
            "value": independence.size,
            "indexSetSize": len(independence.index_set),
            "internalEdges": scan.internal_edges,
        },
        "indexGraphMIS": mis_size,
        "diameter": {
            "value": diam.value,
            "witnessPair": list(diam.witness_pair),
            "bfsEccentricity": diam.bfs_eccentricity,
        },
        "hamiltonian": {
            "kind": walk.kind,
            "verified": walk_ok,
            "endpoints": list(walk.endpoints),
        },
        "fiberStructure": fiber,
        "blockPartition": partition,
        "blockAdjacencyConsistent": block_adj,
        "oracleSeed": budget.seed,
        "timings": {k: round(v, 6) for k, v in timings.items()} if include_timings else None,
    }
    return report


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, ensure_ascii=True) + "\n").encode("ascii")


def write_report(report: dict, sink: BinaryIO) -> None:
    """Serialize canonically into a binary sink; I/O errors propagate."""
    sink.write(report_bytes(report))


@dataclass(frozen=True)
class VerificationOutcome:
    ok: bool
    lines: tuple[str, ...]


def run_verification(
    t: PrimeTriple,
    budget: OracleBudget | None = None,
    materialize_cap: int = DEFAULT_MATERIALIZE_CAP,
) -> VerificationOutcome:
    """Run the oracle suite against every certificate; one line per check."""
    if budget is None:
        budget = OracleBudget()
    g = CayleyGraph.from_triple(t)
    lines: list[str] = []
    ok = True

    def check(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    cset = g.cset
    squares = set(t.moduli)
    order_scan = {m for m in range(1, t.n) if element_order(m, t) in squares}
    check(
        "connecting-set",
        set(cset.members) == order_scan and cset.size == connector_count_formula(t),
        f"|C|={cset.size}, formula={connector_count_formula(t)}, order-scan={len(order_scan)}",
    )

    degrees_ok = all(len(g.neighbors(u)) == cset.size for u in range(0, t.n, max(1, t.n // 97)))
    conn = g.is_connected()
    check(
        "regular-eulerian-connected",
        degrees_ok and cset.size % 2 == 0 and conn.connected,
        f"degree={cset.size}, bezout={conn.bezout}, reached={conn.bfs_reached}/{t.n}",
    )

    tri = g.girth_certificate()
    k5 = g.nonplanarity_certificate()
    tri_ok = all(g.adjacent(tri[i], tri[j]) for i in range(3) for j in range(i + 1, 3))
    k5_ok = all(g.adjacent(k5[i], k5[j]) for i in range(5) for j in range(i + 1, 5))
    found = oracles.find_triangle(g)
    check(
        "girth-nonplanarity",
        tri_ok and k5_ok and found is not None,
        f"triangle={tri}, k5={k5}, scan={found}",
    )

    clique = parameters.clique_certificate(t)
    clique_ok = all(
        g.adjacent(clique[i], clique[j]) for i in range(len(clique)) for j in range(i + 1, len(clique))
    )
    hood = [0] + g.neighbors(0)
    if len(hood) <= budget.max_exact_vertices:
        exact = len(oracles.exact_max_clique(hood, g.adjacent, budget))
        check(
            "clique",
            clique_ok and exact == t.gamma,
            f"certificate={len(clique)}, exact-neighborhood-max={exact}, gamma={t.gamma}",
        )
    else:
        check(
            "clique",
            clique_ok,
            f"certificate={len(clique)} verified; neighborhood search skipped "
            f"({len(hood)} vertices exceed cap {budget.max_exact_vertices})",
        )

    coloring = parameters.verify_coloring(t)
    check(
        "chromatic",
        coloring.proper,
        f"proper={coloring.proper} over {coloring.edges_checked} edges "
        f"({'exhaustive' if coloring.exhaustive else 'sampled'}), value={coloring.chromatic}",
    )

    cert = parameters.independence_certificate(t)
    scan = parameters.independence_internal_edges(cert, g)
    indep_ok = scan.internal_edges == 0 and cert.size == t.m_alpha * t.m_beta * t.gamma
    if structure.index_graph(t).order <= budget.max_index_vertices:
        bounds = parameters.verify_index_bounds(t, budget)
        check(
            "independence",
            indep_ok and bounds.mis_matches_product and bounds.index_set_two_agreement_free,
            f"size={cert.size}, internal={scan.internal_edges}/{scan.pairs_checked} pairs, "
            f"index-MIS={bounds.mis_size}",
        )
    else:
        check(
            "independence",
            indep_ok,
            f"size={cert.size}, internal={scan.internal_edges}/{scan.pairs_checked} pairs; "
            f"index search skipped (ids exceed cap {budget.max_index_vertices})",
        )

    try:
        fiber = structure.verify_fiber_structure(t, materialize_cap)
        partition = structure.verify_block_partition(t, materialize_cap)
        block_adj = structure.verify_block_adjacency(t, materialize_cap)
        check(
            "structure",
            fiber.all_pass and partition and block_adj,
            f"fiber={fiber.as_dict()}, partition={partition}, blockAdjacency={block_adj}",
        )
    except TooLargeError:
        lines.append("SKIP structure: vertex count exceeds materialization cap")

    sweep = oracles.distance_sweep(g, budget)
    diam = parameters.diameter(t, g)
    check(
        "diameter",
        sweep.mismatches == 0
        and sweep.max_distance == diam.value == diam.bfs_eccentricity == 6,
        f"max={sweep.max_distance}, mismatches={sweep.mismatches} over "
        f"{sweep.pairs_checked} pairs from {sweep.sources} sources",
    )

    walk = snake_walk(t)
    walk_ok = verify_walk(walk, g)
    expected_kind = "cycle" if t.alpha == 2 else "path"
    check(
        "hamiltonian",
        walk_ok and walk.kind == expected_kind,
        f"kind={walk.kind}, length={len(walk.vertices)}, endpoints={walk.endpoints}",
    )

    return VerificationOutcome(ok, tuple(lines))


def auto_budget(t: PrimeTriple, budget: OracleBudget | None = None) -> OracleBudget:
    """Fill in the sweep-source default: exhaustive below 2000 vertices, a
    50-source sample above."""
    base = budget if budget is not None else OracleBudget()
    if base.bfs_sources is not None:
        return base
    if t.n <= 2000:
        return base
    return replace(base, bfs_sources=50)


__all__ = [
    "SCHEMA_VERSION",
    "SweepReport",
    "VerificationOutcome",
    "auto_budget",
    "build_report",
    "report_bytes",
    "run_verification",
    "write_report",
]
