"""The certificate pipeline, and its two renderings: the machine-readable
report and the full verification run.

`certify` builds every in-schema certificate exactly once, on one graph:
regularity and connectivity, the independence certificate and its
internal-edge scan, the clique K, the proper coloring whose class 0 is the
certificate, the index-graph bounds, the diameter, the walk and its check,
and the fiber and block-adjacency checks, decided by translation on one
representative.  The block partition is a lemma of every `PrimeTriple`
(pairwise coprime moduli), so both renderings print it as true.  From the
certificates it decides one verdict per paper claim, keyed by its `verify`
line; the clique cover behind α ≤ n/c is the independence verdict's tiling
by K.  `build_report` renders certificates and verdicts as the JSON report;
`run_verification` renders each verdict as one line, ANDed with the line's
oracle where it has one (the order scan, the triangle scan, the distance
sweep).

Serialization is canonical: fixed key order, ASCII, two-space indent,
trailing newline -- byte identical across runs with equal primes and seed.
The module writes it itself (`report_bytes`), byte for byte as `json.dumps`
would with those settings, so no command imports `json`.
Wall-clock timings are non-reproducible, so they serialize as null unless
explicitly requested.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import chain, pairwise
from math import isfinite

from . import oracles, parameters, structure
from .connectors import connector_count_formula
from .graph import CayleyGraph
from .group import PrimeTriple
from .hamiltonian import snake_walk, verify_walk

SCHEMA_VERSION = 3
DEFAULT_SEED = 12345  # only echoed, as the report's `oracleSeed`


# Every in-schema certificate for one triple, on one graph, each claim's
# verdict keyed by its `verify` line, in line order, and each stage's seconds;
# `index_bounds` is the verdict that both index-graph bounds hold.
Certificates = namedtuple(
    "Certificates",
    "graph connectivity clique coloring independence independence_scan index_bounds diameter "
    "walk fiber block_adjacency verdicts timings",
)


def certify(t: PrimeTriple) -> Certificates:
    """Build every certificate once, each stage timed, and decide each
    paper claim's verdict from them."""
    timings: dict[str, float] = {}
    mark = time.perf_counter()

    def lap(stage: str) -> None:
        # the seconds since the last mark are the stage's time
        nonlocal mark
        now = time.perf_counter()
        timings[stage], mark = now - mark, now

    g = CayleyGraph.from_triple(t)
    lap("build")
    # every vertex u has exactly |C| distinct neighbours u + c, and
    # adjacency is symmetric, iff C repeats no member, misses 0 and holds
    # n − c for each c.  One pass decides it with no lookup: the
    # members ascend strictly inside (0, n), as membership by bisection
    # needs too, and c ↦ n − c reverses them; the pass copies no member
    n, members = t.n, g.members
    ascending = all(x < y for x, y in pairwise(chain((0,), members, (n,))))
    regular = ascending and all(x + y == n for x, y in zip(members, reversed(members)))
    conn = g.is_connected()
    lap("connectivity")
    independence = parameters.independence_certificate(t)
    scan = parameters.independence_internal_edges(independence, g)
    lap("independence")
    # colour class 0 is the certificate: its scan decides the colouring too
    clique = parameters.clique_certificate(t)
    coloring = parameters.verify_coloring(t, independence, scan, clique)
    # |K| = c is read by every verdict that reads clique_ok, in coloring.tiles
    clique_ok = g.is_clique(clique)
    lap("coloring")
    index_ok = parameters.verify_index_bounds(t, independence.residues)
    lap("indexBounds")
    diam = parameters.diameter(t, g)
    lap("diameter")
    walk = snake_walk(t)
    walk_ok = verify_walk(walk, g)
    lap("hamiltonian")
    fiber = structure.verify_fiber_structure(g)
    block_adj = structure.verify_block_adjacency(g)
    lap("structure")
    # the c-clique K gives ω ≥ c, and the proper colouring into at most c
    # classes ω ≤ χ ≤ c: the same two certificates decide χ = c.  α ≤ n/c:
    # when the translates x + K, x in S₀ (n/c vertices), partition V, an
    # independent set meets each at most once; the index bounds' a·b
    # residues of period abc are those n/c vertices.  c ≥ 5, so K holds a K₅
    verdicts = {
        "connecting-set": g.axis_plan[0] == t.primes,
        "regular-eulerian-connected": regular and g.degree % 2 == 0 and conn.connected,
        "girth-nonplanarity": g.is_clique(clique[:5]),
        "clique": clique_ok and coloring.proper,
        "chromatic": clique_ok and coloring.proper,
        "independence": clique_ok and coloring.tiles and scan.internal_edges == 0 and index_ok,
        "structure": all(fiber.values()) and block_adj,
        "diameter": diam.value == diam.bfs_eccentricity == 6,
        "hamiltonian": walk_ok,
    }
    return Certificates(
        g, conn, clique, coloring, independence, scan, index_ok, diam, walk, fiber, block_adj, verdicts, timings
    )


def build_report(t: PrimeTriple, seed: int = DEFAULT_SEED, include_timings: bool = False) -> dict:
    """Render the certificates and verdicts of one triple as the report.

    The coloring and independence scans, the index-graph bounds and the
    block and fiber checks are always exhaustive.  `seed` is only echoed as
    `oracleSeed`: no verdict or count depends on it.
    """
    c = certify(t)
    g, clique = c.graph, c.clique
    return {
        "schemaVersion": SCHEMA_VERSION,
        "primes": {"alpha": t.alpha, "beta": t.beta, "gamma": t.gamma},
        "n": t.n,
        "cSize": g.degree,
        "connected": {
            "bezout": list(c.connectivity.bezout),
            "bfsReached": c.connectivity.bfs_reached,
        },
        "girth": {"value": 3, "triangle": list(clique[:3])},
        "nonplanar": {"k5": list(clique[:5])},
        "clique": {"value": t.gamma, "certificate": list(clique)},
        "chromatic": {
            "value": t.gamma,
            "coloringProper": c.coloring.proper,
            "edgesChecked": c.coloring.edges_checked,
        },
        "independence": {
            "value": c.independence.size,
            "internalEdges": c.independence_scan.internal_edges,
        },
        "indexGraphMIS": len(c.independence.residues),
        "diameter": {
            "value": c.diameter.value,
            "witnessPair": list(c.diameter.witness_pair),
            "bfsEccentricity": c.diameter.bfs_eccentricity,
        },
        "hamiltonian": {
            "verified": c.verdicts["hamiltonian"],
            "endpoints": list(c.walk.endpoints),
        },
        "fiberStructure": c.fiber,
        "blockPartition": True,
        "blockAdjacencyConsistent": c.block_adjacency,
        "verdicts": c.verdicts,
        "oracleSeed": seed,
        "timings": {k: round(v, 6) for k, v in c.timings.items()} if include_timings else None,
    }


def report_bytes(report: dict) -> bytes:
    """The report as canonical JSON: the bytes of json.dumps(report,
    indent=2, ensure_ascii=True) plus a newline."""
    return (_json(report, "\n") + "\n").encode("ascii")


def _json(value: object, indent: str) -> str:
    """value as JSON, with indent, a newline and spaces, before its closing
    bracket and two more spaces before each of its items.  A string that
    would need escaping, a non-finite float, a key that is not a string and
    any other type raise ValueError: no report holds one."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int) or isinstance(value, float) and isfinite(value):
        return repr(value)
    if isinstance(value, str):
        if not (value.isascii() and value.isprintable()) or '"' in value or "\\" in value:
            raise ValueError(f"{value!r} would need escaping in JSON")
        return f'"{value}"'
    inner = indent + "  "
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        items, brackets = [f"{_json(k, inner)}: {_json(v, inner)}" for k, v in value.items()], "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json(v, inner) for v in value], "[]"
    else:
        raise ValueError(f"{value!r} has no canonical JSON form")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


VerificationOutcome = namedtuple("VerificationOutcome", "ok lines")


def run_verification(t: PrimeTriple, sources: int | None = None) -> VerificationOutcome:
    """Render each verdict of `certify` as one line, ANDed at the call
    site with the line's oracle where it has one: the order scan for the
    connecting set, the triangle scan for the girth, and the distance sweep
    for the diameter.  It decides nothing else.  `sources` is the distance
    sweep's count of extra sources (`oracles.distance_sweep`), which sets
    only the reported source and pair counts."""
    c = certify(t)
    g, clique, coloring, conn = c.graph, c.clique, c.coloring, c.connectivity
    cert, scan, walk = c.independence, c.independence_scan, c.walk
    lines: list[str] = []
    ok = True

    def check(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    scan_ok, scan_size = oracles.order_scan(g)
    check(
        "connecting-set",
        c.verdicts["connecting-set"] and scan_ok,
        f"|C|={g.degree}, formula={connector_count_formula(t)}, order-scan={scan_size}",
    )
    check(
        "regular-eulerian-connected",
        c.verdicts["regular-eulerian-connected"],
        f"degree={g.degree}, bezout={conn.bezout}, reached={conn.bfs_reached}/{t.n}",
    )
    found = oracles.find_triangle(g)
    check(
        "girth-nonplanarity",
        c.verdicts["girth-nonplanarity"] and found is not None,
        f"triangle={clique[:3]}, k5={clique[:5]}, scan={found}",
    )
    check(
        "clique",
        c.verdicts["clique"],
        f"certificate={len(clique)} <= omega <= chi <= {t.gamma} "
        f"(coloring proper={coloring.proper}), gamma={t.gamma}",
    )
    check(
        "chromatic",
        c.verdicts["chromatic"],
        f"proper={coloring.proper} over {coloring.edges_checked} edges (exhaustive), value={t.gamma}",
    )
    check(
        "independence",
        c.verdicts["independence"],
        f"size={cert.size} <= alpha <= {t.n // t.gamma} (cover by translates of K: {coloring.tiles}), "
        f"internal={scan.internal_edges}/{scan.pairs_checked} pairs, "
        f"index-MIS={len(cert.residues)} (index bounds: {c.index_bounds})",
    )
    check(
        "structure",
        c.verdicts["structure"],
        f"fiber={c.fiber}, partition=True, blockAdjacency={c.block_adjacency}",
    )
    sweep = oracles.distance_sweep(g, sources)
    check(
        "diameter",
        c.verdicts["diameter"] and sweep.mismatches == 0,
        f"max={sweep.max_distance}, mismatches={sweep.mismatches} over "
        f"{sweep.sources * t.n} pairs from {sweep.sources} sources",
    )
    check(
        "hamiltonian",
        c.verdicts["hamiltonian"],
        f"kind=cycle, length={walk.length}, endpoints={walk.endpoints}",
    )
    return VerificationOutcome(ok, tuple(lines))
