"""The certificate pipeline, and its two renderings: the machine-readable
report and the full verification run.

`certify` builds every in-schema certificate and verdict exactly once, on one
graph: regularity and connectivity, the independence certificate and its
internal-edge scan, the clique K, the proper coloring whose class 0 is the
certificate, the index-graph bounds on its index set, the diameter, the walk
certificate and its check, and the fiber and block checks, decided by
translation on one representative.
`build_report` renders the result as the JSON report; `run_verification`
renders it as one line per check and adds the oracle-only checks (the
connecting set against the order scan, the triangle scan, the clique cover
that bounds α as the coloring bounds ω, and the distance sweep).

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

SCHEMA_VERSION = 1
DEFAULT_SEED = 12345  # only echoed, as the report's `oracleSeed`


# Every in-schema certificate and verdict for one triple, on one graph.
# Every field is always set; timings holds the seconds of each stage.
Certificates = namedtuple(
    "Certificates",
    "graph eulerian connectivity clique coloring independence independence_scan index_bounds diameter "
    "walk walk_verified fiber block_partition block_adjacency timings",
)


def certify(t: PrimeTriple) -> Certificates:
    """Build every certificate and verdict once, each stage timed."""
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
    eulerian = regular and g.degree % 2 == 0 and conn.connected
    lap("connectivity")
    independence = parameters.independence_certificate(t)
    scan = parameters.independence_internal_edges(independence, g)
    lap("independence")
    # colour class 0 is the certificate: its scan decides the colouring too
    clique = parameters.clique_certificate(t)
    coloring = parameters.verify_coloring(t, independence, scan, clique)
    lap("coloring")
    index_bounds = parameters.verify_index_bounds(t, independence.index_set)
    lap("indexBounds")
    diam = parameters.diameter(t, g)
    lap("diameter")
    walk = snake_walk(t)
    walk_ok = verify_walk(walk, g)
    lap("hamiltonian")
    fiber = structure.verify_fiber_structure(g)
    partition = structure.verify_block_partition(g)
    block_adj = structure.verify_block_adjacency(g)
    lap("structure")

    return Certificates(
        g, eulerian, conn, clique, coloring, independence, scan, index_bounds, diam, walk, walk_ok,
        fiber, partition, block_adj, timings,
    )


def build_report(t: PrimeTriple, seed: int = DEFAULT_SEED, include_timings: bool = False) -> dict:
    """Render the certificates of one triple as the report.

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
        "degree": g.degree,
        "connected": {
            "bezout": list(c.connectivity.bezout),
            "bfsReached": c.connectivity.bfs_reached,
        },
        "eulerian": c.eulerian,
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
            "indexSetSize": len(c.independence.index_set),
            "internalEdges": c.independence_scan.internal_edges,
        },
        "indexGraphMIS": len(c.independence.index_set),
        "diameter": {
            "value": c.diameter.value,
            "witnessPair": list(c.diameter.witness_pair),
            "bfsEccentricity": c.diameter.bfs_eccentricity,
        },
        "hamiltonian": {
            "kind": "cycle",
            "verified": c.walk_verified,
            "endpoints": list(c.walk.endpoints),
        },
        "fiberStructure": c.fiber,
        "blockPartition": c.block_partition,
        "blockAdjacencyConsistent": c.block_adjacency,
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
    """Render the certificates as one line per check, with the oracle suite
    run against each.  `sources` is the distance sweep's count of extra
    sources (`oracles.distance_sweep`), which sets only the reported source
    and pair counts."""
    c = certify(t)
    g, clique = c.graph, c.clique
    lines: list[str] = []
    ok = True

    def check(name: str, passed: bool, detail: str) -> None:
        nonlocal ok
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")

    scan_ok, scan_size = oracles.order_scan(g)
    check(
        "connecting-set",
        scan_ok and g.degree == connector_count_formula(t),
        f"|C|={g.degree}, formula={connector_count_formula(t)}, order-scan={scan_size}",
    )

    conn = c.connectivity
    check(
        "regular-eulerian-connected",
        c.eulerian,
        f"degree={g.degree}, bezout={conn.bezout}, reached={conn.bfs_reached}/{t.n}",
    )

    tri, k5 = clique[:3], clique[:5]  # c ≥ 5 at every triple; tri lies in K₅
    found = oracles.find_triangle(g)
    check(
        "girth-nonplanarity",
        g.is_clique(k5) and found is not None,
        f"triangle={tri}, k5={k5}, scan={found}",
    )

    # the c-clique gives ω ≥ c, and the proper colouring into at most c
    # classes ω ≤ χ ≤ c; the same two certificates decide χ = c
    coloring = c.coloring
    clique_ok = len(clique) == t.gamma and g.is_clique(clique)
    check(
        "clique",
        clique_ok and coloring.proper,
        f"certificate={len(clique)} <= omega <= chi <= {t.gamma} "
        f"(coloring proper={coloring.proper}), gamma={t.gamma}",
    )
    check(
        "chromatic",
        clique_ok and coloring.proper,
        f"proper={coloring.proper} over {coloring.edges_checked} edges (exhaustive), "
        f"value={t.gamma}",
    )

    # α ≤ n/c: when the translates x + K of the clique, x in S₀ (n/c
    # vertices), partition V, an independent set meets each at most once
    upper, cover = t.n // t.gamma, coloring.tiles
    cert, scan, bounds = c.independence, c.independence_scan, c.index_bounds
    index_ok = bounds.index_set_two_agreement_free and bounds.lines_cover_ids
    check(
        "independence",
        clique_ok and cover and scan.internal_edges == 0 and cert.size == upper and index_ok,
        f"size={cert.size} <= alpha <= {upper} (cover by translates of K: {cover}), "
        f"internal={scan.internal_edges}/{scan.pairs_checked} pairs, "
        f"index-MIS={len(cert.index_set)} (index bounds: {index_ok})",
    )

    check(
        "structure",
        all(c.fiber.values()) and c.block_partition and c.block_adjacency,
        f"fiber={c.fiber}, partition={c.block_partition}, "
        f"blockAdjacency={c.block_adjacency}",
    )

    sweep = oracles.distance_sweep(g, sources)
    diam = c.diameter
    check(
        "diameter",
        sweep.mismatches == 0 and diam.value == diam.bfs_eccentricity == 6,
        f"max={sweep.max_distance}, mismatches={sweep.mismatches} over "
        f"{sweep.pairs_checked} pairs from {sweep.sources} sources",
    )

    walk = c.walk
    check(
        "hamiltonian",
        c.walk_verified,
        f"kind=cycle, length={walk.length}, endpoints={walk.endpoints}",
    )

    return VerificationOutcome(ok, tuple(lines))
