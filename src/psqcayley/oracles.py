"""Independent brute-force ground truth.

The connecting set's order scan, from the subgroups of order a², b² and c²;
the distance sweep, which reads the one BFS per graph, from vertex 0, and
counts each level against its closed-form distance class, built from the
27 gcd classes {x : gcd(x, n) = d} of Z_n grouped by the closed-form
distance of d (`parameters.closed_form_distance`) and dropped once counted;
a deterministic triangle scan; and, as test references for the bounds
`verify` decides by certificate, exact maximum-clique search (bitmask branch
and bound with a greedy coloring bound) and exact maximum independent set on
the index graph (clique search on the complement).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Sequence
from itertools import product
from math import gcd

from .graph import CayleyGraph
from .group import PrimeTriple
from .parameters import closed_form_distance
from .structure import index_adjacent, index_ids


def order_scan(g: CayleyGraph) -> tuple[bool, int]:
    """(verdict, size) of the order scan, the elements of order a², b² or
    c²: the verdict holds iff the sorted members are exactly the scan.

    By Lagrange an element of order m = p² lies in the one subgroup of
    order m, the multiples of h = n/m, and has gcd(x, n) = h, since its
    order is n/gcd(x, n).  So the scan reads a² + b² + c² elements and
    builds no n-bit set."""
    n = g.triple.n
    scan = []
    for m in g.triple.moduli:
        h = n // m
        scan.extend(x for x in range(h, n, h) if gcd(x, n) == h)
    return sorted(scan) == sorted(g.members), len(scan)


def exact_max_clique(vertices: Sequence, adjacent: Callable) -> list:
    """A maximum clique of the induced subgraph, by branch and bound.

    Candidates are ordered by a greedy coloring whose class count bounds the
    clique size, pruning the search.  Fully deterministic.
    """
    m = len(vertices)
    if m == 0:
        return []
    adj = [0] * m
    for i in range(m):
        vi = vertices[i]
        for j in range(i + 1, m):
            if adjacent(vi, vertices[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    best: list[int] = []

    def expand(chosen: list[int], cand: int) -> None:
        nonlocal best
        if cand == 0:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        order: list[int] = []
        bounds: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                order.append(v)
                bounds.append(color)
                uncolored &= ~bit
                avail &= ~(bit | adj[v])
        for idx in range(len(order) - 1, -1, -1):
            if len(chosen) + bounds[idx] <= len(best):
                return
            v = order[idx]
            chosen.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(chosen, nxt)
            elif len(chosen) > len(best):
                best = chosen.copy()
            chosen.pop()
            cand &= ~(1 << v)

    expand([], (1 << m) - 1)
    return [vertices[i] for i in sorted(best)]


def exact_max_independent_set(t: PrimeTriple) -> list[tuple[int, int, int]]:
    """Exact maximum independent set of the index graph of t, via a maximum
    clique of its complement."""
    return exact_max_clique(index_ids(t), lambda x, y: not index_adjacent(x, y))


SweepReport = namedtuple("SweepReport", "sources max_distance mismatches")


def distance_sweep(g: CayleyGraph, sources: int | None = None) -> SweepReport:
    """The BFS levels from vertex 0 against the closed-form distance classes
    E_k, reported for vertex 0 plus `sources` extra sources: every other
    vertex when sources is None and n <= 2000, 50 above; a negative count
    raises ValueError before it reads the levels.

    Every translation x ↦ x + s is an automorphism, and the closed form puts
    v at the distance of v − s from s, so each source matches exactly the
    vertices that vertex 0 matches: those in both their level k and E_k (an
    unreached vertex never matches, nor does a level that no class reaches).

    Per prime p, `closed_form_distance` reads of x only whether p² or p
    divides it, which x shares with gcd(x, n); so E_k is the union of the
    gcd classes {x : gcd(x, n) = d} whose divisor lies at distance k.  Per
    prime p, the multiples of p and of p² split [0, n) by min(v_p(x), 2),
    and each of the 27 gcd classes is one product of the three splits.  The
    products are grouped by distance; each E_k is ORed from its products,
    counted against level k and dropped before the next one is built."""
    t = g.triple
    n = t.n
    if sources is None:
        sources = n - 1 if n <= 2000 else 50
    if sources < 0:
        raise ValueError(f"negative source count {sources}")
    count = 1 + min(sources, n - 1)

    def split(p: int) -> list[tuple[int, int]]:
        of_p, of_square = g.multiples(p), g.multiples(p * p)
        # the mask of [0, n) is built per split, so none outlives it
        return [(p, of_p ^ of_square), (1, of_p ^ (1 << n) - 1), (p * p, of_square)]

    by_distance: dict[int, list[tuple[int, int, int]]] = {}
    for (da, sa), (db, sb), (dc, sc) in product(*map(split, t.primes)):
        by_distance.setdefault(closed_form_distance(da * db * dc % n, 0, t), []).append((sa, sb, sc))
    levels = g.levels_from_zero
    matched = 0
    for k, level in enumerate(levels):
        expected = 0
        for sa, sb, sc in by_distance.get(k, ()):
            expected |= sa & sb & sc
        matched += (level & expected).bit_count()
    return SweepReport(count, len(levels) - 1, (n - matched) * count)


def find_triangle(g: CayleyGraph) -> tuple[int, int, int] | None:
    """Deterministic first triangle: connectors c1 < c2 whose difference is
    itself a connector give the triangle {0, c1, c2}."""
    members = g.members
    for i, c1 in enumerate(members):
        for c2 in members[i + 1 :]:
            if g.is_connector(c2 - c1):
                return (0, c1, c2)
    return None
