"""Independent brute-force ground truth.

The 27 gcd classes {x : gcd(x, n) = d} of Z_n as n-bit sets, which `verify`
reads two ways: keyed by order n/d, for the connecting set's order scan, and
keyed by the closed-form distance of d (`parameters.closed_form_distance`),
for the multi-source BFS distance sweep; a deterministic triangle scan; and,
as test references for the bounds `verify` decides by certificate, exact
maximum-clique search (bitset branch and bound with a greedy coloring bound)
and exact maximum independent set on the index graph (clique search on the
complement).
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple, Sequence

from .graph import CayleyGraph
from .group import PrimeTriple
from .parameters import closed_form_distance
from .structure import index_adjacent, index_ids

DEFAULT_SEED = 12345


def gcd_classes(g: CayleyGraph) -> Iterator[tuple[int, int]]:
    """(d, {x : gcd(x, n) = d} as an n-bit int) for the 27 divisors d of n.

    Per prime p, [0, n) splits by min(v_p(x), 2) into the multiples of p
    but not of p², the non-multiples of p and the multiples of p²: six sets
    of multiples in all.  Each class is one product of the three splits.
    The splits of a are dropped one by one as their nine classes are
    yielded, p² first and p last: the order that gave
    `closed_form_distance_classes` its lowest tracemalloc peak.
    """
    full = (1 << g.triple.n) - 1

    def split(p: int) -> list[tuple[int, int]]:
        of_p, of_square = g.multiples(p), g.multiples(p * p)
        return [(p, of_p ^ of_square), (1, of_p ^ full), (p * p, of_square)]

    by_a, by_b, by_c = map(split, g.triple.primes)
    while by_a:
        da, sa = by_a.pop()
        for db, sb in by_b:
            for dc, sc in by_c:
                yield da * db * dc, sa & sb & sc


def order_classes(g: CayleyGraph) -> Iterator[tuple[int, int]]:
    """(o, the elements of order exactly o as an n-bit int) for each divisor
    o of n: the order of x is n/gcd(x, n)."""
    return ((g.triple.n // d, cls) for d, cls in gcd_classes(g))


def order_scan(g: CayleyGraph) -> tuple[bool, int]:
    """(verdict, size) of the order scan: the elements of order a², b² or
    c².  The verdict holds iff the order classes partition [0, n) (their
    sizes sum to n and their union is [0, n)) and the members, all in
    [0, n), are exactly the order scan."""
    t = g.triple
    union = size = scan = 0
    for o, cls in order_classes(g):
        union |= cls
        size += cls.bit_count()
        if o in t.moduli:
            scan |= cls
    partition = size == t.n and union == (1 << t.n) - 1
    in_range = all(0 <= m < t.n for m in g.members)
    return partition and in_range and g.bitset(g.members) == scan, scan.bit_count()


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


def closed_form_distance_classes(t: PrimeTriple, g: CayleyGraph) -> dict[int, int]:
    """E_k = {d : the closed-form distance of difference d is k}, as n-bit ints.

    Per prime p, `closed_form_distance` reads of d only whether p² or p
    divides it, which d shares with gcd(d, n); so E_k is the union of the
    gcd classes whose divisor lies at distance k.
    """
    classes: dict[int, int] = {}
    for d, cls in gcd_classes(g):
        k = closed_form_distance(d % t.n, 0, t)
        classes[k] = classes.get(k, 0) | cls
        del cls  # not held while the next class is built
    return classes


class SweepReport(NamedTuple):
    sources: int
    pairs_checked: int
    max_distance: int
    mismatches: int


def distance_sweep(g: CayleyGraph, sources: int | None = None, seed: int = DEFAULT_SEED) -> SweepReport:
    """BFS from vertex 0 plus `sources` extra sources sampled with `seed`;
    every computed distance is compared against the closed form.  With
    sources None the extras are every other vertex when n <= 2000 and 50
    above; a negative count is refused by the sample, before any BFS.

    From source s the closed form puts vertex v at the distance of the
    difference v − s, so level k is expected to be rot(E_k, s), where E_k
    holds the differences at closed-form distance k.  A vertex matches when it
    lies in its BFS level and its expected one, so the mismatches are n minus
    the matches (unreached vertices never match)."""
    t = g.triple
    n = t.n
    if sources is None:
        sources = n - 1 if n <= 2000 else 50
    starts = [0] + sorted(random.Random(seed).sample(range(1, n), min(sources, n - 1)))
    expected = closed_form_distance_classes(t, g)
    max_distance = 0
    mismatches = 0
    for s in starts:
        levels = g.bfs_levels(s)
        max_distance = max(max_distance, len(levels) - 1)
        matched = sum(
            (level & g.rotate(expected[k], s)).bit_count()
            for k, level in enumerate(levels)
            if k in expected
        )
        mismatches += n - matched
    return SweepReport(len(starts), len(starts) * n, max_distance, mismatches)


def find_triangle(g: CayleyGraph) -> tuple[int, int, int] | None:
    """Deterministic first triangle: connectors c1 < c2 whose difference is
    itself a connector give the triangle {0, c1, c2}."""
    members = g.members
    for i, c1 in enumerate(members):
        for c2 in members[i + 1 :]:
            if g.is_connector(c2 - c1):
                return (0, c1, c2)
    return None
