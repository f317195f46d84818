"""Independent brute-force ground truth.

Element orders by subgroup bitsets, multi-source BFS distance sweeps checked
against the closed-form distance and a deterministic triangle scan, which
`verify` runs; and, as test references for the bounds `verify` decides by
certificate, exact maximum-clique search (bitset branch and bound with a
greedy coloring bound) and exact maximum independent set on the index graph
(clique search on the complement).  The one closed form here is what the
sweep checks against, `closed_form_distance_classes`, by the per-prime cost.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Callable, Iterator, NamedTuple, Sequence

from .graph import CayleyGraph
from .group import PrimeTriple, divisors, prime_factors
from .structure import index_adjacent, index_ids

DEFAULT_SEED = 12345


def order_classes(g: CayleyGraph) -> Iterator[tuple[int, int]]:
    """(o, the elements of order exactly o as an n-bit int) for each divisor
    o of n, largest first.

    An element's order divides o iff it is a multiple of n/o, so the
    multiples of n/o are the elements of order dividing o; removing those of
    order dividing o/p, for each prime p dividing o, leaves order exactly o.
    Each set of multiples is built once, on first use, and dropped with its
    own class: only larger divisors need it.
    """
    n = g.triple.n
    primes = prime_factors(n)
    multiples: dict[int, int] = {}  # order dividing o
    for o in reversed(divisors(n)):
        cls = multiples.pop(o) if o in multiples else g.periodic(n // o, [0])
        for p in primes:
            if o % p == 0:
                if o // p not in multiples:
                    multiples[o // p] = g.periodic(n * p // o, [0])
                cls &= ~multiples[o // p]
        yield o, cls


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

    The cost of d in each component depends only on d modulo that prime
    square, so E_k is the OR of A_x & B_y & C_z over x + y + z = k, where A_x
    is the set of d with cost x modulo a² (B, C likewise).  Per prime p, cost
    0 is d ≡ 0 mod p², cost 1 is d ≢ 0 mod p, and cost 2 is the rest of
    d ≡ 0 mod p.
    """
    per_prime = []
    for p, m in zip(t.primes, t.moduli):
        zero = g.periodic(m, [0])
        per_prime.append(enumerate((zero, g.periodic(p, range(1, p)), g.periodic(p, [0]) & ~zero)))
    classes: dict[int, int] = {}
    for (x, a_x), (y, b_y), (z, c_z) in product(*per_prime):
        classes[x + y + z] = classes.get(x + y + z, 0) | (a_x & b_y & c_z)
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
