"""Shared brute-force oracles, per-vertex references and small utilities for
the test suite.

Everything here is deliberately independent of the library's closed-form
constructors: orders by repeated addition, connector sets by order scan,
triple enumeration by direct search.  The per-vertex references
(`crt_components`, `residue_sum_color`, `block_of`, `neighbors`) state one
vertex at a time what the library builds as whole vertex sets, and
`snake_sequence` builds the n-entry Hamiltonian walk that the library keeps as
the product lemma's levels, and `is_cycle` replays a vertex sequence edge by
edge where the library decides a cycle by its step.

`periodic` builds the n-bit set of residues mod a period, for the
references; the package builds no residue set as n bits, only the sets of
multiples behind the gcd classes (`CayleyGraph.multiples`).  `divisors` lists
the divisors of n, which the fault tables walk.

The n-bit references (`block_set`, `internal_edges`,
`coloring_by_neighbourhood`, `adjacency_by_neighbourhood`) decide on sets of
n bits, with one rotation per connector or one neighbourhood, what the
library decides on residues mod abc; `adjacency_by_residue_scan` decides on
residues mod abc, found by scanning them all, what the library decides on
the connectors' block ids; `is_partition` and `tiles` decide on n bits the
partitions by translates (the walk's rows, the clique cover behind
α ≤ n/c) that the library decides on quotients.

`edges_by_pairs` counts the edges among a vertex set pair by pair, the
reference for the library's one count per residue set;
`rotations_by_sort` lists the rotations of colour class 0 by the clique
mod abc, the reference for the colouring's tiling lemma; and
`coset_plan_by_scan` finds the coset families member by member, the
reference for `CayleyGraph.coset_plan`'s count per coset.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, islice

from psqcayley import (
    CayleyGraph,
    PrimeTriple,
    WalkCertificate,
    clique_certificate,
    group,
    index_adjacent,
    index_ids,
    is_prime,
    make_prime_triple,
)
from psqcayley.group import crt_basis, prime_factors

BIG_PRIME = 10**18 + 3  # prime, and (2·3·BIG_PRIME)² overflows 64 bits


def record_primality_tests(monkeypatch) -> list[int]:
    """From now on group.is_prime records its argument and answers True, so
    no trial division runs; returns the recorded arguments."""
    seen: list[int] = []
    monkeypatch.setattr(group, "is_prime", lambda m: seen.append(m) or True)
    return seen


def crt_components(k: int, t: PrimeTriple) -> tuple[int, int, int]:
    """Reduce an exponent modulo (a², b², c²)."""
    return (k % t.m_alpha, k % t.m_beta, k % t.m_gamma)


def residue_sum_color(v: int, t: PrimeTriple) -> int:
    """The proper gamma-colouring that `verify_coloring` checks: the residues
    mod a, b and c, included into Z_gamma by the identity, summed modulo
    gamma.  It reads v only modulo abc."""
    return (v % t.alpha + v % t.beta + v % t.gamma) % t.gamma


def block_of(v: int, t: PrimeTriple) -> tuple[int, int, int]:
    """Residue projection assigning every vertex to its block id (i, j, k)."""
    return (v % t.alpha, v % t.beta, v % t.gamma)


def divisors(m: int) -> tuple[int, ...]:
    """Every positive divisor of m > 0, ascending."""
    divs = [1]
    for p in prime_factors(m):
        power, more = p, []
        while m % power == 0:
            more.extend(d * power for d in divs)
            power *= p
        divs.extend(more)
    return tuple(sorted(divs))


def periodic(g: CayleyGraph, period: int, residues) -> int:
    """{v : v mod period in residues} as an n-bit int.

    The period must divide n and every residue lie in [0, period).  One
    period is packed and then doubled by shifts up to n bits.
    """
    n = g.triple.n
    if period <= 0 or n % period:
        raise ValueError(f"period {period} does not divide {n}")
    residues = list(residues)
    if not all(0 <= r < period for r in residues):
        raise ValueError(f"a residue of {residues} is out of range [0, {period})")
    s, width = g.bitset(residues), period
    while width < n:
        s |= s << width
        width *= 2
    return s & ((1 << n) - 1)


def block_set(g: CayleyGraph, residues) -> int:
    """{v : v mod abc in residues} as an n-bit int."""
    return periodic(g, g.triple.alpha * g.triple.beta * g.triple.gamma, residues)


def residues_of(t: PrimeTriple, ids) -> list[int]:
    """The residues r < abc whose block, by the per-vertex projection, is one of ids."""
    chosen = set(ids)
    return [r for r in range(t.alpha * t.beta * t.gamma) if block_of(r, t) in chosen]


def is_partition(g: CayleyGraph, sets) -> bool:
    """True iff the n-bit sets are pairwise disjoint and cover all n
    vertices: their sizes sum to n and their union is [0, n)."""
    union = size = 0
    for s in sets:
        union |= s
        size += s.bit_count()
    return size == g.triple.n and union == (1 << g.triple.n) - 1


def tiles(g: CayleyGraph, s: int, step: int, count: int) -> bool:
    """True iff the translates s + r·step (r < count) of the n-bit set s
    partition V: their sizes sum to n and their union, doubled up by about
    log₂ count rotations, is [0, n)."""
    if s.bit_count() * count != g.triple.n:
        return False
    union, cover = s, 1
    while cover < count:
        k = min(cover, count - cover)
        union |= g.rotate(union, k * step)
        cover += k
    return union == (1 << g.triple.n) - 1


def internal_edges(g: CayleyGraph, s: int) -> int:
    """Edges with both endpoints in the n-bit set s, each counted once: one
    n-bit AND per connector c < n/2, each edge {u, u + c} counted at u."""
    n = g.triple.n
    doubled = s | (s << n)
    # (doubled >> (n - c)) & S == rot(S, c) & S
    return sum(((doubled >> (n - c)) & s).bit_count() for c in g.members if 2 * c < n)


def edges_by_pairs(g: CayleyGraph, vertices) -> int:
    """The edges among the vertices, each unordered pair {u, v} checked
    once: an edge iff u − v or v − u is a connector, so a member without
    its negative, or n/2, joins its pairs once each."""
    n = g.triple.n
    gaps = _pair_gaps(tuple(sorted(set(vertices))))
    return sum(k for d, k in gaps.items() if g.is_connector(d) or g.is_connector(n - d))


@lru_cache(maxsize=4)
def _pair_gaps(vs: tuple[int, ...]) -> Counter:
    """How many pairs u < v of the ascending vertices differ by each v − u."""
    return Counter(v - u for i, u in enumerate(vs) for v in vs[i + 1 :])


def rotations_by_sort(t: PrimeTriple, zero, clique) -> bool:
    """True iff the rotations r + κ mod abc of class 0's residues r by the
    clique's κ list every residue mod abc once: the sorted list is range(abc)."""
    period = t.alpha * t.beta * t.gamma
    return sorted((r + k) % period for k in clique for r in zero) == list(range(period))


def coset_plan_by_scan(g: CayleyGraph) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The coset families of `CayleyGraph.coset_plan`, found member by member:
    for each prime o | n, largest first, with h = n/o, a member x becomes a
    representative when every x + j·h (j < o) is a member not yet covered."""
    n = g.triple.n
    pool = set(g.members)
    families = []
    for o in reversed(g.triple.primes):
        if o > len(pool):
            continue
        h = n // o
        reps = []
        # x + h first, for all members at once; x itself may have been
        # covered by an earlier representative of the same coset
        for x in [x for x in sorted(pool) if (x + h) % n in pool]:
            if x in pool and all((x + j * h) % n in pool for j in range(2, o)):
                reps.append(x)
                pool.difference_update((x + j * h) % n for j in range(o))
        if reps:
            families.append((h, o, tuple(reps)))
    if pool:
        families.insert(0, (n, 1, tuple(sorted(pool))))
    return tuple(families)


def coloring_by_neighbourhood(t: PrimeTriple, g: CayleyGraph, zero: int) -> bool:
    """The colouring verdict on the n-bit colour class 0: it misses its own
    neighbourhood and its rotations by the clique certificate partition V."""
    clique = clique_certificate(t)
    return (
        len(clique) <= t.gamma
        and not g.neighborhood(zero) & zero
        and is_partition(g, (g.rotate(zero, k) for k in clique))
    )


def adjacency_by_neighbourhood(g: CayleyGraph, b0: int) -> bool:
    """The block-adjacency verdict on the n-bit block 0: N(B₀) is the union
    of the blocks index-adjacent to (0, 0, 0)."""
    adjacent = residues_of(g.triple, [x for x in index_ids(g.triple) if index_adjacent((0, 0, 0), x)])
    return g.neighborhood(b0) == block_set(g, adjacent)


def adjacency_by_residue_scan(g: CayleyGraph) -> bool:
    """The block-adjacency verdict on residues mod abc, each residue set
    found by scanning all abc residues: the residues (r + c) mod abc of
    N(B₀), r in B₀ and c in C, are those of the blocks index-adjacent to
    (0, 0, 0).  The reference for the check on the connectors' ids."""
    t, origin = g.triple, (0, 0, 0)
    period = t.alpha * t.beta * t.gamma
    reach = {(r + x) % period for r in residues_of(t, [origin]) for x in g.members}
    return reach == set(residues_of(t, [x for x in index_ids(t) if index_adjacent(origin, x)]))


def neighbors(g: CayleyGraph, u: int) -> list[int]:
    """The degree-many neighbours u + c (c in C) of vertex u, sorted ascending."""
    n = g.triple.n
    return sorted((u + c) % n for c in g.members)


def is_cycle(g: CayleyGraph, seq) -> bool:
    """True iff seq lists at least 3 distinct vertices, each adjacent to
    the next and the last to the first both ways: a step by d needs d and
    n − d in C, so seq reversed passes too.  The n-entry reference for
    `CayleyGraph.is_step_cycle`, which decides a cycle by its step."""
    n = g.triple.n
    if len(seq) < 3 or not all(0 <= v < n for v in seq) or len(set(seq)) < len(seq):
        return False
    # every entry is now a distinct vertex, so adjacency is membership of the difference
    for u, v in chain(zip(seq, islice(seq, 1, None)), [(seq[-1], seq[0])]):
        d = (v - u) % n
        if not (g.is_connector(d) and g.is_connector(n - d)):
            return False
    return True


def cell_rule_by_difference(g: CayleyGraph) -> bool:
    """Fiber check (ii) by one membership test per in-cell difference
    dk·a²b², 0 < dk < c²: a connector iff gamma does not divide dk.  The
    reference for the check's one pass over the members."""
    t = g.triple
    m_ab, connectors = t.m_alpha * t.m_beta, set(g.members)
    return all((dk * m_ab in connectors) == (dk % t.gamma != 0) for dk in range(1, t.m_gamma))


def snake_sequence(t: PrimeTriple) -> tuple[int, ...]:
    """The product-lemma walk in full, one entry per vertex: from [0], along
    c, then b, then a, snake rows over the tail alternating direction, then
    climb the head's column back to row 1."""
    n = t.n
    cycle = [0]
    for m, e in zip(reversed(t.moduli), reversed(crt_basis(t))):
        head, tail = cycle[0], cycle[1:]
        rows = (tail, tail[::-1])
        cycle = [head]
        for row in range(m):
            shift = row * e
            cycle.extend([(shift + h) % n for h in rows[row % 2]])
        cycle.extend([(row * e + head) % n for row in range(m - 1, 0, -1)])
    return tuple(cycle)


def walk_sequence(w: WalkCertificate) -> tuple[int, ...]:
    """The certificate's walk in full: its pieces concatenated."""
    return tuple(chain.from_iterable(w.pieces()))


def brute_order(k: int, n: int, limit: int | None = None) -> int:
    """Order of k in the additive group Z_n by repeated addition; with a
    limit, stop after `limit` additions and return limit + 1 if the order
    exceeds it."""
    if k == 0:
        return 1
    acc = k
    count = 1
    while acc != 0:
        if count == limit:
            return limit + 1
        acc = (acc + k) % n
        count += 1
    return count


def order_scan_connectors(t: PrimeTriple) -> set[int]:
    """All exponents whose brute-force order is a squared prime.  No order
    above the largest square matters, so each scan stops there."""
    squares = set(t.moduli)
    return {m for m in range(1, t.n) if brute_order(m, t.n, max(squares)) in squares}


# triples built directly, past `make_prime_triple`'s checks, with non-prime,
# repeated or unordered entries: the fiber and index lemmas must fail exactly
# where their literal loops do
UNVALIDATED = [
    PrimeTriple(a, b, c, (a * b * c) ** 2, a * a, b * b, c * c)
    for a, b, c in ((2, 3, 4), (2, 4, 5), (2, 5, 5), (2, 3, 9), (3, 3, 5), (2, 3, 6), (3, 5, 9), (2, 5, 3), (5, 2, 3))
]


def primes_up_to(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if is_prime(p)]


def triples_with_group_order_at_most(limit: int) -> list[PrimeTriple]:
    """Every valid triple with n = (abc)² <= limit, ascending by n."""
    bound = int(limit**0.5)  # abc <= sqrt(limit)
    primes = primes_up_to(bound // 6 + 1)
    found = []
    for i, a in enumerate(primes):
        for j in range(i + 1, len(primes)):
            b = primes[j]
            if a * b * b >= bound:
                break
            for k in range(j + 1, len(primes)):
                c = primes[k]
                if a * b * c > bound:
                    break
                found.append(make_prime_triple(a, b, c))
    return sorted(found, key=lambda t: t.n)
