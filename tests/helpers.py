"""Shared brute-force oracles, per-vertex references and small utilities for
the test suite.

Everything here is deliberately independent of the library's closed-form
constructors: orders by repeated addition, connector sets by order scan,
triple enumeration by direct search.  The per-vertex references
(`crt_components`, `certificate_color`, `block_of`, `neighbors`) state one
vertex at a time what the library builds as whole vertex sets, and
`snake_sequence` builds the n-entry Hamiltonian walk that the library keeps as
the product lemma's levels (`lifted_sequence` lifts any levels in Z_n), and
`is_cycle` replays a vertex sequence edge by edge where the library decides
a cycle by its step.

`rotate` translates an n-bit set, and `levels_from` runs the n-bit BFS
from any source with the `neighborhood` kernel: the library keeps only the
levels from vertex 0, since every translation is an automorphism.
`reference_sweep` is the distance sweep as it was before that lemma: one
such BFS from each source of a seeded sample, each distance compared with
`closed_form_distance`; `reference_bfs` is a list BFS over the vertices.
`count_level_builds` counts the builds of the levels from vertex 0, and
`plant_table_levels` plants the closed-form distance classes as those
levels, so the sweep reads them without a BFS.

`bitset` builds the n-bit set of a list of vertices and `periodic` that of
the residues mod a period, for the references; the package builds neither
as n bits, only the sets of multiples that the distance sweep folds its
classes from (`CayleyGraph.multiples`).  `divisors` lists the divisors of
n, which the fault tables walk, from `prime_factors`, the factorisation
that the package's `is_prime` is checked against.

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
`axis_plan_by_scan` decides by each member's order n/gcd(x, n) whether the
members are exactly C, the reference for `CayleyGraph.axis_plan`'s merge
against the closed-form classes.

`certified_coloring` runs `verify_coloring` on colour class 0, the
independence certificate, its scan and the clique K, as `certify` does, so a
residue set planted in `parameters.block_residues` or a K planted in
`parameters.clique_certificate` reaches the colouring verdict.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property, lru_cache
from itertools import chain, islice
from math import gcd

from psqcayley import group, parameters
from psqcayley.graph import CayleyGraph, set_bits
from psqcayley.group import PrimeTriple, crt_basis, is_prime
from psqcayley.hamiltonian import WalkCertificate
from psqcayley.oracles import SweepReport
from psqcayley.parameters import clique_certificate, closed_form_distance, closed_form_distance_table
from psqcayley.structure import index_adjacent, index_ids

BIG_PRIME = 10**18 + 3  # prime, and (2·3·BIG_PRIME)² overflows 64 bits


def record_primality_tests(monkeypatch) -> list[int]:
    """From now on group.is_prime records its argument and answers True, so
    no trial division runs; returns the recorded arguments."""
    seen: list[int] = []
    monkeypatch.setattr(group, "is_prime", lambda m: seen.append(m) or True)
    return seen


def crt_components(k: int, t: PrimeTriple) -> tuple[int, int, int]:
    """Reduce an exponent modulo (a², b², c²)."""
    return tuple(k % m for m in t.moduli)


def certificate_color(v: int, t: PrimeTriple) -> int:
    """The proper gamma-colouring that `verify_coloring` checks: the residue
    mod c minus those mod a and b, included into Z_gamma by the identity,
    modulo gamma.  Class 0 is the independence certificate, the blocks
    (i, j, (i + j) mod c).  It reads v only modulo abc."""
    return (v % t.gamma - v % t.alpha - v % t.beta) % t.gamma


def certified_coloring(t: PrimeTriple, g: CayleyGraph):
    """`verify_coloring` on g with colour class 0, its internal-edge scan and
    the clique K, as `certify` passes them: the independence certificate,
    whose residues `parameters.independence_certificate` reads through
    `parameters.block_residues` at call time, so a planted residue set is
    class 0, and K read through `parameters.clique_certificate`, so a
    planted K is the one that tiles."""
    cert = parameters.independence_certificate(t)
    scan = parameters.independence_internal_edges(cert, g)
    return parameters.verify_coloring(t, cert, scan, parameters.clique_certificate(t))


def block_of(v: int, t: PrimeTriple) -> tuple[int, int, int]:
    """Residue projection assigning every vertex to its block id (i, j, k)."""
    return (v % t.alpha, v % t.beta, v % t.gamma)


def rotate(g: CayleyGraph, s: int, k: int) -> int:
    """rot(S, k) = {(v + k) mod n : v in S}."""
    n = g.triple.n
    k %= n
    return ((s << k) | (s >> (n - k))) & ((1 << n) - 1)


def levels_from(g: CayleyGraph, source: int) -> tuple[int, ...]:
    """The BFS levels from source by the `neighborhood` kernel, until a
    level comes out empty: levels[k] is the n-bit set at distance k."""
    frontier = seen = 1 << source
    levels = []
    while frontier:
        levels.append(frontier)
        frontier = g.neighborhood(frontier) & ~seen
        seen |= frontier
    return tuple(levels)


def reference_sweep(g: CayleyGraph, sources: int | None, seed: int) -> SweepReport:
    """The distance sweep by one n-bit BFS from vertex 0 and from each of
    `sources` others sampled with seed (every other vertex when sources is
    None and n <= 2000, 50 above): a vertex v mismatches source s when its
    BFS distance, -1 if unreached, is not the closed-form distance of v − s."""
    n = g.triple.n
    if sources is None:
        sources = n - 1 if n <= 2000 else 50
    table = [closed_form_distance(d, 0, g.triple) for d in range(n)]
    starts = [0] + random.Random(seed).sample(range(1, n), min(sources, n - 1))
    max_distance = mismatches = 0
    for s in starts:
        levels = levels_from(g, s)
        dist = [-1] * n
        for k, level in enumerate(levels):
            for v in set_bits(level):
                dist[v] = k
        max_distance = max(max_distance, len(levels) - 1)
        mismatches += sum(dist[v] != table[(v - s) % n] for v in range(n))
    return SweepReport(len(starts), max_distance, mismatches)


def reference_bfs(n: int, members, source: int) -> list[int]:
    """Hop distances from source by a list BFS over the vertices, u to
    u + c for each member c (-1 = unreachable)."""
    dist = [-1] * n
    dist[source] = 0
    queue = [source]
    for u in queue:
        for c in members:
            v = (u + c) % n
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def count_level_builds(monkeypatch) -> list[CayleyGraph]:
    """From now on each build of a graph's levels from vertex 0 appends the
    graph to the returned list."""
    built: list[CayleyGraph] = []
    build = CayleyGraph.levels_from_zero.func
    counted = cached_property(lambda g: built.append(g) or build(g))
    counted.__set_name__(CayleyGraph, "levels_from_zero")
    monkeypatch.setattr(CayleyGraph, "levels_from_zero", counted)
    return built


def plant_table_levels(g: CayleyGraph, shift: int = 0) -> tuple[int, ...]:
    """Plant as g's levels from vertex 0, so that no BFS runs, the classes
    of `closed_form_distance_table`, class k at level k + shift and the
    levels below shift empty; returns the planted levels."""
    table = closed_form_distance_table(g.triple)
    classes = [bitset(g, (d for d in range(g.triple.n) if table[d] == k)) for k in range(max(table) + 1)]
    levels = g.__dict__["levels_from_zero"] = (0,) * shift + tuple(classes)
    return levels


def prime_factors(m: int) -> tuple[int, ...]:
    """The distinct primes dividing m > 0, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        primes.append(m)
    return tuple(primes)


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


def bitset(g: CayleyGraph, vertices) -> int:
    """The vertex set as an n-bit int (bit v set iff v is in the set), the
    tests' reference builder; a vertex outside [0, n) raises ValueError."""
    n = g.triple.n
    buf = bytearray((n + 7) // 8)
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"{v} out of range [0, {n})")
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")


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
    s, width = bitset(g, residues), period
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
        union |= rotate(g, union, k * step)
        cover += k
    return union == (1 << g.triple.n) - 1


def internal_edges(g: CayleyGraph, s: int) -> int:
    """Edges with both endpoints in the n-bit set s, each counted once: one
    n-bit AND per distinct nonzero step d = ±c mod n, so each edge {u, u + d}
    is counted at both ends, n/2 included, and the total is halved."""
    n = g.triple.n
    doubled = s | (s << n)
    steps = {x % n for c in g.members for x in (c, -c)} - {0}
    # (doubled >> (n - d)) & S == rot(S, d) & S
    return sum(((doubled >> (n - d)) & s).bit_count() for d in steps) // 2


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


def axis_plan_by_scan(g: CayleyGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (axes, singles) of `CayleyGraph.axis_plan`, decided by order: all
    three primes and no single when the members ascend strictly inside
    (0, n), each has order n/gcd(x, n) in {a², b², c²}, and there are
    Σ(p² − p) of them, so they are every element of those orders;
    otherwise no axis, and the singles are the distinct members mod n,
    ascending."""
    t, members = g.triple, g.members
    n, squares = t.n, {p * p for p in t.primes}
    if (
        all(u < v for u, v in zip(members, members[1:]))
        and all(0 < x < n and n // gcd(x, n) in squares for x in members)
        and len(members) == sum(p * p - p for p in t.primes)
    ):
        return t.primes, ()
    return (), tuple(sorted({x % n for x in members}))


def coloring_by_neighbourhood(t: PrimeTriple, g: CayleyGraph, zero: int) -> bool:
    """The colouring verdict on the n-bit colour class 0: it misses its own
    neighbourhood and its rotations by the clique certificate partition V."""
    clique = clique_certificate(t)
    return (
        len(clique) <= t.gamma
        and not g.neighborhood(zero) & zero
        and is_partition(g, (rotate(g, zero, k) for k in clique))
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
    (m_a, m_b, m_c), connectors = t.moduli, set(g.members)
    return all((dk * m_a * m_b in connectors) == (dk % t.gamma != 0) for dk in range(1, m_c))


def snake_sequence(t: PrimeTriple) -> tuple[int, ...]:
    """The product-lemma walk in full, one entry per vertex, along c, then b,
    then a."""
    return lifted_sequence(zip(reversed(crt_basis(t)), reversed(t.moduli)), t.n)


def lifted_sequence(levels, n: int) -> tuple[int, ...]:
    """The walk lifted from [0] through each level (step, rows) in turn,
    entry by entry modulo n: snake the rows over the tail alternating
    direction, then climb the head's column back to row 1.  A certificate
    reads its walk modulo its own length; this reads any levels in Z_n."""
    cycle = [0]
    for e, m in levels:
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
                found.append(PrimeTriple(a, b, c))
    return sorted(found, key=lambda t: t.n)
