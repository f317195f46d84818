"""Certified graph parameters: clique, chromatic, and independence numbers,
the closed-form distance, and the diameter.

Each parameter comes as an explicit certificate (a clique, a coloring, an
independent set, a witness pair) whose validity is re-checked against
arithmetic adjacency; brute-force counterparts live in `oracles`.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import NamedTuple

from .graph import CayleyGraph
from .group import PrimeTriple, _check_exponent, crt_combine
from .structure import BlockId, IndexGraph, block_exponents


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _component_cost(residue: int, p: int) -> int:
    # the hop cost of one component, from its difference reduced modulo p²:
    # 0 equal, 1 not congruent modulo p, 2 congruent modulo p but unequal
    if residue == 0:
        return 0
    if residue % p:
        return 1
    return 2


def closed_form_distance(u: int, v: int, t: PrimeTriple) -> int:
    """Graph distance as the sum of the three per-component costs."""
    _check_exponent(u, t)
    _check_exponent(v, t)
    d = (u - v) % t.n
    return sum(_component_cost(d % m, p) for p, m in zip(t.primes, t.moduli))


def closed_form_distance_table(t: PrimeTriple) -> list[int]:
    """table[d] = closed-form distance between any pair with difference d."""
    return [closed_form_distance(d, 0, t) for d in range(t.n)]


def closed_form_distance_classes(t: PrimeTriple, g: CayleyGraph) -> dict[int, int]:
    """E_k = {d : the closed-form distance of difference d is k}, as n-bit ints.

    The cost of d in each component depends only on d modulo that prime
    square, so E_k is the OR of A_x & B_y & C_z over x + y + z = k, where A_x
    is the periodic set of residues mod a² with cost x (B, C likewise).
    """
    return g.residue_classes(_component_cost, lambda x, y, z: x + y + z)


class DiameterResult(NamedTuple):
    value: int
    witness_pair: tuple[int, int]
    bfs_eccentricity: int


def diameter(t: PrimeTriple, g: CayleyGraph | None = None) -> DiameterResult:
    """Diameter 6, witnessed by a pair whose components are all congruent but
    unequal, and cross-checked by BFS eccentricity from vertex 0 (which equals
    the diameter by vertex transitivity)."""
    if g is None:
        g = CayleyGraph.from_triple(t)
    witness = crt_combine((t.alpha, t.beta, t.gamma), t)
    ecc = len(g.bfs_levels(0)) - 1
    return DiameterResult(closed_form_distance(0, witness, t), (0, witness), ecc)


# ---------------------------------------------------------------------------
# clique and coloring
# ---------------------------------------------------------------------------

def clique_certificate(t: PrimeTriple) -> tuple[int, ...]:
    """gamma pairwise-adjacent vertices (multiples of a²b² below gamma·a²b²)."""
    m_ab = t.m_alpha * t.m_beta
    return tuple(k * m_ab % t.n for k in range(t.gamma))


class ColoringResult(NamedTuple):
    proper: bool
    chromatic: int
    edges_checked: int


def verify_coloring(t: PrimeTriple, g: CayleyGraph) -> ColoringResult:
    """The residue-sum colouring of g, the graph of t, which gives v the
    colour (v mod a + v mod b + v mod c²) mod gamma, is proper: its classes
    partition the n vertices into at most gamma sets, and no class spans an
    edge, that is, each misses its own neighbourhood.  Every edge lies inside
    a class or between two, so this covers all n·|C|/2 edges.  The colour of
    v depends only on v mod a, b and c (v mod c² ≡ v mod c), so the classes
    are built from residues (`CayleyGraph.residue_classes`)."""
    classes = g.residue_classes(operator.mod, lambda x, y, z: (x + y + z) % t.gamma)
    proper = (
        len(classes) <= t.gamma
        and g.is_partition(classes.values())
        and not any(g.neighborhood(cls) & cls for cls in classes.values())
    )
    return ColoringResult(proper, t.gamma, t.n * g.degree // 2)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def independence_index_set(t: PrimeTriple) -> tuple[BlockId, ...]:
    """The a·b block ids (i, j, i+j mod c): no two agree in exactly two
    coordinates, so their blocks are mutually independent."""
    return tuple(
        BlockId(i, j, (i + j) % t.gamma) for i in range(t.alpha) for j in range(t.beta)
    )


class IndependenceCertificate(NamedTuple):
    """An independent set of a²b²c vertices: the union of the blocks indexed
    by `index_set`."""

    index_set: tuple[BlockId, ...]
    vertices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.vertices)


def independence_certificate(t: PrimeTriple) -> IndependenceCertificate:
    ids = independence_index_set(t)
    vertices: list[int] = []
    for bid in ids:
        vertices.extend(block_exponents(bid, t))
    vertices.sort()
    cert = IndependenceCertificate(ids, tuple(vertices))
    assert cert.size == t.m_alpha * t.m_beta * t.gamma
    return cert


class IndependenceScan(NamedTuple):
    internal_edges: int
    pairs_checked: int


def independence_internal_edges(cert: IndependenceCertificate, g: CayleyGraph) -> IndependenceScan:
    """Count edges inside the certificate set (must be zero), over all
    m(m−1)/2 vertex pairs."""
    m = len(cert.vertices)
    return IndependenceScan(g.internal_edges(g.bitset(cert.vertices)), m * (m - 1) // 2)


class IndexBoundsReport(NamedTuple):
    """Index-level evidence that the index graph's maximum independent set
    has exactly mis_size = a·b ids, one certificate per bound:

    - the certificate's index set never agrees in exactly two coordinates,
      so it is independent (MIS ≥ a·b);
    - the lines {(i, j, k) : k < c}, as many as the index set has ids, are
      index-graph cliques that partition the ids, and an independent set
      meets each line at most once (MIS ≤ a·b).
    """

    index_set_two_agreement_free: bool
    lines_cover_ids: bool
    mis_size: int


def verify_index_bounds(t: PrimeTriple) -> IndexBoundsReport:
    """Both index-level bounds, each checked over every pair it rests on, at
    every triple."""
    ig = IndexGraph(t)
    ids = independence_index_set(t)
    lines = [[BlockId(i, j, k) for k in range(t.gamma)] for i in range(t.alpha) for j in range(t.beta)]
    cover = (
        len(lines) == len(ids)
        and sorted(bid for line in lines for bid in line) == ig.ids()
        and all(ig.adjacent(x, y) for line in lines for x, y in combinations(line, 2))
    )
    two_free = not any(ig.adjacent(x, y) for x, y in combinations(ids, 2))
    return IndexBoundsReport(two_free, cover, len(ids))
