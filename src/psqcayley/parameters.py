"""Certified graph parameters: clique, chromatic, and independence numbers,
the closed-form distance, and the diameter.

Each parameter comes as an explicit certificate (a clique, a coloring, an
independent set, a witness pair) whose validity is re-checked against
arithmetic adjacency; brute-force counterparts live in `oracles`.

Colour class 0 and the independence certificate are unions of residue
blocks, held as their residues mod abc (`structure`).  One count gives the
edges inside either (`_residue_edges`), and one tiling by the clique K
(`clique_tiles`) partitions V for both the colouring and α ≤ n/c.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import NamedTuple, Sequence

from .graph import CayleyGraph
from .group import PrimeTriple, _check_exponent, crt_combine
from .structure import block_residues, index_adjacent


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


class DiameterResult(NamedTuple):
    value: int
    witness_pair: tuple[int, int]
    bfs_eccentricity: int


def diameter(t: PrimeTriple, g: CayleyGraph) -> DiameterResult:
    """Diameter 6, witnessed by a pair whose components are all congruent but
    unequal, and cross-checked by BFS eccentricity from vertex 0 of g, the
    graph of t (which equals the diameter by vertex transitivity)."""
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


def clique_tiles(t: PrimeTriple, clique: Sequence[int]) -> bool:
    """The translates x + K, x in S₀ = {v : v mod c·a²b² < a²b²}, partition V
    if K is c multiples of a²b² distinct mod c·a²b²: mod c·a²b², S₀ is the
    interval [0, a²b²) and K steps it once round."""
    m_ab = t.m_alpha * t.m_beta
    return len(clique) == len({k // m_ab % t.gamma for k in clique if k % m_ab == 0}) == t.gamma


def _residue_edges(g: CayleyGraph, residues: Sequence[int], period: int) -> int:
    """The edges of g inside {v : v mod period in R}: each edge {v, v + d}, d
    over the distinct nonzero ±c (c in C), is counted at both ends and the
    total halved, so C need not be symmetric or free of n/2.  Per period, the
    d grouped by residue, the ends are Σ_d |{r in R : (r + d) mod period in R}|."""
    n, inside = g.triple.n, set(residues)
    steps = Counter(d % period for d in {x % n for c in g.members for x in (c, -c)} - {0})
    ends = sum(k * sum((r + d) % period in inside for r in inside) for d, k in steps.items())
    return n // period * ends // 2


class ColoringResult(NamedTuple):
    proper: bool
    chromatic: int
    edges_checked: int


def verify_coloring(t: PrimeTriple, g: CayleyGraph) -> ColoringResult:
    """The residue-sum colouring of g, the graph of t, which gives v the
    colour (v mod a + v mod b + v mod c) mod gamma, is proper with at most
    gamma classes.

    Class 0 is the union of the a·b blocks (i, j, −(i + j) mod gamma), one
    per (i, j).  The classes are its rotations by the clique certificate K:
    the translation by k·a²b² fixes v mod a and v mod b and adds k·a²b² to
    the colour, and a²b² is a unit mod gamma.
    Translations are automorphisms, so the colouring is proper iff class 0
    has no edge inside and its rotations by K partition V.  A tiling K
    (`clique_tiles`) is the order-c subgroup ab·Z_P mod P = abc, so they do
    iff class 0's residues are a·b distinct mod ab.  Every edge lies inside
    a class or between two, so this covers all n·|C|/2 edges.
    """
    ab, clique = t.alpha * t.beta, clique_certificate(t)
    zero = block_residues(t, [(i, j, -(i + j) % t.gamma) for i in range(t.alpha) for j in range(t.beta)])
    proper = (
        clique_tiles(t, clique)
        and len(zero) == len({r % ab for r in zero}) == ab
        and _residue_edges(g, zero, ab * t.gamma) == 0
    )
    return ColoringResult(proper, t.gamma, t.n * g.degree // 2)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def independence_index_set(t: PrimeTriple) -> tuple[tuple[int, int, int], ...]:
    """The a·b block ids (i, j, i+j mod c): no two agree in exactly two
    coordinates, so their blocks are mutually independent."""
    return tuple((i, j, (i + j) % t.gamma) for i in range(t.alpha) for j in range(t.beta))


class IndependenceCertificate(NamedTuple):
    """An independent set of a²b²c vertices: the union of the blocks indexed
    by `index_set`, {v : v mod period in residues}, with period = abc = n/abc."""

    index_set: tuple[tuple[int, int, int], ...]
    residues: tuple[int, ...]
    period: int

    @property
    def size(self) -> int:
        return len(self.residues) * self.period


def independence_certificate(t: PrimeTriple) -> IndependenceCertificate:
    """The union of the blocks of the index set, {v : (v mod a, v mod b,
    v mod c) in it}, as its residues mod abc."""
    ids = independence_index_set(t)
    cert = IndependenceCertificate(ids, tuple(block_residues(t, ids)), t.alpha * t.beta * t.gamma)
    assert cert.size == t.m_alpha * t.m_beta * t.gamma
    return cert


class IndependenceScan(NamedTuple):
    internal_edges: int
    pairs_checked: int


def independence_internal_edges(cert: IndependenceCertificate, g: CayleyGraph) -> IndependenceScan:
    """Count the edges inside the certificate set (must be zero), over all
    m(m−1)/2 vertex pairs (`_residue_edges`)."""
    m = cert.size
    return IndependenceScan(_residue_edges(g, cert.residues, cert.period), m * (m - 1) // 2)


class IndexBoundsReport(NamedTuple):
    """Index-level evidence that the index graph's maximum independent set
    has exactly mis_size = a·b ids, one certificate per bound:

    - the certificate's index set never agrees in exactly two coordinates,
      so it is independent (MIS ≥ a·b): its three two-coordinate
      projections are injective, so any two ids agree in one at most;
    - the a·b lines {(i, j, k) : k < c}, i < a and j < b, which list the
      box a × b × c of ids one after another, are index-graph cliques, and
      an independent set meets each line at most once (MIS ≤ a·b); the
      bound meets the index set when it has as many ids as there are lines.
    """

    index_set_two_agreement_free: bool
    lines_cover_ids: bool
    mis_size: int


def verify_index_bounds(t: PrimeTriple) -> IndexBoundsReport:
    """Both index-level bounds, at every triple, in O(ab + c²) steps.  The
    lines list the box by construction, so the cover reads no id.  Line
    (i, j) is line (0, 0) translated by (i, j, 0), and translations preserve
    agreeing in exactly two coordinates, so line (0, 0)'s pairs decide that
    every line is a clique."""
    a, b, c = t.primes
    ids = independence_index_set(t)
    two_free = all(len({(x[u], x[v]) for x in ids}) == len(ids) for u, v in ((0, 1), (0, 2), (1, 2)))
    line = [(0, 0, k) for k in range(c)]
    cover = a * b == len(ids) and all(index_adjacent(x, y) for x, y in combinations(line, 2))
    return IndexBoundsReport(two_free, cover, len(ids))
