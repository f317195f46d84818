"""Certified graph parameters: clique, chromatic, and independence numbers,
the closed-form distance, and the diameter.

Each parameter comes as an explicit certificate (a clique, a coloring, an
independent set, a witness pair) whose validity is re-checked against
arithmetic adjacency; brute-force counterparts live in `oracles`.

Colour class 0 is the independence certificate, a union of residue blocks
held as its residues mod abc (`structure`).  One count gives the edges
inside it and in the graph (`_residue_edges`), and one tiling by the clique
K (`clique_tiles`) partitions V for both the colouring and α ≤ n/c; the
verdicts build none of their inputs, which `report.certify` passes in.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from itertools import combinations

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


DiameterResult = namedtuple("DiameterResult", "value witness_pair bfs_eccentricity")


def diameter(t: PrimeTriple, g: CayleyGraph) -> DiameterResult:
    """Diameter 6, witnessed by a pair whose components are all congruent but
    unequal, and cross-checked by BFS eccentricity from vertex 0 of g, the
    graph of t (which equals the diameter by vertex transitivity)."""
    witness = crt_combine((t.alpha, t.beta, t.gamma), t)
    ecc = len(g.levels_from_zero) - 1
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


def _residue_edges(g: CayleyGraph, residues: Sequence[int]) -> tuple[int, int]:
    """The edges of g inside {v : v mod abc in R}, and all n·|S|/2 edges of
    g, S the distinct nonzero steps ±c (c in C): each edge {v, v + d}, d in
    S, is counted at both ends and the total halved, so C need not be
    symmetric or free of n/2.  Per period abc, with S grouped by d mod abc
    in one census, the ends are Σ_d |{r in R : (r + d) mod abc in R}|."""
    n, (a, b, c) = g.triple.n, g.triple.primes
    period, inside = a * b * c, set(residues)
    steps = {x % n for m in g.members if m % n for x in (m, -m)}
    census = Counter(d % period for d in steps)
    ends = sum(k * sum((r + d) % period in inside for r in inside) for d, k in census.items())
    return n // period * ends // 2, n * len(steps) // 2


ColoringResult = namedtuple("ColoringResult", "proper tiles edges_checked")


def verify_coloring(
    t: PrimeTriple, cert: IndependenceCertificate, scan: IndependenceScan, clique: Sequence[int]
) -> ColoringResult:
    """The colouring v ↦ (v mod c − v mod a − v mod b) mod c of the graph of
    t (c = gamma), which has c classes, is proper; `tiles` is the verdict
    that the clique K tiles V (`clique_tiles`), which α ≤ n/c reads too.

    Class 0, {v : v mod c ≡ v mod a + v mod b}, is the independence
    certificate `cert`, and `scan` counts its internal edges and the edges
    of the graph.  The classes are its rotations by the clique certificate
    K, `clique`: the translation by k·a²b² fixes v mod a and v mod b and
    adds k·a²b² to the colour, and a²b² is a unit mod c.  Translations are
    automorphisms, so the colouring is proper iff class 0 has no edge inside
    and its rotations by K partition V.  A tiling K (`clique_tiles`) is the
    order-c subgroup ab·Z_P mod P = abc, so they do iff class 0's residues
    are a·b distinct mod ab.  Every edge lies inside a class or between two,
    so this covers all n·|S|/2 edges, S = ±C ∖ {0}.
    """
    ab, zero = t.alpha * t.beta, cert.residues
    transversal = len(zero) == len({r % ab for r in zero}) == ab
    tiles = clique_tiles(t, clique)
    return ColoringResult(tiles and transversal and scan.internal_edges == 0, tiles, scan.graph_edges)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def independence_index_set(t: PrimeTriple) -> tuple[tuple[int, int, int], ...]:
    """The a·b block ids (i, j, i+j mod c): no two agree in exactly two
    coordinates, so their blocks are mutually independent."""
    return tuple((i, j, (i + j) % t.gamma) for i in range(t.alpha) for j in range(t.beta))


class IndependenceCertificate(namedtuple("IndependenceCertificate", "index_set residues period")):
    """An independent set of a²b²c vertices: the union of the blocks indexed
    by `index_set`, {v : v mod period in residues}, with period = abc = n/abc."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.residues) * self.period


def independence_certificate(t: PrimeTriple) -> IndependenceCertificate:
    """The union of the blocks of the index set, {v : (v mod a, v mod b,
    v mod c) in it}, as its residues mod abc."""
    ids = independence_index_set(t)
    return IndependenceCertificate(ids, tuple(block_residues(t, ids)), t.alpha * t.beta * t.gamma)


IndependenceScan = namedtuple("IndependenceScan", "internal_edges graph_edges pairs_checked")


def independence_internal_edges(cert: IndependenceCertificate, g: CayleyGraph) -> IndependenceScan:
    """Count the edges inside the certificate set (must be zero), over all
    m(m−1)/2 vertex pairs, and the edges of g (`_residue_edges`)."""
    m = cert.size
    return IndependenceScan(*_residue_edges(g, cert.residues), m * (m - 1) // 2)


# Index-level evidence that the index graph's maximum independent set has
# exactly a·b ids, the size of the index set, one certificate per bound:
#
# - the certificate's index set never agrees in exactly two coordinates, so
#   it is independent (MIS ≥ a·b): its three two-coordinate projections are
#   injective, so any two ids agree in one at most;
# - the a·b lines {(i, j, k) : k < c}, i < a and j < b, which list the box
#   a × b × c of ids one after another, are index-graph cliques, and an
#   independent set meets each line at most once (MIS ≤ a·b); the bound
#   meets the index set when it has as many ids as there are lines.
IndexBoundsReport = namedtuple("IndexBoundsReport", "index_set_two_agreement_free lines_cover_ids")


def verify_index_bounds(t: PrimeTriple, ids: Sequence[tuple[int, int, int]]) -> IndexBoundsReport:
    """Both index-level bounds on the certificate's index set `ids`, at every
    triple, in O(ab + c²) steps.  The lines list the box by construction, so
    the cover reads no id.  Line (i, j) is line (0, 0) translated by
    (i, j, 0), and translations preserve agreeing in exactly two
    coordinates, so line (0, 0)'s pairs decide that every line is a clique."""
    a, b, c = t.primes
    two_free = all(len({(x[u], x[v]) for x in ids}) == len(ids) for u, v in ((0, 1), (0, 2), (1, 2)))
    line = [(0, 0, k) for k in range(c)]
    cover = a * b == len(ids) and all(index_adjacent(x, y) for x, y in combinations(line, 2))
    return IndexBoundsReport(two_free, cover)
