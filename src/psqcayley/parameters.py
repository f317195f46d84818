"""Certified graph parameters: clique, chromatic, and independence numbers,
the closed-form distance, and the diameter.

Each parameter comes as an explicit certificate (a clique, a coloring, an
independent set, a witness pair) whose validity is re-checked against
arithmetic adjacency; brute-force counterparts live in `oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import CayleyGraph
from .group import PrimeTriple, _check_exponent, crt_combine
from .structure import BlockId, IndexGraph, block_exponents, index_graph


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

class DistanceProfile(NamedTuple):
    """Per-component hop cost: 0 equal, 1 non-congruent mod the prime,
    2 congruent mod the prime but unequal."""

    alpha_cost: int
    beta_cost: int
    gamma_cost: int

    @property
    def total(self) -> int:
        return self.alpha_cost + self.beta_cost + self.gamma_cost


def _component_cost(residue: int, p: int) -> int:
    # residue is the component difference reduced modulo p²
    if residue == 0:
        return 0
    if residue % p:
        return 1
    return 2


def distance_profile(u: int, v: int, t: PrimeTriple) -> DistanceProfile:
    _check_exponent(u, t)
    _check_exponent(v, t)
    d = (u - v) % t.n
    return DistanceProfile(
        _component_cost(d % t.m_alpha, t.alpha),
        _component_cost(d % t.m_beta, t.beta),
        _component_cost(d % t.m_gamma, t.gamma),
    )


def closed_form_distance(u: int, v: int, t: PrimeTriple) -> int:
    """Graph distance as the sum of the three per-component costs."""
    return distance_profile(u, v, t).total


def closed_form_distance_table(t: PrimeTriple) -> list[int]:
    """table[d] = closed-form distance between any pair with difference d."""
    table = [0] * t.n
    for d in range(1, t.n):
        table[d] = (
            _component_cost(d % t.m_alpha, t.alpha)
            + _component_cost(d % t.m_beta, t.beta)
            + _component_cost(d % t.m_gamma, t.gamma)
        )
    return table


def closed_form_distance_classes(t: PrimeTriple, g: CayleyGraph) -> dict[int, int]:
    """E_k = {d : the closed-form distance of difference d is k}, as n-bit ints.

    The cost of d in each component depends only on d modulo that prime
    square, so E_k is the OR of A_x & B_y & C_z over x + y + z = k, where A_x
    is the periodic set of residues mod a² with cost x (B, C likewise).
    """
    per_component = []
    for p, m in zip(t.primes, t.moduli):
        by_cost: dict[int, list[int]] = {}
        for r in range(m):
            by_cost.setdefault(_component_cost(r, p), []).append(r)
        per_component.append({x: g.periodic(m, rs) for x, rs in by_cost.items()})
    alpha, beta, gamma = per_component
    classes: dict[int, int] = {}
    for x, a_x in alpha.items():
        for y, b_y in beta.items():
            ab = a_x & b_y
            for z, c_z in gamma.items():
                classes[x + y + z] = classes.get(x + y + z, 0) | (ab & c_z)
    return classes


def two_prime_distance(a: int, b: int, x: int, y: int, alpha: int, beta: int) -> int:
    """Distance within a slice holding the third component fixed: the same
    component-cost rule on the remaining two coordinates (values 0..4)."""
    m_a, m_b = alpha * alpha, beta * beta
    for comp, m in ((a, m_a), (x, m_a), (b, m_b), (y, m_b)):
        if not 0 <= comp < m:
            raise ValueError(f"component {comp} out of range [0, {m})")
    return _component_cost((a - x) % m_a, alpha) + _component_cost((b - y) % m_b, beta)


@dataclass(frozen=True)
class DiameterResult:
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


def residue_sum_color(v: int, t: PrimeTriple) -> int:
    """Proper gamma-coloring: sum of the residues mod (a, b) — included into
    Z_gamma by the identity — plus the full c²-component, all modulo gamma."""
    _check_exponent(v, t)
    return (v % t.alpha + v % t.beta + v % t.m_gamma) % t.gamma


@dataclass(frozen=True)
class ColoringResult:
    proper: bool
    chromatic: int
    edges_checked: int
    exhaustive: bool


def verify_coloring(t: PrimeTriple) -> ColoringResult:
    """No edge may be monochromatic: each colour class must span no edge.
    Every edge lies inside a class or between two, so this covers all
    n·|C|/2 edges.  The colour is evaluated on every vertex; it repeats with
    period a·b·c², which is tested, so the classes are built from one period."""
    g = CayleyGraph.from_triple(t)
    colours = [residue_sum_color(v, t) for v in range(t.n)]
    classes = g.label_classes(colours, t.alpha * t.beta * t.m_gamma)
    proper = all(g.internal_edges(cls) == 0 for cls in classes.values())
    return ColoringResult(proper, t.gamma, t.n * g.degree // 2, True)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------

def independence_index_set(t: PrimeTriple) -> tuple[BlockId, ...]:
    """The a·b block ids (i, j, i+j mod c): no two agree in exactly two
    coordinates, so their blocks are mutually independent."""
    return tuple(
        BlockId(i, j, (i + j) % t.gamma) for i in range(t.alpha) for j in range(t.beta)
    )


@dataclass(frozen=True)
class IndependenceCertificate:
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


@dataclass(frozen=True)
class IndependenceScan:
    internal_edges: int
    pairs_checked: int
    exhaustive: bool


def independence_internal_edges(cert: IndependenceCertificate, g: CayleyGraph) -> IndependenceScan:
    """Count edges inside the certificate set (must be zero), over all
    m(m−1)/2 vertex pairs."""
    m = len(cert.vertices)
    return IndependenceScan(g.internal_edges(g.bitset(cert.vertices)), m * (m - 1) // 2, True)


@dataclass(frozen=True)
class IndexBoundsReport:
    """Index-level evidence for the independence number:

    - the certificate's index set never agrees in exactly two coordinates,
    - projecting it onto the first two coordinates is injective (so at most
      a·b ids can ever be touched by an independent set),
    - an exact search confirms the index graph's maximum independent set is
      exactly a·b,
    - the certificate meets the resulting a²b²c vertex-count bound exactly.
    """

    index_set_two_agreement_free: bool
    projection_injective: bool
    mis_size: int
    mis_matches_product: bool
    size_bound_met: bool


def verify_index_bounds(t: PrimeTriple, budget=None) -> IndexBoundsReport:
    from .oracles import OracleBudget, exact_max_independent_set

    if budget is None:
        budget = OracleBudget()
    ig: IndexGraph = index_graph(t)
    ids = independence_index_set(t)
    two_free = all(
        IndexGraph.agreement(ids[x], ids[y]) != 2
        for x in range(len(ids))
        for y in range(x + 1, len(ids))
    )
    projected = {(bid.i, bid.j) for bid in ids}
    injective = len(projected) == len(ids)
    mis = exact_max_independent_set(ig, budget)
    cert = independence_certificate(t)
    product = t.alpha * t.beta
    return IndexBoundsReport(
        two_free,
        injective,
        len(mis),
        len(mis) == product,
        cert.size == product * t.alpha * t.beta * t.gamma,
    )
