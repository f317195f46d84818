"""Layer machinery of the graph: exponent-digit fibers, residue blocks, and
the index graph that governs which blocks see edges between them.

Exponents are written in the mixed radix x = i + j·a² + k·a²b² (digits i < a²,
j < b², k < c²), giving three fiber families (one per pinned digit).
Blocks collect the a·b·c vertices whose residue components agree modulo
(a, b, c); they partition the vertex set and are always independent.
All verifiers here check the literal claims against arithmetic adjacency,
independently of the constructors that produced the objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graph import CayleyGraph, DEFAULT_MATERIALIZE_CAP, TooLargeError
from .group import PrimeTriple, crt_basis


class FiberId(NamedTuple):
    axis: str  # "alpha" | "beta" | "gamma": which exponent digit is pinned
    index: int


class BlockId(NamedTuple):
    i: int
    j: int
    k: int


def fiber_members(fid: FiberId, t: PrimeTriple) -> list[int]:
    """All exponents whose pinned mixed-radix digit equals fid.index."""
    m_a, m_b, m_c = t.moduli
    m_ab = m_a * m_b
    r = fid.index
    if fid.axis == "alpha":
        if not 0 <= r < m_a:
            raise ValueError(f"alpha fiber index {r} out of range [0, {m_a})")
        return [r + j * m_a + k * m_ab for j in range(m_b) for k in range(m_c)]
    if fid.axis == "beta":
        if not 0 <= r < m_b:
            raise ValueError(f"beta fiber index {r} out of range [0, {m_b})")
        return [i + r * m_a + k * m_ab for i in range(m_a) for k in range(m_c)]
    if fid.axis == "gamma":
        if not 0 <= r < m_c:
            raise ValueError(f"gamma fiber index {r} out of range [0, {m_c})")
        return [i + j * m_a + r * m_ab for i in range(m_a) for j in range(m_b)]
    raise ValueError(f"unknown fiber axis {fid.axis!r}")


def _check_block_id(b: BlockId, t: PrimeTriple) -> None:
    for r, p in zip(b, t.primes):
        if not 0 <= r < p:
            raise ValueError(f"block index {tuple(b)} out of range for primes {t.primes}")


def block_members(b: BlockId, t: PrimeTriple) -> list[tuple[int, int, int]]:
    """The a·b·c component triples (i+ax, j+by, k+cz); always an independent set."""
    _check_block_id(b, t)
    a, bb, c = t.primes
    return [
        (b.i + a * x, b.j + bb * y, b.k + c * z)
        for x in range(a)
        for y in range(bb)
        for z in range(c)
    ]


def block_exponents(b: BlockId, t: PrimeTriple) -> list[int]:
    """Block members converted to exponents, sorted ascending."""
    e_a, e_b, e_c = crt_basis(t)
    n = t.n
    return sorted(
        (ga * e_a + gb * e_b + gc * e_c) % n for ga, gb, gc in block_members(b, t)
    )


def block_of(v: int, t: PrimeTriple) -> BlockId:
    """Residue projection assigning every vertex to its block."""
    return BlockId(v % t.alpha, v % t.beta, v % t.gamma)


@dataclass(frozen=True)
class IndexGraph:
    """Graph on block ids; two ids are adjacent iff they agree in exactly two
    coordinates.  Adjacent ids are exactly the block pairs joined by an edge."""

    triple: PrimeTriple

    @property
    def order(self) -> int:
        a, b, c = self.triple.primes
        return a * b * c

    def ids(self) -> list[BlockId]:
        a, b, c = self.triple.primes
        return [BlockId(i, j, k) for i in range(a) for j in range(b) for k in range(c)]

    @staticmethod
    def agreement(x: BlockId, y: BlockId) -> int:
        return (x.i == y.i) + (x.j == y.j) + (x.k == y.k)

    def adjacent(self, x: BlockId, y: BlockId) -> bool:
        return self.agreement(x, y) == 2


def index_graph(t: PrimeTriple) -> IndexGraph:
    return IndexGraph(t)


def _require_within_cap(t: PrimeTriple, cap: int) -> None:
    if t.n > cap:
        raise TooLargeError(f"{t.n} vertices exceed cap {cap}")


def _projected_blocks(t: PrimeTriple, g: CayleyGraph) -> dict[BlockId, int]:
    """Every vertex gathered into its block by the residue projection, each
    block as an n-bit int (built from one period abc when block_of repeats
    with it, which is tested on every vertex)."""
    a, b, c = t.primes
    return g.label_classes([block_of(v, t) for v in range(t.n)], a * b * c)


def verify_block_partition(t: PrimeTriple, cap: int = DEFAULT_MATERIALIZE_CAP) -> bool:
    """Blocks are pairwise disjoint, cover all n vertices, and the residue
    projection lands every vertex in the block that constructs it."""
    _require_within_cap(t, cap)
    g = CayleyGraph.from_triple(t)
    a, b, c = t.primes
    size = a * b * c
    blocks = _projected_blocks(t, g)
    if len(blocks) != size:
        return False
    for bid, assigned in blocks.items():
        if assigned.bit_count() != size:
            return False
        if g.bitset(block_exponents(bid, t)) != assigned:
            return False
    return True


def verify_block_adjacency(t: PrimeTriple, cap: int = DEFAULT_MATERIALIZE_CAP) -> bool:
    """Cross-block edges exist exactly between index-graph-adjacent ids.

    Blocks are gathered by residue projection; for each block B_x the
    neighbourhood N(B_x) must miss B_x itself and meet B_y exactly when x and
    y are index-adjacent, which covers every edge of the graph.
    """
    _require_within_cap(t, cap)
    g = CayleyGraph.from_triple(t)
    ig = index_graph(t)
    ids = ig.ids()
    projected = _projected_blocks(t, g)
    if projected.keys() != set(ids):
        return False  # a vertex projected outside the index set
    blocks = [projected[bid] for bid in ids]
    for x, bx in enumerate(ids):
        reach = g.neighborhood(blocks[x])
        if reach & blocks[x]:
            return False  # an edge inside a block
        for y in range(x + 1, len(ids)):
            if bool(reach & blocks[y]) != ig.adjacent(bx, ids[y]):
                return False
    return True


@dataclass(frozen=True)
class FiberStructureChecklist:
    """Eight literal checks on the fiber families (roman order i..viii):

    i     every gamma fiber is an independent set
    ii    inside one (alpha, beta) cell, adjacency holds iff the top digits
          fall in different residue classes modulo gamma
    iii   every (alpha, beta) cell carries a spanning cycle stepping by a²b²
    iv    the nonzero multiples of c² meet every nonidentity cell exactly once
    v     each shifted b²-order coset lies inside a single alpha fiber
    vi    the multiples of b²c² meet every alpha fiber exactly once
    vii   those a² representatives form a cycle
    viii  per alpha fiber, stepping by a²c² gives a cycle crossing every beta
          fiber exactly once
    """

    gamma_fibers_independent: bool
    cell_adjacency_rule: bool
    cell_cycles: bool
    gamma_square_multiples_singletons: bool
    shifted_cosets_within_alpha_fibers: bool
    alpha_fiber_representatives_unique: bool
    representatives_cycle: bool
    cross_section_cycles: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "i": self.gamma_fibers_independent,
            "ii": self.cell_adjacency_rule,
            "iii": self.cell_cycles,
            "iv": self.gamma_square_multiples_singletons,
            "v": self.shifted_cosets_within_alpha_fibers,
            "vi": self.alpha_fiber_representatives_unique,
            "vii": self.representatives_cycle,
            "viii": self.cross_section_cycles,
        }

    @property
    def all_pass(self) -> bool:
        return all(self.as_dict().values())


def _is_cycle(seq: list[int], g: CayleyGraph) -> bool:
    """seq holds distinct vertices, each adjacent to the next and the last to
    the first (every entry is a vertex by construction)."""
    if len(seq) < 3 or len(set(seq)) != len(seq):
        return False
    n = g.triple.n
    connectors = g.connector_set
    return all((y - x) % n in connectors for x, y in zip(seq, seq[1:] + seq[:1]))


def verify_fiber_structure(
    t: PrimeTriple, cap: int = DEFAULT_MATERIALIZE_CAP
) -> FiberStructureChecklist:
    """Check all eight fiber statements literally against arithmetic adjacency."""
    _require_within_cap(t, cap)
    g = CayleyGraph.from_triple(t)
    m_a, m_b, m_c = t.moduli
    m_ab = m_a * m_b
    gamma = t.gamma
    n = t.n

    # (i) no edge stays inside one gamma fiber, the interval [k·a²b², (k+1)·a²b²)
    fiber = (1 << m_ab) - 1
    item_i = all(g.internal_edges(fiber << (k * m_ab)) == 0 for k in range(m_c))

    # (ii) within a cell, adjacency <=> top digits differ modulo gamma, over
    # every pair of every cell; the cell of r + s·a² (r < a², s < b²) is
    # {base + k·a²b² : k < c²} with base = r + s·a² running over [0, a²b²)
    connectors = g.connector_set
    rule = [dk % gamma != 0 for dk in range(m_c)]  # rule[k2 − k1]
    item_ii = True
    for base in range(m_ab):
        cell = range(base, n, m_ab)
        for k1, x in enumerate(cell):
            if [(y - x) % n in connectors for y in cell[k1 + 1 :]] != rule[1 : m_c - k1]:
                item_ii = False
    # (iii) explicit cell cycles, re-verified edge by edge
    item_iii = all(
        _is_cycle([r + s * m_a + k * m_ab for k in range(m_c)], g)
        for r in range(m_a)
        for s in range(m_b)
    )

    # (iv) nonzero multiples of c² hit every cell except (0, 0) exactly once
    hits: dict[tuple[int, int], int] = {}
    for k in range(1, m_ab):
        x = k * m_c
        cell = (x % m_a, (x % m_ab) // m_a)
        hits[cell] = hits.get(cell, 0) + 1
    item_iv = (0, 0) not in hits and all(
        hits.get((r, s)) == 1 for r in range(m_a) for s in range(m_b) if (r, s) != (0, 0)
    )

    # (v) shifted coset {k·a²c² + r·c²} stays inside the alpha fiber r
    item_v = all(
        (k * m_a * m_c + r * m_c) % m_a == r for r in range(m_a) for k in range(m_b)
    )

    # (vi) multiples of b²c² meet each alpha fiber exactly once
    reps: dict[int, list[int]] = {}
    for k in range(m_a):
        x = k * m_b * m_c % n
        reps.setdefault(x % m_a, []).append(x)
    item_vi = len(reps) == m_a and all(len(v) == 1 for v in reps.values())

    # (vii) the representatives, in exponent order, form a cycle
    item_vii = _is_cycle(sorted(x for xs in reps.values() for x in xs), g)

    # (viii) per alpha fiber: stepping by a²c² from the representative builds a
    # cycle that crosses each beta fiber exactly once
    item_viii = item_vi
    if item_vi:
        for r in range(m_a):
            rep = reps[r][0]
            seq = [(rep + l * m_a * m_c) % n for l in range(m_b)]
            if any(x % m_a != r for x in seq):
                item_viii = False
                break
            beta_digits = {(x % m_ab) // m_a for x in seq}
            if beta_digits != set(range(m_b)) or not _is_cycle(seq, g):
                item_viii = False
                break

    return FiberStructureChecklist(
        item_i, item_ii, item_iii, item_iv, item_v, item_vi, item_vii, item_viii
    )
