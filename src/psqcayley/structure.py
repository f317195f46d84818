"""Layer machinery of the graph: exponent-digit fibers, residue blocks, and
the index graph that governs which blocks see edges between them: its
vertices are the block ids (i, j, k) (`index_ids`), two of them adjacent
when they agree in exactly two coordinates (`index_adjacent`).

Exponents are written in the mixed radix x = i + j·a² + k·a²b² (digits i < a²,
j < b², k < c²), giving three fiber families (one per pinned digit).
Block (i, j, k) is {v : (v mod a, v mod b, v mod c) = (i, j, k)}, one residue
class modulo P = abc, so a union of blocks is held as its residues mod P
(`block_residues`).  P divides n, so block_of(v + c) = block_of(v) +
block_of(c) (the residue lemma): the translate of the union R by c is
R + (c mod P), and every block check is decided on residues mod P.  The
blocks partition the vertex set and are always independent.  The verifiers
check the claims that read C against arithmetic adjacency, independently of
the constructors that produced the objects; the cycle claims (fiber checks
iii, vii and viii) go through `CayleyGraph.is_step_cycle`, once each.

The block checks and fiber check (i) are claims about every set of a
family of translates, and in a Cayley graph on Z_n every translation
x ↦ x + s is an automorphism, so each is decided on one representative.  The
blocks are the translates of B₀ = P·Z_n: translating by a vertex with
residues x carries B_y onto B_{x+y} and N(B_y) onto N(B_{x+y}), and index
agreement depends only on the difference of two ids, so N(B₀) alone decides
every block pair, and block 0's construction decides the partition.  The
gamma fibers are the translates of the interval [0, a²b²), so the
connectors decide fiber check (i).

Each cycle claim steps by one element s: x, x + s, …, x + (L − 1)·s, closed
by s back to x.  Its entries are distinct iff s has order at least L, the
closing step is s iff L·s ≡ 0, and every step, either way, is an edge iff s
and −s are connectors; so the sequence is a cycle for every x iff L ≥ 3, s
has order exactly L and ±s ∈ C.  The (alpha, beta) cells of check (iii)
step by a²b² with L = c², the representatives of check (vii) by b²c² with
L = a², and the a² cross-section sequences of check (viii) by a²c² with
L = b², so one step rule decides each claim for every cell or fiber at
once.  Fiber checks (iv), (v), (vi) and (viii)'s crossings read no
connector: they are facts about Z_n, each decided by its gcd lemma, with the
literal loops as the tests' references.  No check here builds an n-bit set.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import eq
from typing import Iterable, NamedTuple

from .graph import CayleyGraph
from .group import PrimeTriple, crt_combine


def index_ids(t: PrimeTriple) -> list[tuple[int, int, int]]:
    """The block ids (i, j, k), i < a, j < b, k < c, in lexicographic order:
    the vertices of the index graph."""
    return list(product(*map(range, t.primes)))


def index_adjacent(x: tuple[int, int, int], y: tuple[int, int, int]) -> bool:
    """Two block ids are index-adjacent iff they agree in exactly two
    coordinates.  Adjacent ids are exactly the block pairs joined by an edge."""
    return sum(map(eq, x, y)) == 2


def block_residues(t: PrimeTriple, ids: Iterable[tuple[int, int, int]]) -> list[int]:
    """The union of the blocks with these ids as its residues, ascending: the
    r < abc with (r mod a, r mod b, r mod c) in ids."""
    a, b, c = t.primes
    chosen = set(ids)
    return [r for r in range(a * b * c) if (r % a, r % b, r % c) in chosen]


def verify_block_partition(g: CayleyGraph) -> bool:
    """The blocks partition the vertices, and each is the block that its
    component triples construct.

    Block (i, j, k) is constructed from the component triples (i + a·x,
    j + b·y, k + c·z), x < a, y < b, z < c, by the CRT: block 0's
    construction translated by crt(i, j, k).  So the check passes iff block
    0's construction, sorted, is range(0, n, abc) = abc·Z_n, whose abc
    cosets partition V, each its residue block.
    """
    t = g.triple
    a, b, c = t.primes
    block0 = (crt_combine((a * x, b * y, c * z), t) for x in range(a) for y in range(b) for z in range(c))
    return sorted(block0) == list(range(0, t.n, a * b * c))


def verify_block_adjacency(g: CayleyGraph) -> bool:
    """Cross-block edges exist exactly between index-adjacent ids.

    B_x and B_y are joined iff B_{y−x} meets N(B₀) (module docstring), so
    N(B₀) must meet block y exactly when y is index-adjacent to (0, 0, 0).
    By the residue lemma N(B₀) has the residues (r + c) mod abc, r in B₀ and
    c in C: they must be those of the index-adjacent blocks.
    """
    t, origin = g.triple, (0, 0, 0)
    period = t.alpha * t.beta * t.gamma
    reach = {(r + x) % period for r in block_residues(t, [origin]) for x in g.members}
    return reach == set(block_residues(t, [x for x in index_ids(t) if index_adjacent(origin, x)]))


class FiberStructureChecklist(NamedTuple):
    """Eight checks on the fiber families (roman order i..viii); i, ii, iii,
    vii and viii read the connectors, iv, v and vi are facts about Z_n:

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


def verify_fiber_structure(g: CayleyGraph) -> FiberStructureChecklist:
    """Check all eight fiber statements: those that read C against
    arithmetic adjacency, the others by their gcd lemmas (module docstring)."""
    t = g.triple
    m_a, m_b, m_c = t.moduli
    m_ab, n = m_a * m_b, t.n

    # (i) no edge stays inside one gamma fiber, the interval [k·a²b², (k+1)·a²b²);
    # the fibers are the translates of fiber 0, whose vertices differ by less
    # than a²b² either way: it holds an edge iff a connector lies in (0, a²b²)
    # or (n − a²b², n)
    item_i = all(m_ab <= x <= n - m_ab for x in g.members)

    # (ii) within a cell, adjacency <=> top digits differ modulo gamma; the
    # cell of r + s·a² (r < a², s < b²) is {base + k·a²b² : k < c²}, so every
    # in-cell pair differs by dk·a²b² with 0 < dk < c², and adjacency depends
    # only on that difference: it holds iff the tops dk of the members dk·a²b²
    # in (0, n) are the c² − c values in (0, c²) that gamma does not divide
    tops = {x // m_ab for x in g.members if 0 < x < n and x % m_ab == 0}
    item_ii = len(tops) == m_c - t.gamma and all(k % t.gamma for k in tops)

    # (iii) the cycle of cell r + s·a², base + k·a²b² (k < c²), is the
    # translate of cell 0's, which steps by a²b², so one step rule decides all
    item_iii = g.is_step_cycle(m_ab, m_c)

    # (iv) k·c² lies in cell k·c² mod a²b², so the nonzero multiples meet
    # each nonidentity cell once iff k ↦ k·c² permutes Z_{a²b²}
    item_iv = gcd(m_c, m_ab) == 1

    # (v) the coset {k·a²c² + r·c² : k < b²} steps by a²c², a multiple of a²,
    # so its members share the residue r·c² modulo a²: one alpha fiber
    item_v = m_a * m_c % m_a == 0

    # (vi) k·b²c² (k < a²) lies in alpha fiber k·b²c² mod a², so each fiber
    # holds one iff k ↦ k·b²c² permutes Z_{a²}; (vii) they step by b²c²
    item_vi = gcd(m_b * m_c, m_a) == 1
    item_vii = g.is_step_cycle(m_b * m_c, m_a)

    # (viii) from fiber r's representative r + s·a², each step by a²c² keeps
    # the residue r and adds c² to the beta digit s mod b², so the b² steps
    # cross every beta fiber once iff gcd(c², b²) = 1; one step rule for all
    item_viii = item_vi and gcd(m_c, m_b) == 1 and g.is_step_cycle(m_a * m_c, m_b)

    return FiberStructureChecklist(
        item_i, item_ii, item_iii, item_iv, item_v, item_vi, item_vii, item_viii
    )
