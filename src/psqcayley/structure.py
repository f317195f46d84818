"""Layer machinery of the graph: exponent-digit fibers, residue blocks, and
the index graph that governs which blocks see edges between them: its
vertices are the block ids (i, j, k) (`index_ids`), two of them adjacent
when they agree in exactly two coordinates (`index_adjacent`).

Exponents are written in the mixed radix x = i + j·a² + k·a²b² (digits i < a²,
j < b², k < c²), giving three fiber families (one per pinned digit).
Block (i, j, k) is {v : (v mod a, v mod b, v mod c) = (i, j, k)}, one residue
class modulo P = abc, so a union of blocks is held as its residues mod P,
each id mapped to its residue by the CRT (`block_residues`).  P divides n,
so block_of(v + c) = block_of(v) + block_of(c) (the residue lemma).  The
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
every block pair.  By the residue lemma N(B₀) is the union of the blocks of
the connectors, so the connectors' ids decide block adjacency in O(|C|).
The partition reads no connector: block 0's construction is P·Z_n iff the
CRT is injective on the box, that is, iff the moduli are pairwise coprime.
The gamma fibers are the translates of the interval [0, a²b²), so the
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
literal loops as the tests' references.  No check here builds an n-bit set
or runs over all abc block ids.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations, product
from math import gcd
from operator import eq

from .graph import CayleyGraph
from .group import PrimeTriple, crt_basis


def index_ids(t: PrimeTriple) -> list[tuple[int, int, int]]:
    """The block ids (i, j, k), i < a, j < b, k < c, in lexicographic order:
    the vertices of the index graph."""
    return list(product(*map(range, t.primes)))


def index_adjacent(x: tuple[int, int, int], y: tuple[int, int, int]) -> bool:
    """Two block ids are index-adjacent iff they agree in exactly two
    coordinates.  Adjacent ids are exactly the block pairs joined by an edge."""
    return sum(map(eq, x, y)) == 2


def block_residues(t: PrimeTriple, ids: Iterable[tuple[int, int, int]]) -> list[int]:
    """The union of the blocks with these ids as its residues, ascending: id
    (i, j, k) in the box is the residue i·e_a + j·e_b + k·e_c mod abc, with
    e the CRT basis, which is ≡ 1 mod one prime and ≡ 0 mod the other two."""
    period = t.alpha * t.beta * t.gamma
    e_a, e_b, e_c = crt_basis(t)
    return sorted({(i * e_a + j * e_b + k * e_c) % period for i, j, k in ids})


def verify_block_partition(g: CayleyGraph) -> bool:
    """The blocks partition the vertices, and each is the block that its
    component triples construct.

    Block (i, j, k) is constructed from the component triples (i + a·x,
    j + b·y, k + c·z), x < a, y < b, z < c, by the CRT: block 0's
    construction translated by crt(i, j, k).  Block 0's abc triples are
    multiples of (a, b, c), so they combine to multiples of abc, and the
    CRT is injective on the box iff the moduli are pairwise coprime: then
    block 0's construction is abc·Z_n, whose abc cosets partition V, each
    its residue block.
    """
    return all(gcd(x, y) == 1 for x, y in combinations(g.triple.moduli, 2))


def verify_block_adjacency(g: CayleyGraph) -> bool:
    """Cross-block edges exist exactly between index-adjacent ids.

    B_x and B_y are joined iff B_{y−x} meets N(B₀) (module docstring), so
    N(B₀) must meet block y exactly when y is index-adjacent to (0, 0, 0).
    By the residue lemma N(B₀) is the union of the blocks of the members, so
    their ids (x mod a, x mod b, x mod c) must be the a + b + c − 3 ids
    index-adjacent to (0, 0, 0): distinct ids of the box, each adjacent.
    """
    a, b, c = g.triple.primes
    ids = {(x % a, x % b, x % c) for x in g.members}
    return len(ids) == a + b + c - 3 and all(index_adjacent((0, 0, 0), x) for x in ids)


def verify_fiber_structure(g: CayleyGraph) -> dict[str, bool]:
    """The eight fiber statements, keyed by their roman numerals: i, ii, iii,
    vii and viii read C against arithmetic adjacency, and iv, v and vi are
    facts about Z_n, decided by their gcd lemmas (module docstring).

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

    return {
        "i": item_i, "ii": item_ii, "iii": item_iii, "iv": item_iv,
        "v": item_v, "vi": item_vi, "vii": item_vii, "viii": item_viii,
    }
