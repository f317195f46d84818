"""A Hamiltonian cycle for every triple, built by the product lemma and
checked as a lifted certificate.

By the CRT the graph is G_a □ G_b □ G_c with G_p = Cay(Z_{p²}, units): a
vertex is a component triple (x, y, z), x < a², y < b², z < c², and two
vertices are adjacent iff they differ in exactly one component, by a unit.
The lemma (Chen & Quimpo, On strongly Hamiltonian abelian group graphs,
LNM 884, 1981): if H has a Hamiltonian cycle h₀ … h_{N−1}, so does P_m □ H.
Start at (0, h₀); snake rows 0 … m−1 over h₁ … h_{N−1}, alternating direction;
step to (m−1, h₀), whose neighbours h₁ and h_{N−1} end every row; climb
column h₀ back to row 1, which is adjacent to the start.  Every step changes
one component by ±1, a unit of Z_{p²}, or moves along the cycle of H, so
every step is an edge.  Applied from the one-vertex walk [0] along c, then b,
then a, it gives a spanning cycle with endpoints (0, e_a) for every triple.

The last application is kept unexpanded: the certificate is the inner cycle
H on the b²c² vertices with a-component 0, the step e_a, the a² rows and n.
`verify_walk` decides the n-vertex walk from it without building the walk:

- H is a cycle of g both ways (`is_cycle` needs s and n − s in C for a
  step by s), because odd rows run H's tail backwards.  A row's steps are
  translates of these, and every translation is an automorphism (Godsil &
  Royle, GTM 207, §3.1), so every step inside a row is an edge;
- every other step -- from the head into row 0, from each row's end to the
  next row's start, into and along the climb column and back to the head --
  is a connector.  There are O(a²) of them, read from the row ends;
- the translates H + r·e_a, r < a², partition the vertices.  As a multiset
  they are exactly the walk's entries (the head and the climb column are
  the translates of h₀), so the walk visits every vertex once.  When the
  step has order a², the r·step are the subgroup d·Z_n, d = n/a², so they
  do iff |H| = d and the h mod d list Z_d once.

Together these make the walk a Hamiltonian cycle, and no check reads
`snake_walk`.
"""

from __future__ import annotations

from itertools import chain, islice
from math import gcd
from typing import Iterator, NamedTuple

from .graph import CayleyGraph
from .group import PrimeTriple, crt_basis

# the most entries one piece of a walk holds: a row of n/4 at a = 2 is split
PIECE_SIZE = 1 << 16


class WalkCertificate(NamedTuple):
    """The spanning cycle of the product lemma: the head inner[0], then rows
    r·step + tail(inner) for r < rows, even rows forwards and odd rows
    backwards, then the climb column r·step + inner[0] for r = rows−1 … 1,
    all modulo n."""

    inner: tuple[int, ...]
    step: int
    rows: int
    n: int

    @property
    def length(self) -> int:
        return self.rows * len(self.inner)

    @property
    def endpoints(self) -> tuple[int, int]:
        """The head, and the top of the climb column one step above it."""
        head = self.inner[0]
        return (head, (head + self.step) % self.n)

    def pieces(self) -> Iterator[list[int]]:
        """The walk in order, piece by piece: the head, each row in slices of
        at most PIECE_SIZE entries read from H in place, the climb."""
        n, step, inner = self.n, self.step, self.inner
        yield [inner[0]]
        for r in range(self.rows):
            shift = r * step
            run = islice(inner, 1, None) if r % 2 == 0 else islice(reversed(inner), len(inner) - 1)
            for _ in range(1, len(inner), PIECE_SIZE):
                yield [(shift + h) % n for h in islice(run, PIECE_SIZE)]
        yield [(r * step + inner[0]) % n for r in range(self.rows - 1, 0, -1)]


def snake_walk(t: PrimeTriple) -> WalkCertificate:
    """Construct the spanning cycle by the product lemma, along c and b in
    full, and lift the result along a as a certificate."""
    e_a, e_b, e_c = crt_basis(t)
    inner: tuple[int, ...] = (0,)
    for m, e in ((t.m_gamma, e_c), (t.m_beta, e_b)):
        inner = tuple(chain.from_iterable(WalkCertificate(inner, e, m, t.n).pieces()))
    return WalkCertificate(inner, e_a, t.m_alpha, t.n)


def _joints(w: WalkCertificate) -> Iterator[tuple[int, int]]:
    """Every step of the walk that is not inside a row, as (from, to)."""
    n, step, head = w.n, w.step, w.inner[0]
    prev = head
    for r in range(w.rows):
        first, last = (w.inner[1], w.inner[-1]) if r % 2 == 0 else (w.inner[-1], w.inner[1])
        yield prev, (r * step + first) % n
        prev = (r * step + last) % n
    for r in range(w.rows - 1, 0, -1):
        climb = (r * step + head) % n
        yield prev, climb
        prev = climb
    yield prev, head


def verify_walk(w: WalkCertificate, g: CayleyGraph) -> bool:
    """Check the lifted certificate against g: H is a cycle both ways, every
    joint is a connector, and the translates of H by the rows partition V:
    the step has order rows, and H lists each residue mod d = n/rows once."""
    n, d = g.triple.n, len(w.inner)
    if w.n != n or d * w.rows != n or n // gcd(w.step, n) != w.rows or not g.is_cycle(w.inner):
        return False
    connectors = g.connector_set
    if any((v - u) % n not in connectors for u, v in _joints(w)):
        return False
    marks = bytearray(d)
    for h in w.inner:
        marks[h % d] = 1
    return 0 not in marks


def walk_lines(w: WalkCertificate) -> Iterator[str]:
    """Export format: a 'cycle' header, then one chunk per piece of the walk
    with one exponent per line, in traversal order."""
    yield "cycle"
    for piece in w.pieces():
        # one %-format per piece runs faster than a str() per vertex
        yield "\n".join(["%d"] * len(piece)) % tuple(piece)
