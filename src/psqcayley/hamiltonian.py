"""A Hamiltonian cycle for every triple, built by the product lemma.

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
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph import CayleyGraph
from .group import PrimeTriple, crt_basis


class WalkCertificate(NamedTuple):
    """A spanning cycle: every vertex exactly once, consecutive vertices
    adjacent, and the last vertex adjacent to the first."""

    vertices: tuple[int, ...]

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])


def snake_walk(t: PrimeTriple) -> WalkCertificate:
    """Construct the spanning cycle by the product lemma, along c, b, then a."""
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
    return WalkCertificate(tuple(cycle))


def verify_walk(w: WalkCertificate, g: CayleyGraph) -> bool:
    """Independent replay: the walk has one entry per vertex and is a cycle
    of g (`CayleyGraph.is_cycle`), so it visits every vertex once."""
    return len(w.vertices) == g.triple.n and g.is_cycle(w.vertices)


def walk_lines(w: WalkCertificate) -> Iterator[str]:
    """Export format: a 'cycle' header, then one exponent per line in
    traversal order."""
    yield "cycle"
    for v in w.vertices:
        yield str(v)
