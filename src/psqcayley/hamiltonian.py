"""A Hamiltonian cycle for every triple, built by the product lemma and
checked level by level.

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

The certificate is the lemma's own data: one level (step, rows) per
application, ((e_c, c²), (e_b, b²), (e_a, a²)), and n.  No vertex sequence
is stored.  `verify_walk` decides the n-vertex walk from the levels alone:

- each level's step s has order exactly its rows, at least 3, and s and −s
  are both connectors (`CayleyGraph.is_step_cycle`); fewer than 3 rows
  would let the identity level (0, 1) lift a walk to itself;
- each level's rows are coprime to the product of the rows below it, which
  is n at the top.  The walk below level k covers the subgroup ⊕_{j<k}⟨s_j⟩
  once, and that subgroup meets each coset of ⟨s_k⟩ once iff the orders are
  coprime, so the rows of every level are disjoint translates and the walk
  visits every vertex once.

Level k lifts a walk W with head 0, second entry w₁ and last entry w_last,
and each of its steps is one of four kinds: +s, from a row's end to the next
row's start; −s, along the climb column and back to the head; a step of W
itself, from the head into row 0 by w₁ and onto the climb by −w₁ or −w_last
(the last row ends at (rows − 1)·s + w₁ or + w_last); and, inside a row, a
translate of a step of W, walked forwards or, in odd rows, backwards.  Every
translation is an automorphism (Godsil & Royle, GTM 207, §3.1), so with the
level below already checked both ways, level k is a cycle iff ±s ∈ C.  From
the one-vertex walk [0] every step is −s, so the first level is the cycle of
its step alone.

That is O(1) work per level, and nothing n-sized is built.  `pieces`
streams the walk for the export: the head, then translates of the innermost
level's tail between the outer levels' climbs, none of c² or more entries.
"""

from __future__ import annotations

from math import gcd, prod
from typing import Iterator, NamedTuple

from .graph import CayleyGraph
from .group import PrimeTriple, crt_basis


class WalkCertificate(NamedTuple):
    """The spanning cycle of the product lemma lifted from the walk [0]
    through each level (step, rows) in turn: the head 0, then rows
    r·step + tail(W) for r < rows, even rows forwards and odd rows
    backwards, then the climb column r·step for r = rows−1 … 1, all
    modulo n, where W is the walk lifted through the levels below."""

    levels: tuple[tuple[int, int], ...]
    n: int

    @property
    def length(self) -> int:
        return prod(rows for _, rows in self.levels)

    @property
    def endpoints(self) -> tuple[int, int]:
        """The head, and the top of the outer climb column one step above it."""
        return (0, self.levels[-1][0] % self.n)

    def pieces(self) -> Iterator[list[int]]:
        """The walk in order, piece by piece: the head, then each climb
        column of each level's tail, translated into place."""
        n = self.n
        yield [0]
        yield from _tail([(step, rows, [r * step % n for r in range(rows - 1, 0, -1)])
                          for step, rows in self.levels], 0, False, n)


def _tail(lifts: list[tuple[int, int, list[int]]], shift: int, backwards: bool, n: int) -> Iterator[list[int]]:
    """shift + the tail of the walk lifted through lifts (the walk without
    its head 0), reversed when backwards, one climb column per piece; each
    lift is a level (step, rows) and its climb column r·step, r = rows−1 … 1."""
    *inner, (step, rows, climb) = lifts
    if backwards:
        yield [(shift + x) % n for x in reversed(climb)]
    if inner:
        for r in reversed(range(rows)) if backwards else range(rows):
            yield from _tail(inner, shift + r * step, backwards != (r % 2 == 1), n)
    if not backwards:
        yield [(shift + x) % n for x in climb]


def snake_walk(t: PrimeTriple) -> WalkCertificate:
    """The product lemma's levels along c, then b, then a."""
    return WalkCertificate(tuple(zip(reversed(crt_basis(t)), reversed(t.moduli))), t.n)


def verify_walk(w: WalkCertificate, g: CayleyGraph) -> bool:
    """Check the certificate against g level by level: the rows are pairwise
    coprime with product n, and each level's step is the step of a cycle of
    its rows in g, which decides every joint (module docstring)."""
    if w.n != g.triple.n:
        return False
    size = 1
    for step, rows in w.levels:
        if gcd(rows, size) != 1 or not g.is_step_cycle(step, rows):
            return False
        size *= rows
    return size == w.n


def walk_lines(w: WalkCertificate) -> Iterator[bytes]:
    """Export format as bytes: b"cycle\n", then one chunk per piece of the
    walk with one newline-ended exponent per line, in traversal order, so
    no chunk holds c² or more lines."""
    yield b"cycle\n"
    for piece in w.pieces():
        yield b"%d\n" * len(piece) % tuple(piece)
