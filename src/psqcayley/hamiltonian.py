"""Spanning snake walks in component space.

Vertices are component triples (x, y, z) with x < a², y < b², z < c².  Within
each layer of fixed x the b²×c² grid is traversed boustrophedon (rows = the
b²-component, alternating direction), consecutive residues differing by 1 are
never divisible by the governing prime, so every grid step is an edge.  Layers
are chained at their terminal corner by stepping x, each layer reversing the
previous traversal.  For a = 2 the a² = 4 layers close into a spanning cycle;
for a > 2 the a² layers are odd in number and the walk is an open spanning
path whose endpoints differ in all three components (hence are non-adjacent).

Cycle existence for a > 2 is left undetermined here: the walk verifier only
certifies what was constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .graph import CayleyGraph
from .group import PrimeTriple, crt_basis


class LengthMismatchError(ValueError):
    """A walk certificate does not have exactly one entry per vertex."""


@dataclass(frozen=True)
class WalkCertificate:
    """A spanning walk: every vertex exactly once, consecutive vertices
    adjacent, and for kind == "cycle" the last vertex adjacent to the first."""

    vertices: tuple[int, ...]
    kind: str  # "cycle" | "path"

    @property
    def closed(self) -> bool:
        return self.kind == "cycle"

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])


def snake_walk(t: PrimeTriple) -> WalkCertificate:
    """Construct the spanning snake; a cycle for a = 2, else an open path."""
    m_a, m_b, m_c = t.moduli
    e_a, e_b, e_c = crt_basis(t)
    n = t.n

    # one layer, forward orientation: (0,0) .. (b²-1, c²-1) as exponent offsets
    forward: list[int] = []
    for row in range(m_b):
        cols = range(m_c) if row % 2 == 0 else range(m_c - 1, -1, -1)
        base = row * e_b % n
        forward.extend((base + col * e_c) % n for col in cols)
    backward = forward[::-1]

    vertices: list[int] = []
    for layer in range(m_a):
        shift = layer * e_a % n
        sweep = forward if layer % 2 == 0 else backward
        vertices.extend((shift + off) % n for off in sweep)
    kind = "cycle" if t.alpha == 2 else "path"
    return WalkCertificate(tuple(vertices), kind)


def verify_walk(w: WalkCertificate, g: CayleyGraph) -> bool:
    """Independent replay: permutation of [0, n), all consecutive pairs
    adjacent by the arithmetic test, closure when the walk claims to close."""
    n = g.triple.n
    if len(w.vertices) != n:
        raise LengthMismatchError(f"walk has {len(w.vertices)} entries, expected {n}")
    seen = bytearray(n)
    for v in w.vertices:
        if not 0 <= v < n or seen[v]:
            return False
        seen[v] = 1
    # every entry is now a vertex, so adjacency is membership of the difference
    connectors = g.connector_set
    verts = w.vertices
    for u, v in zip(verts, islice(verts, 1, None)):
        if (v - u) % n not in connectors:
            return False
    if w.closed and (verts[0] - verts[-1]) % n not in connectors:
        return False
    return True


def walk_lines(w: WalkCertificate) -> Iterator[str]:
    """Export format: a 'cycle'/'path' header, then one exponent per line in
    traversal order."""
    yield w.kind
    for v in w.vertices:
        yield str(v)
