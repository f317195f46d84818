"""The implicit circulant graph: vertices are exponents in [0, n), and two
vertices are adjacent exactly when the order of their difference is a squared
prime.

Adjacency is arithmetic, so the graph is never materialized: the edge-list
and DOT exports (capped) stream it to a file one vertex row at a time.  Vertex
sets are n-bit ints (bit v set iff v is in the set).  In a circulant graph the
neighbourhood of a set S is the OR of rot(S, c) over the connectors c, so BFS
advances a whole frontier with |C| big-int rotations per level; sweeps from
distinct sources share no mutable state and may run concurrently.  The levels
from vertex 0 are built once per graph and shared as a tuple.

Sets defined by residues -- colour classes, closed-form distance classes,
residue blocks -- are periodic: {v : v mod P in R} for a period P dividing n.
`periodic` packs one period and doubles it out to n bits, so its cost does not
grow with the size of the set.  `label_classes` tests on all n labels whether
a per-vertex labelling repeats with period P and, when it does, builds every
class from one period that way.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from os import PathLike
from typing import Hashable, Iterable, Iterator, Sequence

from .connectors import ConnectingSet, enumerate_connectors
from .group import PrimeTriple, _check_exponent, bezout_witness, make_prime_triple

DEFAULT_MATERIALIZE_CAP = 20_000


class TooLargeError(ValueError):
    """The graph exceeds the materialization cap for an explicit operation."""


@dataclass(frozen=True)
class ConnectivityResult:
    """Both connectivity verdicts: the generator witness and a full BFS."""

    connected: bool
    bezout: tuple[int, int, int]
    bezout_holds: bool
    bfs_reached: int


@dataclass(frozen=True)
class CayleyGraph:
    triple: PrimeTriple
    cset: ConnectingSet

    @classmethod
    def from_triple(cls, t: PrimeTriple) -> "CayleyGraph":
        return cls(t, enumerate_connectors(t))

    @classmethod
    def from_primes(cls, a: int, b: int, c: int) -> "CayleyGraph":
        return cls.from_triple(make_prime_triple(a, b, c))

    @property
    def vertex_count(self) -> int:
        return self.triple.n

    @property
    def degree(self) -> int:
        return self.cset.size

    @cached_property
    def connector_set(self) -> frozenset[int]:
        """The connectors as a set: u and v are adjacent iff (v − u) mod n is in it."""
        return frozenset(self.cset.members)

    def adjacent(self, u: int, v: int) -> bool:
        """True iff u ≠ v and their difference lies in the connecting set."""
        _check_exponent(u, self.triple)
        _check_exponent(v, self.triple)
        return (u - v) % self.triple.n in self.connector_set

    def neighbors(self, u: int) -> list[int]:
        """The degree-many neighbors of u, sorted ascending."""
        _check_exponent(u, self.triple)
        n = self.triple.n
        return sorted((u + c) % n for c in self.cset.members)

    # -- bitset kernel ------------------------------------------------------

    def bitset(self, vertices: Iterable[int]) -> int:
        """The vertex set as an n-bit int."""
        return _pack(vertices, self.triple.n)

    def periodic(self, period: int, residues: Iterable[int]) -> int:
        """{v : v mod period ∈ residues} as an n-bit int.

        The period must divide n and every residue lie in [0, period).  One
        period is packed and then doubled by shifts up to n bits.
        """
        n = self.triple.n
        if period <= 0 or n % period:
            raise ValueError(f"period {period} does not divide {n}")
        s = _pack(residues, period)
        width = period
        while width < n:
            s |= s << width
            width *= 2
        return s & ((1 << n) - 1)

    def label_classes(self, labels: Sequence[Hashable], period: int) -> dict[Hashable, int]:
        """The vertices grouped by label (labels[v] for every vertex v), each
        class as an n-bit int.

        The classes are built from the first period when the labels repeat
        with that period, which is tested on all n labels; otherwise from all n.
        """
        n = self.triple.n
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} vertices")
        if labels[period:] != labels[:-period]:
            period = n
        members: dict[Hashable, list[int]] = {}
        for v in range(period):
            members.setdefault(labels[v], []).append(v)
        return {label: self.periodic(period, rs) for label, rs in members.items()}

    def rotate(self, s: int, k: int) -> int:
        """rot(S, k) = {(v + k) mod n : v in S}."""
        n = self.triple.n
        k %= n
        return ((s << k) | (s >> (n - k))) & ((1 << n) - 1)

    def neighborhood(self, s: int) -> int:
        """Every vertex adjacent to some vertex of S."""
        n = self.triple.n
        doubled = s | (s << n)  # bits [n - c, 2n - c) of doubled hold rot(S, c)
        acc = 0
        for c in self.cset.members:
            acc |= doubled >> (n - c)
        return acc & ((1 << n) - 1)

    def internal_edges(self, s: int) -> int:
        """Edges with both endpoints in S, each counted once.

        No connector equals n/2 (its order would be 2), so every edge {u, v}
        has exactly one connector c < n/2 with v = u ± c.
        """
        n = self.triple.n
        doubled = s | (s << n)
        # (doubled >> (n - c)) & S == rot(S, c) & S
        return sum(((doubled >> (n - c)) & s).bit_count() for c in self.cset.members if 2 * c < n)

    def bfs_levels(self, source: int) -> tuple[int, ...]:
        """The BFS levels from source: levels[k] is the set at distance k.

        The levels from vertex 0 are built once per graph and shared.
        """
        _check_exponent(source, self.triple)
        return self._levels_from_zero if source == 0 else self._levels(source)

    @cached_property
    def _levels_from_zero(self) -> tuple[int, ...]:
        return self._levels(0)

    def _levels(self, source: int) -> tuple[int, ...]:
        frontier = seen = 1 << source
        levels = []
        while frontier:
            levels.append(frontier)
            frontier = self.neighborhood(frontier) & ~seen
            seen |= frontier
        return tuple(levels)

    def bfs(self, source: int) -> list[int]:
        """Exact hop distances from source to every vertex (-1 = unreachable)."""
        dist = [-1] * self.triple.n
        for k, level in enumerate(self.bfs_levels(source)):
            bits = bin(level)[:1:-1]  # bits[v] == "1" iff v is in the level
            v = bits.find("1")
            while v >= 0:
                dist[v] = k
                v = bits.find("1", v + 1)
        return dist

    def is_connected(self) -> ConnectivityResult:
        """Connectivity verified two ways: Bezout witness and full BFS reach."""
        t = self.triple
        u, v, w = bezout_witness(t)
        holds = u * t.m_beta * t.m_gamma + v * t.m_alpha * t.m_gamma + w * t.m_alpha * t.m_beta == 1
        reached = sum(level.bit_count() for level in self.bfs_levels(0))
        return ConnectivityResult(holds and reached == t.n, (u, v, w), holds, reached)

    def is_eulerian(self) -> bool:
        """Connected with every degree even (degrees all equal |C|)."""
        return self.degree % 2 == 0 and self.is_connected().connected

    def girth_certificate(self) -> tuple[int, int, int]:
        """A triangle witnessing girth 3: {0, a²b², 2a²b²}."""
        m_ab = self.triple.m_alpha * self.triple.m_beta
        return (0, m_ab, 2 * m_ab)

    def nonplanarity_certificate(self) -> tuple[int, int, int, int, int]:
        """Five pairwise-adjacent vertices (a K5, hence non-planar): k·a²b², k<5."""
        m_ab = self.triple.m_alpha * self.triple.m_beta
        return tuple(k * m_ab for k in range(5))  # type: ignore[return-value]

    def _rows(self) -> Iterator[tuple[int, tuple[int, ...]]]:
        """(u, the sorted connectors c < n − u) for each vertex u ascending:
        u's edges are u + c, so every undirected edge appears once."""
        n = self.triple.n
        members = self.cset.members
        for u in range(n):
            yield u, members[: bisect_left(members, n - u)]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every undirected edge once as (u, v) with u < v, ascending by (u, v)."""
        for u, row in self._rows():
            for c in row:
                yield (u, u + c)

    def export(self, fmt: str, out: str | PathLike, cap: int = DEFAULT_MATERIALIZE_CAP) -> None:
        """Write the graph to the file out as an 'edges' list ("u v" lines) or
        a 'dot' document, one vertex row at a time.

        Raises TooLargeError above cap and ValueError for an unknown format;
        on either, out is never opened, so no file is created or truncated.
        """
        n = self.triple.n
        if n > cap:
            raise TooLargeError(f"{n} vertices exceed cap {cap}")
        if fmt == "edges":
            header, pre, mid, end, footer = b"", b"", b" ", b"\n", b""
        elif fmt == "dot":
            header, pre, mid, end, footer = b"graph cayley {\n", b"  ", b" -- ", b";\n", b"}\n"
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        names = [b"%d" % v for v in range(n)]
        with open(out, "wb") as f:
            f.write(header)
            for u, row in self._rows():
                if row:  # rows near n − 1 have no higher neighbour
                    first = pre + names[u] + mid
                    f.write(first + (end + first).join([names[u + c] for c in row]) + end)
            f.write(footer)


def _pack(values: Iterable[int], size: int) -> int:
    """The values, each in [0, size), as the bits of a size-bit int."""
    values = list(values)  # a generator is read once, for both the check and the bits
    if values and not (0 <= min(values) and max(values) < size):
        bad = next(v for v in values if not 0 <= v < size)
        raise ValueError(f"{bad} out of range [0, {size})")
    buf = bytearray((size + 7) // 8)
    for v in values:
        buf[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(buf, "little")
