"""The implicit circulant graph: vertices are exponents in [0, n), and two
vertices are adjacent exactly when the order of their difference is a squared
prime.

Adjacency is arithmetic, so the graph is never materialized.  The connecting
set is held once, as the ascending tuple `members`; membership is one
bisection in it (`is_connector`), and nothing outside this module decides it
another way.  Vertex u's upward edges go to u + c for the connectors
c < n − u, a row that changes only where u reaches n − c; so [0, n) splits
into |C| + 1 bands with one row each, the last one empty.  `edges()` and the
capped edge-list and DOT exports read the bands.  The exports build one list
of the n line tails and write a band in chunks of whole lines: each vertex's
line head joins its neighbours' tails, |C| column slices of that list.
`write_chunks` is the one writer of every output file, these exports, the
walk, the independent set and the report alike: it opens the file once with
os.open and no O_TRUNC, overwrites it in place, and cuts it to the written
length only when the descriptor's fstat says it is a regular file.

Vertex sets are n-bit ints (bit v set iff v is in the set), kept to the BFS
oracle layer: the levels, and the sets of multiples that the distance sweep
folds its distance classes from, one class at a time.  Certificate claims
are decided on quotients.  In a circulant graph the neighbourhood of a set
S is N(S) = ⋃_{c∈C} (S + c), the OR of rot(S, c) over the connectors c.
C is the elements of order a², b² or c², and each order-p² class is the
generators {k·g : p ∤ k < p²} of the subgroup of order p², g = n/p², the
sumset g·{1, …, p − 1} + p·g·{0, …, p − 1}.  So S plus a whole class is two
doubling closures (`_closure`) of about log₂ p shifts each, and BFS advances
a whole frontier with a few shifts per axis rather than one rotation per
connector.  `axis_plan` takes all three axes exactly when the members are
C, by one merge against the closed-form classes, and otherwise shifts each
member in alone.  BFS stops once its levels hold all n vertices, so a
connected graph's BFS takes one neighbourhood per level but the last.  There
is one BFS per graph, from vertex 0, built once and shared as a tuple: every
translation x ↦ x + s is an automorphism, so the levels from s are those
from 0 rotated by s.

`multiples(d)` builds the multiples of d, the one kind of periodic set that
`oracles.distance_sweep` builds, by the same closure: {0} under ⌈n/d⌉
steps of d.  `set_bits` lists the members of any set in ascending order.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from heapq import merge
from math import gcd
from stat import S_ISREG

from .connectors import connector_classes, connector_count_formula, enumerate_connectors
from .group import PrimeTriple, _check_exponent, bezout_witness

DEFAULT_MATERIALIZE_CAP = 20_000
EXPORT_CHUNK_ROWS = 512  # vertex rows per write of the edges/dot export


class TooLargeError(ValueError):
    """The graph exceeds the materialization cap for an explicit operation."""


# both connectivity verdicts: the generator witness and a full BFS
ConnectivityResult = namedtuple("ConnectivityResult", "connected bezout bfs_reached")


class CayleyGraph(namedtuple("CayleyGraph", "triple members")):
    """The graph of a triple and its connecting set, both read-only fields.

    `members` must be ascending: membership bisects it, and the bands, the
    exports and `oracles.find_triangle` read it in order.  The
    regular-eulerian-connected check of `verify` fails a tuple that is not
    strictly ascending.  The class declares no __slots__, so each graph has
    the __dict__ that its cached kernels live in."""

    @classmethod
    def from_triple(cls, t: PrimeTriple) -> "CayleyGraph":
        return cls(t, enumerate_connectors(t))

    @property
    def degree(self) -> int:
        return len(self.members)

    def is_connector(self, x: int) -> bool:
        """True iff x is a member: one bisection in the ascending members.
        u and v are adjacent iff (v − u) mod n is a connector."""
        i = bisect_left(self.members, x)
        return i < len(self.members) and self.members[i] == x

    def adjacent(self, u: int, v: int) -> bool:
        """True iff u ≠ v and their difference lies in the connecting set."""
        _check_exponent(u, self.triple)
        _check_exponent(v, self.triple)
        return self.is_connector((u - v) % self.triple.n)

    def is_clique(self, vertices: Sequence[int]) -> bool:
        """True iff the vertices are pairwise adjacent."""
        return all(self.adjacent(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :])

    def is_step_cycle(self, step: int, length: int) -> bool:
        """True iff x, x + step, …, x + (length − 1)·step, closed by step back
        to x, is a cycle for every x: length ≥ 3, step has order exactly
        length, and step and −step are both connectors, so the cycle is
        walked either way."""
        n = self.triple.n
        ends = (step % n, -step % n)
        return length >= 3 and n // gcd(step, n) == length and all(map(self.is_connector, ends))

    # -- n-bit set kernel ---------------------------------------------------

    def multiples(self, d: int) -> int:
        """The multiples of d > 0 in [0, n) as an n-bit int: {0} closed under
        ⌈n/d⌉ steps of d (`_closure`)."""
        n = self.triple.n
        if d <= 0:
            raise ValueError(f"multiples of {d}")
        return _closure(1, d, -(-n // d))

    def neighborhood(self, s: int) -> int:
        """Every vertex adjacent to some vertex of S: the OR of rot(S, c) over
        the connectors c, by axis on C and one member at a time off it (`axis_plan`).

        With g = n/p², the order-p² class is {(i + j·p)·g : 0 < i < p, j < p},
        so S plus the class is two closures (`_closure`): S + {i·g : 0 < i < p},
        then that + {j·p·g : j < p}.  Each single r adds S shifted by r.
        Every shift is below n, so the OR stays below 2n bits and one fold
        reduces it mod n.
        """
        n = self.triple.n
        axes, singles = self.axis_plan
        acc = 0
        for p in axes:
            g = n // (p * p)
            acc |= _closure(_closure(s << g, g, p - 1), p * g, p)
        for r in singles:
            acc |= s << r
        return (acc & ((1 << n) - 1)) | (acc >> n)

    @cached_property
    def axis_plan(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(axes, singles), built once per graph on first use: all primes and
        no single when the members are exactly C, |C| of them equal one by one
        to the ascending merge of C's classes (`connector_classes`), which builds
        no set or list; otherwise no axis, and the distinct members mod n, ascending."""
        t, members = self.triple, self.members
        classes = merge(*connector_classes(t))
        if len(members) == connector_count_formula(t) and all(x == y for x, y in zip(members, classes)):
            return t.primes, ()
        return (), tuple(sorted({x % t.n for x in members}))

    @cached_property
    def levels_from_zero(self) -> tuple[int, ...]:
        """The BFS levels from vertex 0, built once per graph on first use:
        levels_from_zero[k] is the set at distance k.  No BFS runs from any
        other source; by translation, its levels are these rotated by it.
        Stops once the levels hold all n vertices: the next frontier would
        be empty, so a connected graph's BFS skips that last neighbourhood."""
        n = self.triple.n
        frontier = seen = 1
        levels, reached = [], 0
        while frontier:
            levels.append(frontier)
            reached += frontier.bit_count()
            if reached == n:
                break
            frontier = self.neighborhood(frontier) & ~seen
            seen |= frontier
        return tuple(levels)

    def bfs(self, source: int) -> list[int]:
        """Exact hop distances from source to every vertex (-1 = unreachable):
        the distances from vertex 0 rotated by source, since d(source, v) =
        d(0, v − source)."""
        _check_exponent(source, self.triple)
        n = self.triple.n
        dist = [-1] * n
        for k, level in enumerate(self.levels_from_zero):
            for v in set_bits(level):
                dist[(v + source) % n] = k
        return dist

    def is_connected(self) -> ConnectivityResult:
        """Connectivity verified two ways: Bezout witness and full BFS reach."""
        t = self.triple
        u, v, w = bezout_witness(t)
        holds = u * t.m_beta * t.m_gamma + v * t.m_alpha * t.m_gamma + w * t.m_alpha * t.m_beta == 1
        reached = sum(level.bit_count() for level in self.levels_from_zero)
        return ConnectivityResult(holds and reached == t.n, (u, v, w), reached)

    def _bands(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """(lo, hi, row) for ascending bands that tile [0, n): every vertex u
        in [lo, hi) has its upward edges to u + c for the connectors c in row.

        u's upward connectors are the sorted connectors c < n − u, so the row
        shrinks by one connector where u reaches n − c; the last band, from
        n − min(C) to n, has an empty row.  Every undirected edge appears once.
        """
        n = self.triple.n
        members = self.members
        lo = 0
        for k in range(len(members), -1, -1):
            hi = n - members[k - 1] if k else n
            yield lo, hi, members[:k]
            lo = hi

    def edges(self) -> Iterator[tuple[int, int]]:
        """Every undirected edge once as (u, v) with u < v, ascending by (u, v)."""
        for lo, hi, row in self._bands():
            for u in range(lo, hi):
                for c in row:
                    yield (u, u + c)

    def export(self, fmt: str, out: str | os.PathLike, cap: int = DEFAULT_MATERIALIZE_CAP) -> None:
        """Write the graph to the file out as an 'edges' list ("u v" lines) or
        a 'dot' document, band by band in chunks of at most EXPORT_CHUNK_ROWS
        vertex rows.

        Edge (u, v) is the line head % u + tail % v, and the n line tails are
        built once.  In a chunk [a, b) of a band, the column slices
        tails[a + c : b + c], one per connector c of the row, zip to each
        vertex u's neighbour tails in ascending order, and u's lines are
        head_u + head_u.join(those tails).  So the chunk is one join of the
        heads of [a, b) and their joins, written with one write, and holds
        whole lines; the last band's empty row writes none.

        Raises TooLargeError above cap and ValueError for an unknown format;
        on either, out is never opened, so no file is created or truncated.
        """
        n = self.triple.n
        if n > cap:
            raise TooLargeError(f"{n} vertices exceed cap {cap}")
        if fmt == "edges":
            header, head, tail, footer = b"", b"%d ", b"%d\n", b""
        elif fmt == "dot":
            header, head, tail, footer = b"graph cayley {\n", b"  %d -- ", b"%d;\n", b"}\n"
        else:
            raise ValueError(f"unknown export format {fmt!r}")
        tails = [tail % v for v in range(n)]

        def chunks() -> Iterator[bytes]:
            yield header
            for lo, hi, row in self._bands():
                if not row:
                    continue
                for a in range(lo, hi, EXPORT_CHUNK_ROWS):
                    b = min(a + EXPORT_CHUNK_ROWS, hi)
                    heads = [head % u for u in range(a, b)]
                    columns = [tails[a + c : b + c] for c in row]
                    parts = [b""] * (2 * len(heads))
                    parts[::2] = heads
                    parts[1::2] = map(bytes.join, heads, zip(*columns))
                    yield b"".join(parts)
            yield footer

        write_chunks(out, chunks())


def write_chunks(out: str | os.PathLike, chunks: Iterable[bytes]) -> None:
    """Write the chunks, in order, to the file out: the one writer of every
    output file.

    out is opened once, with os.open(O_WRONLY | O_CREAT) and no O_TRUNC, so
    an existing file is overwritten in place; when fstat on that descriptor
    says the file is regular, it is then cut to the written length, so it
    keeps its inode, as under truncation.  Truncating on open would, on ext4,
    free the old blocks, or (default auto_da_alloc) write back data not yet
    on disk, inside the open, which made rewriting the 31.8 MB dot file at
    (3,5,11) two to three times slower.  A device such as /dev/null or a
    pipe is written without a cut.

    The cut runs in a finally, so a chunk that raises leaves exactly the
    chunks before it.  A process killed part-way (SIGKILL, power loss) is
    worse off than under truncation, which left a short file: it leaves the
    new prefix followed by the old file's tail, which may end well formed.
    """
    # O_BINARY, where it exists, keeps a C runtime from translating the bytes
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(out, flags, 0o666), "wb") as f:
        try:
            f.writelines(chunks)
        finally:
            if S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()


def _closure(s: int, h: int, count: int) -> int:
    """S + {j·h : j < count} as an unreduced int, the bits of S shifted by
    each j·h and ORed: about log₂ count doubling shifts, each adding as many
    new j as fit below count, so no shift overshoots and nothing is masked."""
    cover = 1
    while cover < count:
        step = min(cover, count - cover)
        s |= s << step * h
        cover += step
    return s


def set_bits(s: int) -> Iterator[int]:
    """The members of the set s (bit v set iff v is a member), ascending."""
    bits = bin(s)[:1:-1]  # bits[v] == "1" iff v is in s
    v = bits.find("1")
    while v >= 0:
        yield v
        v = bits.find("1", v + 1)

