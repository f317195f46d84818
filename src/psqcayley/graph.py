"""The implicit circulant graph: vertices are exponents in [0, n), and two
vertices are adjacent exactly when the order of their difference is a squared
prime.

Adjacency is arithmetic, so the graph is never materialized.  The connecting
set is held once, as the ascending tuple `members`; membership is one
bisection in it (`is_connector`), and nothing outside this module decides it
another way.  Vertex u's upward edges go to u + c for the connectors
c < n − u, a row that changes only where u reaches n − c; so [0, n) splits
into |C| + 1 bands with one row each, the last one empty.  `edges()` and the
capped edge-list and DOT exports read the bands.  The exports write a band in
chunks of rows: each vertex's line separator joins its neighbour names, taken
from |C| column slices of the vertex names, and each chunk is one join of the
separators and their joins.  `write_chunks` is the one writer of every output
file, these exports, the walk, the independent set and the report alike: it
overwrites an existing regular file in place and cuts it to the written
length, rather than truncating it on open.

Vertex sets are n-bit ints (bit v set iff v is in the set), kept to the BFS
oracle layer: the levels and the gcd classes that the distance classes are
folded from.  Certificate claims are decided on quotients.  In a circulant
graph the neighbourhood of a set S is N(S) = ⋃_{c∈C} (S + c), the OR of
rot(S, c) over the connectors c.  The connectors are taken coset by coset
(`coset_plan`, found from the member list and the primes dividing n): S is
closed under a subgroup of order o with about log₂ o doubling shifts and the
closure rotated by each coset representative, so BFS advances a whole
frontier with a few shifts per coset family rather than one rotation per
connector.  BFS stops once its levels hold all n vertices, so a connected
graph's BFS takes one neighbourhood per level but the last.  There is one
BFS per graph, from vertex 0, built once and shared as a tuple: every
translation x ↦ x + s is an automorphism, so the levels from s are those
from 0 rotated by s.

`multiples(d)` builds the multiples of d, the one kind of periodic set the
oracles build, by doubling one bit out to n bits, and `set_bits` lists the
members of any set in ascending order.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from math import gcd
from os import PathLike, stat
from stat import S_ISREG

from .connectors import enumerate_connectors
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
        """The multiples of d > 0 in [0, n) as an n-bit int: bit 0 doubled
        by shifts of d, 2d, 4d, ... up to n bits."""
        n = self.triple.n
        if d <= 0:
            raise ValueError(f"multiples of {d}")
        s, width = 1, d
        while width < n:
            s |= s << width
            width *= 2
        return s & ((1 << n) - 1)

    def neighborhood(self, s: int) -> int:
        """Every vertex adjacent to some vertex of S: the OR of rot(S, c) over
        the connectors c, taken coset family by coset family (`coset_plan`).

        For a family (h, o, reps), U = ⋃_{j<o} S << j·h is built by about
        log₂ o doubling shifts and folded once into T = S + ⟨h⟩; T is then
        rotated by each representative.  The family of order 1 rotates S
        itself by each of its connectors.
        """
        n = self.triple.n
        full = (1 << n) - 1
        acc = 0
        for steps, shifts in self._family_shifts:
            u = s
            if steps:
                for k in steps:
                    u |= u << k
                u = (u & full) | (u >> n)  # u stays below 2n bits, so one fold wraps it
            doubled = u | (u << n)  # bits [n − r, 2n − r) hold rot(u, r)
            for shift in shifts:
                acc |= doubled >> shift
        return acc & full

    @cached_property
    def _family_shifts(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per coset family, the doubling shifts that build U (covering j·h for
        j < 1, 2, 4, ... up to o) and the shifts n − r that rotate by each
        representative r."""
        n = self.triple.n
        plan = []
        for h, order, reps in self.coset_plan:
            steps, cover = [], 1
            while cover < order:
                step = min(cover, order - cover)
                steps.append(step * h)
                cover += step
            plan.append((tuple(steps), tuple(n - r for r in reps)))
        return tuple(plan)

    @cached_property
    def coset_plan(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """The connectors as coset families (h, order, reps), built once per
        graph on first use.  A family is the cosets r + ⟨h⟩, r in reps, of
        the subgroup of order `order`: the multiples of h = n/order.  With
        order 1 (h = n) each coset is the single connector r.

        Built from the member list and the primes dividing n alone.  For each
        prime o | n, largest first, with h = n/o, the uncovered members mod n
        are counted per coset r + ⟨h⟩ (r < h) by x mod h; a coset of o is
        full, and its least element r is its representative.  The members
        left over form the family of order 1.  So the families cover exactly
        the members mod n, for any member list; a coset of composite order is
        a union of cosets of prime order, so no other order is tried.
        """
        n = self.triple.n
        pool = {x % n for x in self.members}
        families = []
        for o in reversed(self.triple.primes):
            h = n // o
            reps = sorted(r for r, k in Counter(x % h for x in pool).items() if k == o)
            if reps:
                pool.difference_update(r + j * h for r in reps for j in range(o))
                families.append((h, o, tuple(reps)))
        if pool:
            families.insert(0, (n, 1, tuple(sorted(pool))))
        return tuple(families)

    @cached_property
    def step_residues(self) -> tuple[tuple[int, int], ...]:
        """The distinct nonzero steps d = ±c mod n (c a member), grouped by
        d mod abc as pairs (residue, how many d), built once per graph on
        first use.  The steps are symmetric and hold n/2 once even when the
        member list is not symmetric; the residue-set edge count of
        `parameters` reads them."""
        n, (a, b, c) = self.triple.n, self.triple.primes
        steps = {x % n for m in self.members for x in (m, -m)} - {0}
        return tuple(Counter(d % (a * b * c) for d in steps).items())

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

    def export(self, fmt: str, out: str | PathLike, cap: int = DEFAULT_MATERIALIZE_CAP) -> None:
        """Write the graph to the file out as an 'edges' list ("u v" lines) or
        a 'dot' document, band by band in chunks of at most EXPORT_CHUNK_ROWS
        vertex rows.

        In a chunk [a, b) of a band, the neighbours u + c of its vertices are
        the column slices names[a + c : b + c], one per connector c of the
        row; zipping the columns gives each vertex u its neighbour names in
        ascending order.  u's separator s_u = end + pre + name(u) + mid ends
        the line before and opens u's next line, so the chunk is one join of
        s_u, s_u.join(u's neighbour names) over its vertices u, written with
        one write.  The file's first separator drops its end, one end closes
        the last line, and the last band's empty row writes no line.

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
        lead = end + pre

        def chunks() -> Iterator[bytes]:
            yield header
            wrote = False
            for lo, hi, row in self._bands():
                if not row:
                    continue
                for a in range(lo, hi, EXPORT_CHUNK_ROWS):
                    b = min(a + EXPORT_CHUNK_ROWS, hi)
                    seps = [lead + name + mid for name in names[a:b]]
                    columns = [names[a + c : b + c] for c in row]
                    parts = [b""] * (2 * len(seps))
                    parts[::2] = seps
                    parts[1::2] = map(bytes.join, seps, zip(*columns))
                    if not wrote:
                        parts[0] = parts[0][len(end) :]
                        wrote = True
                    yield b"".join(parts)
            yield end + footer if wrote else footer

        write_chunks(out, chunks())


def write_chunks(out: str | PathLike, chunks: Iterable[bytes]) -> None:
    """Write the chunks, in order, to the file out: the one writer of every
    output file.

    An existing regular file is overwritten in place ("r+b") and then cut to
    the written length, so it keeps its inode, as under truncation.  Opening
    it "wb" would truncate it first, and on ext4 that truncation frees the
    old blocks, or (default auto_da_alloc) writes back data not yet on disk,
    inside the open, which made rewriting the 31.8 MB dot file at (3,5,11)
    two to three times slower.  A missing file, one that is not regular (a
    device such as /dev/null, a pipe) and one that cannot be read are opened
    "wb".

    The cut runs in a finally, so a chunk that raises leaves exactly the
    chunks before it.  A process killed part-way (SIGKILL, power loss) is
    worse off than under truncation, which left a short file: it leaves the
    new prefix followed by the old file's tail, which may end well formed.
    """
    try:
        f = open(out, "r+b") if S_ISREG(stat(out).st_mode) else None
    except OSError:  # a missing file, or one that cannot be read
        f = None
    overwrite = f is not None
    with f or open(out, "wb") as f:
        try:
            f.writelines(chunks)
        finally:
            if overwrite:
                f.truncate()


def set_bits(s: int) -> Iterator[int]:
    """The members of the set s (bit v set iff v is a member), ascending."""
    bits = bin(s)[:1:-1]  # bits[v] == "1" iff v is in s
    v = bits.find("1")
    while v >= 0:
        yield v
        v = bits.find("1", v + 1)

