"""Independent brute-force ground truth.

Exact maximum-clique search (bitset branch and bound with a greedy coloring
bound), exact maximum independent set on the index graph (clique search on the
complement), multi-source BFS distance sweeps checked against the closed-form
distance, and a deterministic triangle scan.  Nothing here consults the
closed-form constructors it is used to check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .graph import CayleyGraph
from .parameters import closed_form_distance_classes
from .structure import BlockId, IndexGraph

DEFAULT_SEED = 12345


class BudgetExceededError(RuntimeError):
    """An exact search was asked to exceed its configured size cap."""


@dataclass(frozen=True)
class OracleBudget:
    """Caps and reproducibility knobs for the brute-force oracles.

    bfs_sources counts extra BFS sources beyond vertex 0; None means sweep
    from every vertex.
    """

    max_exact_vertices: int = 400
    max_index_vertices: int = 300
    bfs_sources: int | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        for name in ("max_exact_vertices", "max_index_vertices"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.bfs_sources is not None and self.bfs_sources < 0:
            raise ValueError("bfs_sources must be nonnegative")


def exact_max_clique(
    vertices: Sequence, adjacent: Callable, budget: OracleBudget | None = None
) -> list:
    """A maximum clique of the induced subgraph, by branch and bound.

    Candidates are ordered by a greedy coloring whose class count bounds the
    clique size, pruning the search.  Fully deterministic.
    """
    if budget is None:
        budget = OracleBudget()
    m = len(vertices)
    if m > budget.max_exact_vertices:
        raise BudgetExceededError(f"{m} vertices exceed exact-search cap {budget.max_exact_vertices}")
    if m == 0:
        return []
    adj = [0] * m
    for i in range(m):
        vi = vertices[i]
        for j in range(i + 1, m):
            if adjacent(vi, vertices[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    best: list[int] = []

    def expand(chosen: list[int], cand: int) -> None:
        nonlocal best
        if cand == 0:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        order: list[int] = []
        bounds: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                order.append(v)
                bounds.append(color)
                uncolored &= ~bit
                avail &= ~(bit | adj[v])
        for idx in range(len(order) - 1, -1, -1):
            if len(chosen) + bounds[idx] <= len(best):
                return
            v = order[idx]
            chosen.append(v)
            nxt = cand & adj[v]
            if nxt:
                expand(chosen, nxt)
            elif len(chosen) > len(best):
                best = chosen.copy()
            chosen.pop()
            cand &= ~(1 << v)

    expand([], (1 << m) - 1)
    return [vertices[i] for i in sorted(best)]


def exact_max_independent_set(ig: IndexGraph, budget: OracleBudget | None = None) -> list[BlockId]:
    """Exact maximum independent set of the index graph, via a maximum clique
    of its complement."""
    if budget is None:
        budget = OracleBudget()
    ids = ig.ids()
    if len(ids) > budget.max_index_vertices:
        raise BudgetExceededError(f"{len(ids)} ids exceed index cap {budget.max_index_vertices}")
    return exact_max_clique(
        ids,
        lambda x, y: not ig.adjacent(x, y),
        OracleBudget(max_exact_vertices=budget.max_index_vertices, seed=budget.seed),
    )


@dataclass(frozen=True)
class SweepReport:
    sources: int
    pairs_checked: int
    max_distance: int
    mismatches: int


def distance_sweep(g: CayleyGraph, budget: OracleBudget | None = None) -> SweepReport:
    """BFS from vertex 0 plus budgeted extra sources; every computed distance
    is compared against the closed form.

    From source s the closed form puts vertex v at the distance of the
    difference v − s, so level k is expected to be rot(E_k, s), where E_k
    holds the differences at closed-form distance k.  A vertex matches when it
    lies in its BFS level and its expected one, so the mismatches are n minus
    the matches (unreached vertices never match)."""
    if budget is None:
        budget = OracleBudget()
    t = g.triple
    n = t.n
    if budget.bfs_sources is None:
        sources: list[int] = list(range(n))
    else:
        rng = random.Random(budget.seed)
        extra = min(budget.bfs_sources, n - 1)
        sources = [0] + sorted(rng.sample(range(1, n), extra))
    expected = closed_form_distance_classes(t, g)
    max_distance = 0
    mismatches = 0
    for s in sources:
        levels = g.bfs_levels(s)
        max_distance = max(max_distance, len(levels) - 1)
        matched = sum(
            (level & g.rotate(expected[k], s)).bit_count()
            for k, level in enumerate(levels)
            if k in expected
        )
        mismatches += n - matched
    return SweepReport(len(sources), len(sources) * n, max_distance, mismatches)


def find_triangle(g: CayleyGraph) -> tuple[int, int, int] | None:
    """Deterministic first triangle: connectors c1 < c2 whose difference is
    itself a connector give the triangle {0, c1, c2}."""
    members = g.cset.members
    connectors = g.connector_set
    for i, c1 in enumerate(members):
        for c2 in members[i + 1 :]:
            if c2 - c1 in connectors:
                return (0, c1, c2)
    return None
