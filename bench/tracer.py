"""Run one psqcayley CLI command with spans around each module's public
functions.

    python3 bench/tracer.py TRACE.json ARG...

behaves as `python -m psqcayley ARG...` (same stdout, stderr, files and exit
code) and also writes the spans and counters to TRACE.json.  The package is
not modified: the wrappers are installed from this file before
`psqcayley.cli.main(ARGS)` runs.

Each wrapper is installed where its name is looked up: on the class for the
methods of CayleyGraph, and in every module global bound to the function for
module-level functions (so `report.snake_walk` and `cli.snake_walk` are both
traced).  A span is `[name, start, end, parent index]`.  The hot scalar
functions (`adjacent`, `element_order`) get counters instead of spans, so
their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import expect

SPANS = {
    "connectors": ("enumerate_connectors",),
    "parameters": (
        "verify_coloring",
        "independence_internal_edges",
        "diameter",
        "closed_form_distance_table",
        "verify_index_bounds",
    ),
    "structure": ("verify_fiber_structure", "verify_block_adjacency", "verify_block_partition"),
    "hamiltonian": ("snake_walk", "verify_walk", "walk_lines"),
    "oracles": ("distance_sweep", "exact_max_clique", "exact_max_independent_set", "find_triangle"),
    "report": ("build_report", "run_verification"),
}
GRAPH_METHOD_SPANS = ("bfs", "is_connected", "export")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def span(self, name: str, fn, observe=None):
        """Wrap fn in a span; observe(bound arguments, result) sees each call."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count_and_time(self, name: str, fn):
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counters[name + ".calls"] += 1
                counters[name + ".total_s"] += clock() - start

        return wrapper

    def count_yields(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = 0
            try:
                for item in fn(*args, **kwargs):
                    k += 1
                    yield item
            finally:
                counters[name] += k

        return wrapper


def _replace_everywhere(modules, orig, wrapper) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)


def install(tracer: Tracer) -> None:
    """Install every wrapper into the already-imported package."""
    import psqcayley.cli  # noqa: F401  (imports every module of the package)
    from psqcayley import group
    from psqcayley.graph import CayleyGraph

    modules = [m for k, m in sys.modules.items() if k == "psqcayley" or k.startswith("psqcayley.")]
    c = tracer.counters

    def on_bfs(args, dist):
        c["graph.bfs.source0_calls"] += args["source"] == 0
        c["graph.bfs.vertices"] += len(dist)

    def on_coloring(args, res):
        c["parameters.coloring.edges_checked"] += res.edges_checked
        c["parameters.coloring.edges_total"] += expect.edge_count(args["t"].primes)

    def on_independence(args, res):
        m = expect.independence_number(args["g"].triple.primes)
        c["parameters.independence.pairs_checked"] += res.pairs_checked
        c["parameters.independence.pairs_total"] += m * (m - 1) // 2

    def on_sweep(args, res):
        c["oracles.sweep.sources"] += res.sources
        c["oracles.sweep.vertices"] += expect.group_order(args["g"].triple.primes)

    def on_fiber(args, res):
        c["structure.completed"] += 1

    def on_verification(args, outcome):
        for line in outcome.lines:
            c["verify.lines." + line.split(" ", 1)[0]] += 1

    observers = {
        "parameters.verify_coloring": on_coloring,
        "parameters.independence_internal_edges": on_independence,
        "oracles.distance_sweep": on_sweep,
        "structure.verify_fiber_structure": on_fiber,
        "report.run_verification": on_verification,
    }

    for mod_name, names in SPANS.items():
        mod = sys.modules["psqcayley." + mod_name]
        for fn_name in names:
            orig = getattr(mod, fn_name)
            name = f"{mod_name}.{fn_name}"
            if fn_name == "walk_lines":
                # a generator: materialize inside the span so it covers the work
                # (the caller joins the lines into one string either way)
                wrapper = tracer.span(name, lambda w, _orig=orig: list(_orig(w)))
            else:
                wrapper = tracer.span(name, orig, observers.get(name))
            if mod_name == "report":
                wrapper = _note_structure_skips(wrapper, c)
            _replace_everywhere(modules, orig, wrapper)

    for meth in GRAPH_METHOD_SPANS:
        orig = getattr(CayleyGraph, meth)
        setattr(CayleyGraph, meth, tracer.span("graph." + meth, orig, on_bfs if meth == "bfs" else None))
    CayleyGraph.adjacent = tracer.count("graph.adjacent.calls", CayleyGraph.adjacent)
    CayleyGraph.edges = tracer.count_yields("graph.edges.count", CayleyGraph.edges)
    _replace_everywhere(
        modules, group.element_order, tracer.count_and_time("group.element_order", group.element_order)
    )


def _note_structure_skips(fn, counters):
    """Count report calls in which the fiber-structure check never completed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = counters["structure.completed"]
        try:
            return fn(*args, **kwargs)
        finally:
            counters["structure.skipped"] += counters["structure.completed"] == before

    return wrapper


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from psqcayley import cli

    traced_main = tracer.span("cli.main", cli.main)
    try:
        return traced_main(args)
    finally:
        with open(out, "w") as f:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
