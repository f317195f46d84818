"""A conjunct census over every verdict: the first plant that makes each
conjunct fail, or "none".

A checker that cannot reject certifies nothing.  So every conjunct that
feeds a verdict of `report.certify` or `report.run_verification` must fail
under some plant that the suite already has, or stand in LEMMA_CANDIDATES
with the reason it stays in the package.

`instrumented()` parses the modules that define the verifiers with `ast`.
In each function of TARGETS it wraps in a probe every operand of each
`and`, each `all(...)` and each comparison; an `or` that decides a
`return False` is the negation of an `and`, and its operands are probed
too.  The probes call one `Recorder`, and the modules run as private
copies, wired to one another, so no file of the package is touched.  A
probe evaluates every operand, so short-circuiting hides none, yet it
returns what the original expression returns.  Filters of comprehensions
select data and decide nothing, so they are not probed, nor are the
functions nested in a target (the stage timer and the line printer).

`plants()` are the suite's own faults, in this order: the gcd-class toggles of
FAULT_MATRIX, the symmetric pair toggles of PAIR_CENSUS, the class-0
residue plant of `tests/test_acceptance.py`, the plants on the ids that
`block_residues` receives and on the index graph of
`tests/test_parameters.py`, the swapped and one-way member lists of
`tests/test_report_cli.py`, the planted K of `tests/test_kernel.py`, the
walk-level faults of `tests/test_hamiltonian.py`, and last a triangle-free
member list.  Under each, the instrumented `verify` lines must equal the
real ones, and neither `certify` nor `run_verification` may raise.  No
plant builds an invalid triple: `PrimeTriple` refuses one, so the facts
about Z_n that every triple guarantees are stated in the package, not
probed here.
"""

import ast
import importlib
import inspect
import operator
import types
from math import gcd

from psqcayley.group import PrimeTriple
from psqcayley.hamiltonian import snake_walk

from helpers import divisors
from test_fault_matrix import FAULT_MATRIX
from test_hamiltonian import _level_faults, _with_identity

# the functions whose conjuncts are probed, by module, each module after
# those it imports
TARGETS = {
    "graph": ("CayleyGraph.is_step_cycle", "CayleyGraph.is_connected"),
    "structure": ("verify_fiber_structure", "verify_block_adjacency"),
    "parameters": ("verify_coloring", "clique_tiles", "verify_index_bounds"),
    "hamiltonian": ("verify_walk",),
    "report": ("certify", "run_verification"),
}
REAL = {name: importlib.import_module(f"psqcayley.{name}") for name in TARGETS}

COMPARISONS = {
    "Eq": operator.eq,
    "NotEq": operator.ne,
    "Lt": operator.lt,
    "LtE": operator.le,
    "Gt": operator.gt,
    "GtE": operator.ge,
    "Is": operator.is_,
    "IsNot": operator.is_not,
}


class Recorder:
    """The probes: each takes all its operands already evaluated, notes
    every row whose value fails its verdict, and returns the original
    expression's value.  An operand that raises where the original would
    have skipped it fails the census loudly."""

    def __init__(self) -> None:
        self.rows: dict[tuple[str, str], bool] = {}  # (function, conjunct) -> the value that fails it
        self.seen: set[tuple[str, str]] = set()
        self.failed: set[tuple[str, str]] = set()

    def note(self, row: tuple[str, str] | None, value: object) -> None:
        if row is not None:
            self.seen.add(row)
            if bool(value) == self.rows[row]:
                self.failed.add(row)

    def boolean(self, is_and: bool, rows: tuple, *values):
        """`and` (or `or`): the first falsy (truthy) operand, else the last."""
        for row, value in zip(rows, values):
            self.note(row, value)
        return next((v for v in values if bool(v) != is_and), values[-1])

    def compare(self, rows: tuple, ops: tuple, *operands):
        """A comparison chain, one row per link: the first false link, else
        the last."""
        links = [COMPARISONS[op](x, y) for op, x, y in zip(ops, operands, operands[1:])]
        for row, link in zip(rows, links):
            self.note(row, link)
        return next((link for link in links if not link), links[-1])

    def every(self, row: tuple[str, str], iterable):
        """`all(...)` with every item drawn, not only those up to the first
        falsy one."""
        result = all(list(iterable))
        self.note(row, result)
        return result


def _probe(method: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Attribute(ast.Name("_census", ast.Load()), method, ast.Load()), list(args), [])


def _is_all(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "all" and len(node.args) == 1


def _returns_false(body: list[ast.stmt]) -> bool:
    return len(body) == 1 and isinstance(body[0], ast.Return) and ast.unparse(body[0]) == "return False"


class _Instrument(ast.NodeTransformer):
    """Probe the conjuncts of one function, each a row named by the function
    and the conjunct's source, and the value that fails it: False, or True
    under a `not` or in the test of an `if` that returns False."""

    def __init__(self, where: str, recorder: Recorder) -> None:
        self.where, self.recorder, self.fails_on = where, recorder, False

    def row(self, node: ast.expr) -> tuple[str, str]:
        text = ast.unparse(node)
        key, repeat = (self.where, text), 1
        while key in self.recorder.rows:
            repeat += 1
            key = (self.where, f"{text} [{repeat}]")
        self.recorder.rows[key] = self.fails_on
        return key

    def polar(self, node: ast.AST, fails_on: bool) -> ast.AST:
        saved, self.fails_on = self.fails_on, fails_on
        node = self.visit(node)
        self.fails_on = saved
        return node

    def visit_FunctionDef(self, node):
        return node

    def visit_comprehension(self, node):
        return node

    def visit_If(self, node):
        if not _returns_false(node.body):
            return self.generic_visit(node)
        node.test = self.polar(node.test, True)
        return node

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.Not):
            node.operand = self.polar(node.operand, not self.fails_on)
            return node
        return self.generic_visit(node)

    def visit_BoolOp(self, node):
        is_and = isinstance(node.op, ast.And)
        if is_and == self.fails_on:  # a disjunction of passes decides no conjunct
            return self.generic_visit(node)
        rows = tuple(None if isinstance(v, ast.Compare) or _is_all(v) else self.row(v) for v in node.values)
        return _probe("boolean", ast.Constant(is_and), ast.Constant(rows), *map(self.visit, node.values))

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        rows = tuple(self.row(ast.Compare(x, [op], [y])) for x, op, y in zip(operands, node.ops, operands[1:]))
        ops = tuple(type(op).__name__ for op in node.ops)
        return _probe("compare", ast.Constant(rows), ast.Constant(ops), *map(self.visit, operands))

    def visit_Call(self, node):
        if not _is_all(node):
            return self.generic_visit(node)
        row = self.row(node)
        return _probe("every", ast.Constant(row), self.visit(node.args[0]))


def _function(tree: ast.Module, qualname: str) -> ast.FunctionDef:
    scope = tree.body
    for part in qualname.split("."):
        node = next(n for n in scope if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
        scope = node.body
    return node


def instrumented() -> tuple[dict[str, types.ModuleType], Recorder]:
    """Private copies of the modules of TARGETS, with every target's
    conjuncts probed, each reading the others' copies; and their recorder."""
    recorder = Recorder()
    copies = {}
    for name, targets in TARGETS.items():
        real = REAL[name]
        tree = ast.parse(inspect.getsource(real))
        for qualname in targets:
            function = _function(tree, qualname)
            visitor = _Instrument(f"{name}.{qualname}", recorder)
            function.body = [visitor.visit(statement) for statement in function.body]
        module = types.ModuleType(real.__name__)
        module.__package__, module._census = "psqcayley", recorder
        exec(compile(ast.fix_missing_locations(tree), real.__file__, "exec"), vars(module))
        copies[name] = module
    # a name imported from a real module is rebound to the copy's
    by_real = {id(module): copies[name] for name, module in REAL.items()}
    for module in copies.values():
        for key, value in list(vars(module).items()):
            if id(value) in by_real:
                setattr(module, key, by_real[id(value)])
                continue
            home = getattr(value, "__module__", "").removeprefix("psqcayley.")
            if home in REAL and getattr(REAL[home], getattr(value, "__name__", ""), None) is value:
                setattr(module, key, getattr(copies[home], value.__name__))
    return copies, recorder


def _outcome(mods: dict[str, types.ModuleType], t):
    """`verify`'s lines for t."""
    return mods["report"].run_verification(t, 0).lines


def _connector_toggles():
    """(label, triple, members) for FAULT_MATRIX's gcd-class toggles, then
    the pair toggles at PAIR_CENSUS's tier-1 triples."""
    for primes in FAULT_MATRIX:
        t = PrimeTriple(*primes)
        n, connectors = t.n, set(REAL["graph"].enumerate_connectors(t))
        for d in divisors(n)[:-1]:
            cls = {d * k for k in range(1, n // d) if gcd(k, n // d) == 1}
            inside = cls <= connectors
            members = connectors - cls if inside else connectors | cls
            yield f"gcd class {'-' if inside else '+'}{d} at {primes}", t, members
    for primes in ((2, 3, 5), (2, 3, 7)):
        t = PrimeTriple(*primes)
        n, connectors = t.n, set(REAL["graph"].enumerate_connectors(t))
        for x in range(1, n // 2 + 1):
            yield f"pair {x} at {primes}", t, connectors ^ {x, n - x}


def _wrap(mp, module, name, edit):
    original = getattr(module, name)
    mp.setattr(module, name, lambda *args: edit(original(*args), *args))


def _wrap_ids(mp, module, edit):
    # the certificate's ids, edited before `block_residues` maps them
    original = module.block_residues
    mp.setattr(module, "block_residues", lambda t, ids: original(t, edit(ids, t)))


def plants():
    """(label, triple, plant(mp, mods)) for every plant, in census order;
    plant sets the fault in the modules mods."""
    for label, t, members in _connector_toggles():
        members = tuple(sorted(members))
        plant = lambda mp, mods, m=members: mp.setattr(mods["graph"], "enumerate_connectors", lambda t: m)
        yield label, t, plant
    origin, next_k = (0, 0, 0), (0, 0, 1)
    t235 = PrimeTriple(2, 3, 5)
    yield "class-0 residue 1", t235, lambda mp, mods: _wrap(
        mp, mods["parameters"], "block_residues", lambda zero, t, ids: sorted({*zero, 1})
    )
    ids_edits = [
        ("adjacent-index-ids", lambda ids, t: [origin, next_k] + ids[2:]),
        ("id-outside-the-lines", lambda ids, t: ids[:-1] + [t.primes]),
        *((f"index set {{{origin}, {o}}}", lambda ids, t, o=o: [origin, o] + ids[2:]) for o in ((0, 1, 0), (1, 0, 0))),
    ]
    for label, edit in ids_edits:
        yield label, t235, lambda mp, mods, e=edit: _wrap_ids(mp, mods["parameters"], e)
    yield "line-missing-an-edge", t235, lambda mp, mods: _wrap(
        mp, mods["structure"], "index_adjacent", lambda adj, x, y: adj and {x, y} != {origin, next_k}
    )
    members = tuple(REAL["graph"].enumerate_connectors(t235))
    member_lists = {
        "one-way members (1, 2)": tuple(sorted(members + (1, 2))),
        "swapped members": (members[1], members[0]) + members[2:],
    }
    for label, m in member_lists.items():
        yield label, t235, lambda mp, mods, m=m: mp.setattr(mods["graph"], "enumerate_connectors", lambda t: m)
    k, (m_a, m_b, _) = REAL["parameters"].clique_certificate(t235), t235.moduli
    for label, planted in (("K one short", k[:-1]), ("K one extra", k + (t235.gamma * m_a * m_b,))):
        plant = lambda mp, mods, p=planted: mp.setattr(mods["parameters"], "clique_certificate", lambda t: p)
        yield label, t235, plant
    walk, n = snake_walk(t235), t235.n
    faults = {name: w for name, w in _level_faults(walk, t235).items() if name != "certificate"}
    faults.update((f"identity level {step}@{i}", _with_identity(walk, i, step)) for i in range(4) for step in (0, n))
    for label, w in faults.items():
        yield f"walk {label}", t235, lambda mp, mods, w=w: mp.setattr(mods["report"], "snake_walk", lambda t: w)
    # the order-4 class alone: 225 + 225 = 450 is no member, so no triangle
    triangle_free = (225, 675)
    yield f"triangle-free members {triangle_free}", t235, lambda mp, mods: mp.setattr(
        mods["graph"], "enumerate_connectors", lambda t: triangle_free
    )


def run_census(context) -> dict[str, dict[str, str]]:
    """{function: {conjunct: the label of the first plant that fails it, or
    "none"}}, after checking that no conjunct fails, and every one is
    evaluated, on the true graphs, and that the copies give the real
    outcome under every plant.  context() opens a monkeypatch scope."""
    copies, recorder = instrumented()
    for primes in ((2, 3, 5), (2, 3, 7), (3, 5, 7)):
        t = PrimeTriple(*primes)
        assert _outcome(copies, t) == _outcome(REAL, t)
    assert recorder.failed == set()
    assert recorder.seen == set(recorder.rows)
    first = dict.fromkeys(recorder.rows, "none")
    for label, t, plant in plants():
        with context() as mp:
            plant(mp, REAL)
            real = _outcome(REAL, t)
        with context() as mp:
            plant(mp, copies)
            assert _outcome(copies, t) == real, label
        for row in recorder.failed:
            if first[row] == "none":
                first[row] = label
        recorder.failed.clear()
    census: dict[str, dict[str, str]] = {}
    for (where, text), label in first.items():
        census.setdefault(where, {})[text] = label
    return census


# The first plant that fails each conjunct, in the order of `plants()`.
CENSUS = {
    "graph.CayleyGraph.is_step_cycle": {
        "length >= 3": "walk identity level 0@0",
        "n // gcd(step, n) == length": "walk rows-1@0",
        "all(map(self.is_connector, ends))": "gcd class -36 at (2, 3, 5)",
    },
    "graph.CayleyGraph.is_connected": {
        "reached == t.n": "gcd class -36 at (2, 3, 5)",
    },
    "structure.verify_fiber_structure": {
        "all((m_ab <= x <= n - m_ab for x in g.members))": "gcd class +1 at (2, 3, 5)",
        "m_ab <= x": "gcd class +1 at (2, 3, 5)",
        "x <= n - m_ab": "gcd class +1 at (2, 3, 5)",
        "len(tops) == m_c - t.gamma": "gcd class -36 at (2, 3, 5)",
        "all((k % t.gamma for k in tops))": "gcd class +180 at (2, 3, 5)",
    },
    "structure.verify_block_adjacency": {
        "len(ids) == a + b + c - 3": "gcd class +1 at (2, 3, 5)",
        "all((index_adjacent((0, 0, 0), x) for x in ids))": "gcd class +1 at (2, 3, 5)",
    },
    "parameters.verify_coloring": {
        "len(zero) == len({r % ab for r in zero})": "class-0 residue 1",
        "len({r % ab for r in zero}) == ab": "adjacent-index-ids",
        "tiles": "K one short",
        "transversal": "class-0 residue 1",
        "scan.internal_edges == 0": "gcd class +1 at (2, 3, 5)",
    },
    "parameters.clique_tiles": {
        "len(clique) == len({k // m_ab % t.gamma for k in clique if k % m_ab == 0})": "K one extra",
        "len({k // m_ab % t.gamma for k in clique if k % m_ab == 0}) == t.gamma": "K one short",
    },
    "parameters.verify_index_bounds": {
        "all((len({(x[u], x[v]) for x in ids}) == len(ids) for u, v in ((0, 1), (0, 2), (1, 2))))": "class-0 residue 1",
        "len({(x[u], x[v]) for x in ids}) == len(ids)": "class-0 residue 1",
        "a * b == len(ids)": "class-0 residue 1",
    },
    "hamiltonian.verify_walk": {
        "not g.is_step_cycle(step, rows)": "gcd class -36 at (2, 3, 5)",
        "gcd(rows, size) != 1": "walk rows+1@1",
        "size == g.triple.n": "walk two-levels-without-0",
    },
    "report.certify": {
        "all((x < y for x, y in pairwise(chain((0,), members, (n,)))))": "swapped members",
        "x < y": "swapped members",
        "ascending": "swapped members",
        "all((x + y == n for x, y in zip(members, reversed(members))))": "one-way members (1, 2)",
        "x + y == n": "one-way members (1, 2)",
        "g.axis_plan[0] == t.primes": "gcd class +1 at (2, 3, 5)",
        "regular": "one-way members (1, 2)",
        "conn.connected": "gcd class -36 at (2, 3, 5)",
        "g.degree % 2 == 0": "gcd class +450 at (2, 3, 5)",
        "clique_ok": "gcd class -36 at (2, 3, 5)",
        "coloring.proper": "gcd class +1 at (2, 3, 5)",
        "clique_ok [2]": "gcd class -36 at (2, 3, 5)",
        "coloring.proper [2]": "gcd class +1 at (2, 3, 5)",
        "clique_ok [3]": "gcd class -36 at (2, 3, 5)",
        "coloring.tiles": "K one short",
        "index_ok": "class-0 residue 1",
        "scan.internal_edges == 0": "gcd class +1 at (2, 3, 5)",
        "block_adj": "gcd class +1 at (2, 3, 5)",
        "all(fiber.values())": "gcd class +1 at (2, 3, 5)",
        "diam.value == diam.bfs_eccentricity": "gcd class +1 at (2, 3, 5)",
        "diam.bfs_eccentricity == 6": "gcd class +1 at (2, 3, 5)",
    },
    # each line ANDs its verdict with its oracle
    "report.run_verification": {
        "c.verdicts['connecting-set']": "gcd class +1 at (2, 3, 5)",
        "scan_ok": "gcd class +1 at (2, 3, 5)",
        "c.verdicts['girth-nonplanarity']": "gcd class -36 at (2, 3, 5)",
        "found is not None": "triangle-free members (225, 675)",
        "c.verdicts['diameter']": "gcd class +1 at (2, 3, 5)",
        "sweep.mismatches == 0": "gcd class +1 at (2, 3, 5)",
    },
}

# The conjuncts that no plant fails, and why each stays in the package: the
# lemma candidates of schema v3.  A conjunct whose value is the same for
# every argument leaves the package instead, its proof kept in a docstring
# and a test.  This list only shrinks, and it is empty.
LEMMA_CANDIDATES: dict[str, dict[str, str]] = {}


def test_every_conjunct_fails_under_some_plant_or_is_a_lemma_candidate(monkeypatch):
    census = run_census(monkeypatch.context)
    assert not any(hasattr(module, "_census") for module in REAL.values())
    unreached = [(where, text) for where, rows in census.items() for text, label in rows.items() if label == "none"]
    assert unreached == _rows(LEMMA_CANDIDATES)
    assert census == CENSUS


def _rows(table: dict[str, dict[str, str]]) -> list[tuple[str, str]]:
    return [(where, text) for where, rows in table.items() for text in rows]
