"""Which `verify` line and which fiber item catch which gcd-class fault,
and which `params` verdict.

C is the union of the gcd classes {x : gcd(x, n) = n/p²}, p in (a, b, c):
the elements of order p².  Toggling one whole class {x : gcd(x, n) = d},
0 < d < n, in or out of C keeps C a union of gcd classes, so each triple
has 26 such faults.  The table below is what `run_verification(t, 0)` says
under each: a row names the toggled class (+d added to C, -d removed from
it), then marks each failing line by its letter and lists the failing fiber
items.  A later change that makes a check vacuous changes its column and
fails the test.  Beside both tables, `params` runs under the same toggles:
its false verdicts and `verify`'s FAIL lines must agree.
"""

import json
from math import gcd

import pytest

from psqcayley import cli, graph, oracles, report
from psqcayley.graph import CayleyGraph
from psqcayley.group import PrimeTriple
from psqcayley.report import run_verification

from helpers import divisors

LINES = {
    "C": "connecting-set",
    "R": "regular-eulerian-connected",
    "G": "girth-nonplanarity",
    "K": "clique",
    "X": "chromatic",
    "I": "independence",
    "S": "structure",
    "D": "diameter",
    "H": "hamiltonian",
}
# fiber items (iv), (v) and (vi) are lemmas of every triple, stated as true,
# and the index bounds read no connector: no toggle of C fails them
Z_N_FACTS = ("iv", "v", "vi", "index bounds")
READS_C = ("i", "ii", "iii", "vii", "viii")

FAULT_MATRIX = {
    (2, 3, 5): """
        +1     C..KXISD.  i
        +2     C..KXISD.  i
        +3     C..KXISD.  i
        +4     C..KXISD.  i
        +5     C..KXISD.  i
        +6     C.....SD.  i
        +9     C..KXISD.  i
        +10    C.....SD.  i
        +12    C.....SD.  i
        +15    C.....SD.  i
        +18    C.....SD.  i
        +20    C.....SD.  i
        +25    C..KXISD.  i
        +30    C..KXISD.  i
        -36    CRGKXISDH  ii iii
        +45    C......D.
        +50    C......D.
        +60    C..KXISD.
        +75    C......D.
        +90    C..KXISD.
        -100   CR....SDH  viii
        +150   C..KXISD.
        +180   C..KXISD.  ii
        -225   CR....SDH  vii
        +300   C..KXISD.
        +450   CR.KXISD.
    """,
    (3, 5, 7): """
        +1     C..KXISD.  i
        +3     C..KXISD.  i
        +5     C..KXISD.  i
        +7     C..KXISD.  i
        +9     C..KXISD.  i
        +15    C.....SD.  i
        +21    C.....SD.  i
        +25    C..KXISD.  i
        +35    C.....SD.  i
        +45    C.....SD.  i
        +49    C..KXISD.  i
        +63    C.....SD.  i
        +75    C.....SD.  i
        +105   C..KXISD.  i
        +147   C.....SD.  i
        +175   C.....SD.  i
        -225   CRGKXISDH  ii iii
        +245   C......D.
        +315   C..KXISD.
        -441   CR....SDH  viii
        +525   C..KXISD.
        +735   C..KXISD.
        -1225  CR....SDH  vii
        +1575  C..KXISD.  ii
        +2205  C..KXISD.
        +3675  C..KXISD.
    """,
}


@pytest.mark.parametrize("primes", FAULT_MATRIX, ids=lambda p: ",".join(map(str, p)))
def test_each_gcd_class_toggle_fails_the_lines_of_its_row(primes, monkeypatch):
    t = PrimeTriple(*primes)
    n = t.n
    connectors = set(graph.enumerate_connectors(t))
    certified = []
    certify = report.certify
    monkeypatch.setattr(report, "certify", lambda t: certified.append(certify(t)) or certified[-1])
    rows, failed_lines, failed_items = [], set(), set()
    for d in divisors(n)[:-1]:
        cls = {d * k for k in range(1, n // d) if gcd(k, n // d) == 1}
        inside = cls <= connectors
        members = tuple(sorted(connectors - cls if inside else connectors | cls))
        monkeypatch.setattr(graph, "enumerate_connectors", lambda t: members)
        failed = {line.split(":")[0][5:] for line in run_verification(t, 0).lines if line.startswith("FAIL")}
        c = certified[-1]
        fiber = c.fiber
        items = [k for k, ok in fiber.items() if not ok]
        marks = "".join(k if name in failed else "." for k, name in LINES.items())
        rows.append(f"{'-' if inside else '+'}{d:<5} {marks}  {' '.join(items)}".rstrip())
        failed_lines |= failed
        failed_items |= set(items)
        facts = {**fiber, "index bounds": c.index_bounds}
        assert all(facts[fact] for fact in Z_N_FACTS), (d, facts)
    assert rows == [row.strip() for row in FAULT_MATRIX[primes].strip().splitlines()]
    # every line and every fiber item that reads C fails under some toggle
    assert failed_lines == set(LINES.values())
    assert failed_items == set(READS_C)


# Toggling a symmetric pair {x, n − x}, 0 < x ≤ n/2, in or out of C keeps
# the graph undirected; unless x = n/2 it also stays regular of even
# degree.  Per triple: the number of toggles, then how many of them fail
# each line, in the order of LINES.  Every toggle fails at least two lines.
PAIR_CENSUS = {
    (2, 3, 5): (450, {"C": 450, "R": 2, "G": 4, "K": 199, "X": 199, "I": 199, "S": 364, "D": 450, "H": 3}),
    (2, 3, 7): (882, {"C": 882, "R": 2, "G": 4, "K": 321, "X": 321, "I": 321, "S": 724, "D": 882, "H": 3}),
    (3, 5, 7): (5512, {"C": 5512, "R": 0, "G": 4, "K": 2368, "X": 2368, "I": 2368, "S": 4929, "D": 5512, "H": 3}),
}


@pytest.mark.parametrize(
    "primes",
    [(2, 3, 5), (2, 3, 7), pytest.param((3, 5, 7), marks=pytest.mark.slow)],
    ids=lambda p: ",".join(map(str, p)),
)
def test_each_pair_toggle_fails_the_census_count_of_lines(primes, monkeypatch):
    t = PrimeTriple(*primes)
    n = t.n
    connectors = set(graph.enumerate_connectors(t))
    counts = dict.fromkeys(LINES, 0)
    toggles = 0
    for x in range(1, n // 2 + 1):
        members = tuple(sorted(connectors ^ {x, n - x}))
        monkeypatch.setattr(graph, "enumerate_connectors", lambda t: members)
        failed = {line.split(":")[0][5:] for line in run_verification(t, 0).lines if line.startswith("FAIL")}
        assert len(failed) >= 2, (x, failed)
        for k, name in LINES.items():
            counts[k] += name in failed
        toggles += 1
    assert (toggles, counts) == PAIR_CENSUS[primes]


# The params column: under each table's toggles at each triple, how many
# make `params` exit 1, and how many fail each verdict, in the order of
# LINES.  Only the connecting-set, girth and diameter lines have an oracle
# besides their verdict, so each other count equals its line's count in
# the table; here every toggle fails some verdict.
PARAMS_COLUMN = {
    ("classes", (2, 3, 5)): (26, {"C": 26, "R": 4, "G": 1, "K": 15, "X": 15, "I": 15, "S": 23, "D": 26, "H": 3}),
    ("classes", (3, 5, 7)): (26, {"C": 26, "R": 3, "G": 1, "K": 15, "X": 15, "I": 15, "S": 25, "D": 26, "H": 3}),
    ("pairs", (2, 3, 5)): (450, {"C": 450, "R": 2, "G": 4, "K": 199, "X": 199, "I": 199, "S": 364, "D": 436, "H": 3}),
    ("pairs", (2, 3, 7)): (882, {"C": 882, "R": 2, "G": 4, "K": 321, "X": 321, "I": 321, "S": 724, "D": 851, "H": 3}),
    ("pairs", (3, 5, 7)): (
        5512,
        {"C": 5512, "R": 0, "G": 4, "K": 2368, "X": 2368, "I": 2368, "S": 4929, "D": 5450, "H": 3},
    ),
}


def _toggled_members(table, t):
    """The member lists of FAULT_MATRIX's gcd-class toggles ("classes") or
    of PAIR_CENSUS's pair toggles ("pairs") at t."""
    n, connectors = t.n, set(graph.enumerate_connectors(t))
    if table == "classes":
        for d in divisors(n)[:-1]:
            cls = {d * k for k in range(1, n // d) if gcd(k, n // d) == 1}
            yield tuple(sorted(connectors - cls if cls <= connectors else connectors | cls))
    else:
        for x in range(1, n // 2 + 1):
            yield tuple(sorted(connectors ^ {x, n - x}))


@pytest.mark.parametrize(
    "table, primes",
    [key if key != ("pairs", (3, 5, 7)) else pytest.param(*key, marks=pytest.mark.slow) for key in PARAMS_COLUMN],
    ids=lambda v: v if isinstance(v, str) else ",".join(map(str, v)),
)
def test_params_fails_the_verdicts_of_the_lines_that_verify_fails(table, primes, monkeypatch, capsys):
    # verify ANDs each verdict with its line's oracle, so its FAIL lines are
    # the false verdicts and the lines whose oracle failed; params writes
    # the same verdicts and exits 1 iff one is false
    t = PrimeTriple(*primes)
    exits, counts = 0, dict.fromkeys(LINES, 0)
    for members in _toggled_members(table, t):
        monkeypatch.setattr(graph, "enumerate_connectors", lambda t: members)
        code = cli.main(["params", "--primes", ",".join(map(str, primes))])
        verdicts = json.loads(capsys.readouterr().out)["verdicts"]
        assert list(verdicts) == list(LINES.values())
        false = {name for name, ok in verdicts.items() if not ok}
        assert code == (1 if false else 0)
        g = CayleyGraph.from_triple(t)
        oracles_held = {
            "connecting-set": oracles.order_scan(g)[0],
            "girth-nonplanarity": oracles.find_triangle(g) is not None,
            "diameter": oracles.distance_sweep(g, 0).mismatches == 0,
        }
        failed = {line.split(":")[0][5:] for line in run_verification(t, 0).lines if line.startswith("FAIL")}
        assert failed == false | {name for name, held in oracles_held.items() if not held}, members
        exits += code
        for k, name in LINES.items():
            counts[k] += name in false
    assert (exits, counts) == PARAMS_COLUMN[table, primes]
