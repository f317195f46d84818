"""Which `verify` line and which fiber item catch which gcd-class fault.

C is the union of the gcd classes {x : gcd(x, n) = n/p²}, p in (a, b, c):
the elements of order p².  Toggling one whole class {x : gcd(x, n) = d},
0 < d < n, in or out of C keeps C a union of gcd classes, so each triple
has 26 such faults.  The table below is what `run_verification(t, 0)` says
under each: a row names the toggled class (+d added to C, -d removed from
it), then marks each failing line by its letter and lists the failing fiber
items.  A later change that makes a check vacuous changes its column and
fails the test.
"""

from math import gcd

import pytest

from psqcayley import graph, make_prime_triple, report, run_verification

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
# fiber items (iv), (v) and (vi), the index bounds and the block partition
# read no connector: they are facts about Z_n, and no toggle of C fails them
Z_N_FACTS = ("iv", "v", "vi", "index bounds", "block partition")
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
    t = make_prime_triple(*primes)
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
        facts = {**fiber, "index bounds": c.index_bounds[:2] == (True, True), "block partition": c.block_partition}
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
    t = make_prime_triple(*primes)
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
