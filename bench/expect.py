"""Independent expectations for psqcayley CLI output.

Every expected value is computed here from the three primes alone, by plain
arithmetic on the cyclic group of order n = (abc)^2: a vertex pair is an edge
exactly when the order n / gcd(n, v - u) of its difference is a^2, b^2 or
c^2.  Nothing here imports psqcayley or uses its closed forms.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import bisect
import json
import math
from functools import lru_cache


def group_order(p: tuple[int, int, int]) -> int:
    a, b, c = p
    return (a * b * c) ** 2


def connector_count(p: tuple[int, int, int]) -> int:
    a, b, c = p
    return a * a + b * b + c * c - a - b - c


def edge_count(p: tuple[int, int, int]) -> int:
    return group_order(p) * connector_count(p) // 2


def independence_number(p: tuple[int, int, int]) -> int:
    a, b, c = p
    return a * a * b * b * c


@lru_cache(maxsize=None)
def connector_flags(p: tuple[int, int, int]) -> bytes:
    """flags[d] == 1 iff the difference d has order a^2, b^2 or c^2, found by
    a full gcd scan of the group."""
    n = group_order(p)
    orders = {q * q for q in p}
    flags = bytearray(n)
    for d in range(1, n):
        if n // math.gcd(n, d) in orders:
            flags[d] = 1
    if sum(flags) != connector_count(p):
        raise AssertionError(f"order scan of {p} disagrees with the connector count")
    return bytes(flags)


def _bitset(vertices: list[int], n: int) -> int:
    bits = bytearray((n + 7) // 8)
    for v in vertices:
        bits[v >> 3] |= 1 << (v & 7)
    return int.from_bytes(bits, "little")


def _independent(vertices: list[int], p: tuple[int, int, int]) -> bool:
    """No two members differ by a connector: rot(S, d) & S == 0 for every
    connector d (half of them suffice, since the set is closed under -d)."""
    n = group_order(p)
    flags = connector_flags(p)
    s = _bitset(vertices, n)
    mask = (1 << n) - 1
    for d in range(1, n // 2 + 1):
        if flags[d] and (((s << d) | (s >> (n - d))) & mask) & s:
            return False
    return True


def _walk_problems(vertices: list[int], closed: bool, p: tuple[int, int, int]) -> list[str]:
    n = group_order(p)
    if len(vertices) != n:
        return [f"walk has {len(vertices)} vertices, expected {n}"]
    if sorted(vertices) != list(range(n)):
        return ["walk is not a permutation of [0, n)"]
    flags = connector_flags(p)
    for i in range(n - 1):
        if not flags[(vertices[i + 1] - vertices[i]) % n]:
            return [f"walk step {i} is not an edge"]
    if closed and not flags[(vertices[0] - vertices[-1]) % n]:
        return ["cycle does not close"]
    return []


def _edge_list_problems(data: bytes, p: tuple[int, int, int], line: bytes, head: bytes,
                        tail: bytes) -> list[str]:
    """The export must equal the edge list built here: for u ascending, one
    line (u, u + d) for each connector d < n - u, ascending."""
    n = group_order(p)
    flags = connector_flags(p)
    conns = [d for d in range(1, n) if flags[d]]
    view = memoryview(data)
    if view[: len(head)] != head:
        return ["export header differs"]
    pos = len(head)
    for u in range(n):
        row = b"".join([line % (u, u + d) for d in conns[: bisect.bisect_left(conns, n - u)]])
        if view[pos : pos + len(row)] != row:
            return [f"edge lines of vertex {u} differ from the expected edge list"]
        pos += len(row)
    if view[pos:] != tail:
        return ["export has extra lines or lacks its footer"]
    return []


def check_params(text: str, p: tuple[int, int, int], seed: int) -> list[str]:
    try:
        rep = json.loads(text)
        a, b, c = p
        n = group_order(p)
        got = {
            "primes": tuple(rep["primes"][k] for k in ("alpha", "beta", "gamma")),
            "n": rep["n"],
            "cSize": rep["cSize"],
            "connected.bfsReached": rep["connected"]["bfsReached"],
            "chromatic.value": rep["chromatic"]["value"],
            "chromatic.coloringProper": rep["chromatic"]["coloringProper"],
            "independence.value": rep["independence"]["value"],
            "independence.internalEdges": rep["independence"]["internalEdges"],
            "diameter.value": rep["diameter"]["value"],
            "diameter.bfsEccentricity": rep["diameter"]["bfsEccentricity"],
            "hamiltonian.verified": rep["hamiltonian"]["verified"],
            "oracleSeed": rep["oracleSeed"],
        }
    except (ValueError, KeyError, TypeError) as exc:
        return [f"params report unreadable: {exc!r}"]
    want = {
        "primes": p,
        "n": n,
        "cSize": connector_count(p),
        "connected.bfsReached": n,
        "chromatic.value": c,
        "chromatic.coloringProper": True,
        "independence.value": independence_number(p),
        "independence.internalEdges": 0,
        "diameter.value": 6,
        "diameter.bfsEccentricity": 6,
        "hamiltonian.verified": True,
        "oracleSeed": seed,
    }
    return [f"params {k}={got[k]!r}, expected {v!r}" for k, v in want.items() if got[k] != v]


VERIFY_CHECKS = (
    "connecting-set",
    "regular-eulerian-connected",
    "girth-nonplanarity",
    "clique",
    "chromatic",
    "independence",
    "diameter",
    "hamiltonian",
)


def parse_verify(text: str) -> tuple[dict[str, tuple[str, str]], str]:
    """{check name: (status, detail)} and the final summary line."""
    lines = text.splitlines()
    checks: dict[str, tuple[str, str]] = {}
    for line in lines[:-1]:
        status, _, rest = line.partition(" ")
        name, _, detail = rest.partition(": ")
        checks[name] = (status, detail)
    return checks, lines[-1] if lines else ""


def check_verify(text: str, rc: int, p: tuple[int, int, int], sources: int) -> list[str]:
    """Every check except `structure` must PASS; `structure` must PASS when
    a = 2 and is only recorded otherwise.  The exit code must agree with the
    lines.  `sources` is the expected number of distance-sweep sources."""
    checks, summary = parse_verify(text)
    problems = []
    statuses = [s for s, _ in checks.values()]
    if any(s not in ("PASS", "FAIL", "SKIP") for s in statuses):
        problems.append(f"unknown verdict in {statuses}")
    any_fail = "FAIL" in statuses
    want_summary = "verification FAILED" if any_fail else "verification OK"
    if rc != int(any_fail) or not summary.startswith(want_summary):
        problems.append(f"exit code {rc} and summary {summary!r} disagree with verdicts {statuses}")
    for name in VERIFY_CHECKS:
        if checks.get(name, ("missing",))[0] != "PASS":
            problems.append(f"verify {name}: {checks.get(name, ('missing',))[0]}")
    if p[0] == 2 and checks.get("structure", ("missing",))[0] != "PASS":
        problems.append("verify structure must PASS when a = 2")
    n = group_order(p)
    details = {
        "connecting-set": f"|C|={connector_count(p)},",
        "regular-eulerian-connected": f"reached={n}/{n}",
        "diameter": f"max=6, mismatches=0 over {sources * n} pairs from {sources} sources",
    }
    for name, needle in details.items():
        if name in checks and needle not in checks[name][1]:
            problems.append(f"verify {name} detail lacks {needle!r}: {checks[name][1]!r}")
    return problems


def check_build(text: str, p: tuple[int, int, int]) -> list[str]:
    k = connector_count(p)
    want = f"primes: {p[0]},{p[1]},{p[2]}\nn: {group_order(p)}\n|C|: {k}\ndegree: {k}\n"
    return [] if text == want else [f"build printed {text!r}, expected {want!r}"]


def check_hamiltonian(text: str, p: tuple[int, int, int]) -> list[str]:
    fields = dict(line.partition(": ")[::2] for line in text.splitlines())
    problems = []
    if fields.get("kind") not in ("cycle", "path"):
        problems.append(f"hamiltonian kind {fields.get('kind')!r}")
    if fields.get("length") != str(group_order(p)):
        problems.append(f"hamiltonian length {fields.get('length')!r}, expected {group_order(p)}")
    if fields.get("verified") != "True":
        problems.append(f"hamiltonian verified {fields.get('verified')!r}")
    return problems


def check_export(fmt: str, data: bytes, p: tuple[int, int, int]) -> list[str]:
    if fmt == "edges":
        return _edge_list_problems(data, p, b"%d %d\n", b"", b"")
    if fmt == "dot":
        return _edge_list_problems(data, p, b"  %d -- %d;\n", b"graph cayley {\n", b"}\n")
    if not data.endswith(b"\n"):
        return [f"{fmt} export does not end with a newline"]
    lines = data[:-1].split(b"\n")
    try:
        verts = [int(x) for x in (lines[1:] if fmt == "walk" else lines)]
    except ValueError:
        return [f"{fmt} export has a line that is not a vertex"]
    if fmt == "walk":
        kind = lines[0].decode("ascii", "replace")
        if kind not in ("cycle", "path"):
            return [f"walk header {kind!r}"]
        return _walk_problems(verts, kind == "cycle", p)
    if fmt == "independent-set":
        n = group_order(p)
        if len(verts) != independence_number(p):
            return [f"independent set has {len(verts)} vertices, expected {independence_number(p)}"]
        if len(set(verts)) != len(verts) or not all(0 <= v < n for v in verts):
            return ["independent set has repeated or out-of-range vertices"]
        if not _independent(verts, p):
            return ["independent set contains an edge"]
        return []
    return [f"unknown export format {fmt!r}"]
