import hashlib
import json
import math
import traceback
import tracemalloc
from collections import Counter

import pytest

from psqcayley import cli, graph, parameters
from psqcayley import connectors as connectors_mod
from psqcayley import oracles as oracles_mod
from psqcayley.connectors import enumerate_connectors
from psqcayley.graph import CayleyGraph
from psqcayley.group import PrimeTriple, is_prime
from psqcayley.hamiltonian import WalkCertificate
from psqcayley.oracles import SweepReport, distance_sweep
from psqcayley.parameters import clique_certificate, independence_certificate
from psqcayley.report import build_report, certify, report_bytes, run_verification

from helpers import (
    BIG_PRIME,
    certificate_color,
    count_level_builds,
    prime_factors,
    record_primality_tests,
    triples_with_group_order_at_most,
)
from test_fault_matrix import LINES

T235 = PrimeTriple(2, 3, 5)
T357 = PrimeTriple(3, 5, 7)

EXPECTED_KEYS = [
    "schemaVersion",
    "primes",
    "n",
    "cSize",
    "connected",
    "girth",
    "nonplanar",
    "clique",
    "chromatic",
    "independence",
    "indexGraphMIS",
    "diameter",
    "hamiltonian",
    "fiberStructure",
    "blockPartition",
    "blockAdjacencyConsistent",
    "verdicts",
    "oracleSeed",
    "timings",
]


# schema v3: each section states each value once
EXPECTED_SECTION_KEYS = {
    "primes": ["alpha", "beta", "gamma"],
    "connected": ["bezout", "bfsReached"],
    "girth": ["value", "triangle"],
    "nonplanar": ["k5"],
    "clique": ["value", "certificate"],
    "chromatic": ["value", "coloringProper", "edgesChecked"],
    "independence": ["value", "internalEdges"],
    "diameter": ["value", "witnessPair", "bfsEccentricity"],
    "hamiltonian": ["verified", "endpoints"],
}


def test_report_key_order_is_stable():
    rep = build_report(T235)
    assert rep["schemaVersion"] == 3
    assert list(rep.keys()) == EXPECTED_KEYS
    assert {k: list(rep[k]) for k in EXPECTED_SECTION_KEYS} == EXPECTED_SECTION_KEYS


def test_report_values_small_instance():
    rep = build_report(T235)
    assert rep["n"] == 900
    assert rep["cSize"] == 28
    assert rep["connected"] == {"bezout": [1, 1, -9], "bfsReached": 900}
    assert rep["girth"] == {"value": 3, "triangle": [0, 36, 72]}
    assert rep["nonplanar"]["k5"] == [0, 36, 72, 108, 144]
    assert rep["clique"]["value"] == 5
    assert rep["chromatic"] == {"value": 5, "coloringProper": True, "edgesChecked": 12600}
    assert rep["independence"] == {"value": 180, "internalEdges": 0}
    assert rep["indexGraphMIS"] == 6
    assert rep["diameter"] == {"value": 6, "witnessPair": [0, 30], "bfsEccentricity": 6}
    assert rep["hamiltonian"] == {"verified": True, "endpoints": [0, 225]}
    assert rep["fiberStructure"] == {k: True for k in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")}
    assert rep["blockPartition"] is True
    assert rep["blockAdjacencyConsistent"] is True
    assert rep["verdicts"] == dict.fromkeys(LINES.values(), True)
    assert rep["timings"] is None


def test_report_eulerian_with_even_degree():
    rep = build_report(T357)
    assert rep["cSize"] == 68
    assert rep["verdicts"]["regular-eulerian-connected"] is True


def test_report_round_trip_and_determinism():
    rep = build_report(T235, seed=7)
    payload = report_bytes(rep)
    parsed = json.loads(payload)
    assert parsed == json.loads(report_bytes(build_report(T235, seed=7)))
    assert payload == report_bytes(build_report(T235, seed=7))


def test_report_timings_opt_in():
    rep = build_report(T235, include_timings=True)
    assert isinstance(rep["timings"], dict)
    assert all(v >= 0 for v in rep["timings"].values())


def test_verification_passes_small_instance():
    outcome = run_verification(T235, 20)
    assert outcome.ok
    assert all(line.startswith("PASS") for line in outcome.lines)
    assert len(outcome.lines) == 9


@pytest.mark.parametrize("extra", [(1, 2), (36, 864)], ids=["one-way", "repeated"])
def test_regularity_catches_a_connector_set_that_is_not_symmetric(extra, monkeypatch):
    # (1, 2) lack their negatives; (36, 864) repeat members, so |C| = 30
    # counts 28 distinct neighbours.  |C| stays even and the graph connected.
    def planted(t):
        return tuple(sorted(enumerate_connectors(t) + extra))

    monkeypatch.setattr(graph, "enumerate_connectors", planted)
    lines = run_verification(T235, 0).lines
    status = {line.split(":")[0]: line for line in lines}
    assert "FAIL connecting-set" in status
    assert status["FAIL regular-eulerian-connected"].endswith("reached=900/900")


@pytest.mark.parametrize("extra", [(1, 2), (36, 864)], ids=["one-way", "repeated"])
def test_params_eulerian_is_the_regularity_verdict_of_verify(extra, monkeypatch):
    # certify decides regularity once: the report's verdict and verify's
    # regular-eulerian-connected line are the same entry, so a connected
    # graph of even degree that is not regular is no Eulerian report
    monkeypatch.setattr(graph, "enumerate_connectors", lambda t: tuple(sorted(enumerate_connectors(t) + extra)))
    assert build_report(T235)["verdicts"]["regular-eulerian-connected"] is False
    status = {line.split(":")[0] for line in run_verification(T235, 0).lines}
    assert "FAIL regular-eulerian-connected" in status


@pytest.mark.parametrize(
    "extra, edges",
    [((), 12600), ((1, 2), 14400), ((36, 864), 12600), ((450,), 13050)],
    ids=["true", "one-way", "repeated", "n/2"],
)
def test_edges_checked_is_the_edge_count_of_the_graph(extra, edges, monkeypatch):
    # a one-way member adds n edges, a repeated one none and n/2 adds n/2:
    # the count is n·|S|/2 over the distinct nonzero steps S = ±C, not n·|C|/2
    monkeypatch.setattr(graph, "enumerate_connectors", lambda t: tuple(sorted(enumerate_connectors(t) + extra)))
    n, members = T235.n, CayleyGraph.from_triple(T235).members
    assert len({frozenset((v, (v + c) % n)) for v in range(n) for c in members}) == edges
    assert build_report(T235)["chromatic"]["edgesChecked"] == edges
    [line] = [line for line in run_verification(T235, 0).lines if line.split(":")[0].endswith(" chromatic")]
    assert f" over {edges} edges (exhaustive)," in line


@pytest.mark.parametrize("planted", ["n", "-1"])
def test_an_out_of_range_member_fails_the_connecting_set_line(planted, monkeypatch, capsys):
    # a member outside [0, n) fails the order scan, whose elements all lie
    # in [0, n), and verify still prints every line
    def members(t):
        return tuple(sorted(enumerate_connectors(t) + ({"n": t.n, "-1": -1}[planted],)))

    monkeypatch.setattr(graph, "enumerate_connectors", members)
    assert cli.main(["verify", "--primes", "2,3,5", "--budget-sources", "0"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and len(lines) == 10 and lines[-1] == "verification FAILED"
    assert lines[0] == "FAIL connecting-set: |C|=29, formula=28, order-scan=28"


def test_regularity_fails_distinct_members_out_of_order(monkeypatch):
    # the first two members swapped: the set is still C, so the order scan
    # matches, but membership bisects the members and the bands read them in
    # order, so the regularity line requires them ascending, and the
    # connecting-set verdict, the merge against the ascending classes, fails
    def swapped(t):
        members = enumerate_connectors(t)
        return (members[1], members[0]) + members[2:]

    monkeypatch.setattr(graph, "enumerate_connectors", swapped)
    status = {line.split(":")[0]: line for line in run_verification(T235, 0).lines}
    assert status["FAIL connecting-set"] == "FAIL connecting-set: |C|=28, formula=28, order-scan=28"
    assert status["FAIL regular-eulerian-connected"].endswith("reached=900/900")


def test_connecting_set_verdict_is_the_merge_against_the_classes(monkeypatch, capsys):
    # {36, 864} replaced by {37, 863} at (2,3,5): |C| still equals the
    # formula, but the members are not the order-p² classes, so `params`
    # writes the verdict false, as `verify`'s line, ANDed with the order
    # scan, fails
    members = tuple(sorted(set(enumerate_connectors(T235)) - {36, 864} | {37, 863}))
    monkeypatch.setattr(graph, "enumerate_connectors", lambda t: members)
    assert cli.main(["params", "--primes", "2,3,5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["cSize"] == 28 and report["verdicts"]["connecting-set"] is False
    assert run_verification(T235, 0).lines[0] == "FAIL connecting-set: |C|=28, formula=28, order-scan=28"


def test_params_diameter_verdict_reads_the_witness_level(monkeypatch, capsys):
    # under the pair toggle ±180 at (2,3,5) the BFS eccentricity stays 6,
    # but the witness pair lies at distance 5, so the verdict is false
    members = tuple(sorted(set(enumerate_connectors(T235)) ^ {180, T235.n - 180}))
    monkeypatch.setattr(graph, "enumerate_connectors", lambda t: members)
    assert cli.main(["params", "--primes", "2,3,5"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["diameter"] == {"value": 5, "witnessPair": [0, 30], "bfsEccentricity": 6}
    assert report["verdicts"]["diameter"] is False


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count the calls of CayleyGraph.from_triple from now on.  The per-vertex
    labels (block_of, certificate_color) live only in tests/helpers.py, so the
    package cannot evaluate them; building one graph is what is left to count."""
    calls = {"from_triple": 0}
    build = CayleyGraph.from_triple.__func__

    def counted_build(cls, t):
        calls["from_triple"] += 1
        return build(cls, t)

    monkeypatch.setattr(CayleyGraph, "from_triple", classmethod(counted_build))
    return calls


def test_certify_builds_one_graph_and_evaluates_no_vertex_label(monkeypatch):
    for t in (T235, T357):
        with monkeypatch.context() as m:
            calls = _count_builds(m)
            certify(t)
            assert calls == {"from_triple": 1}


VERIFY_235_SEED_7 = """\
PASS connecting-set: |C|=28, formula=28, order-scan=28
PASS regular-eulerian-connected: degree=28, bezout=(1, 1, -9), reached=900/900
PASS girth-nonplanarity: triangle=(0, 36, 72), k5=(0, 36, 72, 108, 144), scan=(0, 36, 72)
PASS clique: certificate=5 <= omega <= chi <= 5 (coloring proper=True), gamma=5
PASS chromatic: proper=True over 12600 edges (exhaustive), value=5
PASS independence: size=180 <= alpha <= 180 (cover by translates of K: True), \
internal=0/16110 pairs, index-MIS=6 (index bounds: True)
PASS structure: fiber={'i': True, 'ii': True, 'iii': True, 'iv': True, 'v': True, \
'vi': True, 'vii': True, 'viii': True}, partition=True, blockAdjacency=True
PASS diameter: max=6, mismatches=0 over 810000 pairs from 900 sources
PASS hamiltonian: kind=cycle, length=900, endpoints=(0, 225)
verification OK
"""


def test_cli_verify_stdout_is_pinned(capsys):
    # --seed is accepted and read by no check: every seed prints these bytes
    for seed in ("1", "7", "12345"):
        assert cli.main(["verify", "--primes", "2,3,5", "--seed", seed]) == 0
        assert capsys.readouterr().out == VERIFY_235_SEED_7, seed


def test_cli_params_bytes_are_pinned(capsys):
    # (3,5,11) lies above the export cap
    pinned = {
        "2,3,5": "aee76ab525b4f6682e3ae075b92b8d0a81ca6d588622ed1dc85c06c0c76b2210",
        "3,5,11": "bdc30573b5c0c0707476e29d1d4e744759a2dc82de48941d6c227f6ab27225b8",
        "5,7,11": "1f8182508e74460df70385b47103d91ea5c9817cf90cf15d0001c019a1cea04f",
    }
    for primes, expected in pinned.items():
        assert cli.main(["params", "--primes", primes, "--seed", "7"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest() == expected


def test_cli_build(capsys):
    code = cli.main(["build", "--primes", "2,3,5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n: 900" in out
    assert "|C|: 28" in out


def test_cli_build_rejects_composite(capsys):
    code = cli.main(["build", "--primes", "4,3,5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "not prime" in err


def test_cli_build_with_an_oversized_prime_exits_2_at_once(capsys, monkeypatch):
    seen = record_primality_tests(monkeypatch)
    code = cli.main(["build", "--primes", f"2,3,{BIG_PRIME}"])
    captured = capsys.readouterr()
    assert code == 2 and seen == []
    assert captured.out == ""
    assert captured.err.startswith("error: group order ") and captured.err.count("\n") == 1


def test_cli_usage_errors(tmp_path, capsys, monkeypatch):
    # every refusal, a ValueError wherever it is raised, is exactly one
    # `error:` line on stderr, exit 2, no output and no file
    work, cfg = tmp_path / "work", tmp_path / "bad.cfg"
    work.mkdir()
    cfg.write_text("materialize-cap = 5\nbogus = 3\n")
    monkeypatch.chdir(work)
    for argv, message in [
        ([], "expected a subcommand, one of build, params, verify, export, hamiltonian"),
        (["nonsense", "--primes", "2,3,5"], "expected a subcommand, one of build, params, verify, export, hamiltonian"),
        (["build", "--primes", "2,3"], "--primes expects three comma-separated integers, got '2,3'"),
        (["verify", "--seed", "7"], "verify requires --primes"),
        (["export", "--primes", "2,3,5", "--format", "gml", "--out", "x"], "--format must be edges, dot, walk or independent-set, got 'gml'"),
        (["export", "--primes", "2,3,5", "--format", "walk"], "export requires --out"),
        (["export", "--primes", "2,3,5", "--out", "x"], "export requires --format"),
        (["verify", "--primes", "2,3,5", "--seed", "x"], "--seed expects an integer, got 'x'"),
        (["params", "--primes", "2,3,5", "--out"], "--out expects a value"),
        (["params", "--primes", "2,3,5", "--out", "--timings"], "--out expects a value"),
        (["params", "--primes", "2,3,5", "--timings=1"], "--timings takes no value"),
        # the triple is not an instance
        (["build", "--primes", "4,3,5"], "4 is not prime"),
        (["build", "--primes", "2,2,5"], "primes must be distinct, got (2, 2, 5)"),
        (["build", "--primes", "3,2,5"], "primes must be ascending, got (3, 2, 5)"),
        (["build", "--primes", "2,3,2147483647"], "group order 166020696508767141924 exceeds 64-bit range"),
        # the graph is too large for the export's cap or the memory limit
        (["export", "--primes", "3,5,11", "--format", "edges", "--out", "x"], "27225 vertices exceed cap 20000"),
        (["params", "--primes", "19,23,29", "--out", "x"], "n = 160604929 needs about 3675 MiB, above the limit of 2048 MiB"),
        # an option value or a config key that no command accepts
        (["verify", "--primes", "2,3,5", "--budget-sources", "-1"], "--budget-sources must be nonnegative"),
        (
            ["export", "--primes", "2,3,5", "--format", "walk", "--out", "x", "--config", str(cfg)],
            f"{cfg}:2: unknown key 'bogus'",
        ),
    ]:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), argv
    assert list(work.iterdir()) == []

    def run(argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    # `--opt=value` is accepted, and a repeated option keeps its last value
    build = run(["build", "--primes", "2,3,5"])
    assert run(["build", "--primes=2,3,5"]) == build
    assert run(["build", "--primes", "2,3,7", "--primes=2,3,5"]) == build
    assert run(["params", "--primes", "2,3,5", "--seed", "1", "--seed=7"]) == run(["params", "--primes", "2,3,5", "--seed", "7"])
    # help lists every subcommand and each of its options
    for argv in (["-h"], ["--help"], ["verify", "--help"]):
        code, out = run(argv)
        assert code == 0
        for command, options in cli.OPTIONS.items():
            assert command in out and all(option in out for option in options)


def test_cli_missing_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    argv = ["export", "--primes", "2,3,5", "--format", "walk", "--out", str(tmp_path / "walk.txt")]
    assert cli.main(argv + ["--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(missing) in err


def test_cli_config_longer_than_its_limit_is_a_usage_error(tmp_path, capsys):
    # 1,024 comment lines of 64 characters fill the limit exactly and are
    # read; one more character is refused before --out is opened, so an
    # endless file is read no further than the limit either
    cfg, out = tmp_path / "export.cfg", tmp_path / "walk.txt"
    argv = ["export", "--primes", "2,3,5", "--format", "walk", "--out", str(out), "--config", str(cfg)]
    cfg.write_text(("#" * 63 + "\n") * 1024)
    assert len(cfg.read_text()) == cli.CONFIG_MAX_CHARS == 65_536
    assert cli.main(argv) == 0 and out.exists()
    out.unlink()
    cfg.write_text(("#" * 63 + "\n") * 1024 + "#")
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}: longer than 65536 characters\n"
    assert not out.exists()


def test_cli_out_in_missing_directory_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "absent" / "x"
    assert cli.main(["export", "--primes", "2,3,5", "--format", "edges", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--primes", "2,3,5", "--out", ""],
        ["params", "--primes", "2,3,5", "--out="],
        ["export", "--primes", "2,3,5", "--format", "edges", "--out", "edges.txt", "--config", ""],
        ["export", "--primes", "2,3,5", "--format", "edges", "--out", "edges.txt", "--config="],
    ],
    ids=["out-empty", "out-equals", "config-empty", "config-equals"],
)
def test_cli_an_option_given_an_empty_value_counts_as_given(argv, tmp_path, capsys, monkeypatch):
    # an empty --out names no file to write, not stdout, and an empty
    # --config no file to read, not the defaults: each is a usage error
    # before any output, so nothing reaches stdout or the working directory
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_params_stdout(capsys):
    code = cli.main(["params", "--primes", "2,3,5", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["cSize"] == 28
    assert rep["clique"]["value"] == 5
    assert rep["chromatic"]["value"] == 5
    assert rep["independence"]["value"] == 180
    assert rep["diameter"]["value"] == 6
    assert rep["oracleSeed"] == 7


def test_cli_params_deterministic_bytes(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["params", "--primes", "2,3,5", "--seed", "7", "--out", str(a)]) == 0
    assert cli.main(["params", "--primes", "2,3,5", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_relative_out_lands_in_the_working_directory(tmp_path, monkeypatch):
    # --out is opened as given: no environment variable relocates it
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PSQCAYLEY_OUT_DIR", str(elsewhere))
    assert cli.main(["params", "--primes", "2,3,5", "--out", "nested.json"]) == 0
    assert (tmp_path / "nested.json").read_bytes() == report_bytes(build_report(T235))
    assert list(elsewhere.iterdir()) == []


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "edges.txt"
    keys = ("mystery", "seed", "bfs-sources", "sample-pairs", "sample-edges", "max-exact-vertices", "max-index-vertices")
    for key in keys:
        cfg.write_text(f"{key} = 1\n")
        argv = ["export", "--primes", "2,3,5", "--format", "edges", "--out", str(out), "--config", str(cfg)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown key {key!r}\n"
    assert not out.exists()


def test_cli_config_rejects_a_repeated_key(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "export.cfg").write_text("materialize-cap = 1000\n# again\nmaterialize-cap = 2000\n")
    argv = ["export", "--primes", "2,3,5", "--format", "edges", "--out", "edges.txt", "--config", "export.cfg"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: export.cfg:3: duplicate key 'materialize-cap'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["export.cfg"]


@pytest.mark.parametrize(
    "line, message",
    [
        ("materialize-cap = many", "value for 'materialize-cap' must be an integer"),
        ("materialize-cap = 1e4", "value for 'materialize-cap' must be an integer"),
        ("materialize-cap =", "value for 'materialize-cap' must be an integer"),
        ("materialize-cap 30000", "expected 'key = value'"),
        ("materialize-cap = 0", "value for 'materialize-cap' must be positive"),
        ("materialize-cap = -5", "value for 'materialize-cap' must be positive"),
    ],
    ids=["word", "float", "empty", "no-equals", "zero", "negative"],
)
def test_cli_config_rejects_a_malformed_line(line, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "export.cfg").write_text(f"# cap\n{line}\n")
    argv = ["export", "--primes", "2,3,5", "--format", "edges", "--out", "edges.txt", "--config", "export.cfg"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: export.cfg:2: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["export.cfg"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["export", "--format", "walk", "--out", "walk.txt"], "seed"),
        (["export", "--format", "independent-set", "--out", "set.txt"], "bfs-sources"),
    ],
    ids=["export-seed", "export-bfs-sources"],
)
def test_cli_config_rejects_a_key_its_subcommand_does_not_read(argv, key, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "budgets.cfg").write_text(f"{key} = 5\n")
    assert cli.main([argv[0], "--primes", "2,3,5", *argv[1:], "--config", "budgets.cfg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: budgets.cfg:1: unknown key {key!r}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["budgets.cfg"]


def test_cli_export_reads_its_cap_from_the_config(tmp_path, capsys):
    cfg = tmp_path / "export.cfg"
    cfg.write_text("materialize-cap = 899\n")
    argv = ["export", "--primes", "2,3,5", "--format", "edges", "--out", str(tmp_path / "e.txt")]
    assert cli.main(argv + ["--config", str(cfg)]) == 2
    assert "900 vertices exceed cap 899" in capsys.readouterr().err
    cfg.write_text("materialize-cap = 900\n")
    assert cli.main(argv + ["--config", str(cfg)]) == 0
    assert (tmp_path / "e.txt").read_text().count("\n") == 12600


def test_default_sweep_builds_its_budget_through_the_check(monkeypatch):
    # the sweep's own default count goes through the same check as an
    # explicit one, and a negative count is refused before any BFS runs
    built = count_level_builds(monkeypatch)
    g = CayleyGraph.from_triple(T357)
    with pytest.raises(ValueError):
        distance_sweep(g, -1)
    assert built == []
    assert distance_sweep(g) == distance_sweep(g, 50) and distance_sweep(g).sources == 51
    assert built == [g]


@pytest.mark.parametrize("argv", [["verify"]], ids=["flag"])
def test_cli_rejects_a_negative_source_budget(argv, capsys, monkeypatch):
    # refused from the flag alone, before any graph is built
    monkeypatch.setattr(CayleyGraph, "from_triple", None)
    assert cli.main(argv + ["--primes", "2,3,5", "--budget-sources", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --budget-sources must be nonnegative\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--seed", "7"],
        ["build", "--config", "budgets.cfg"],
        ["params", "--config", "budgets.cfg"],
        ["params", "--budget-sources", "5"],
        ["params", "--oracle", "--timings"],
        ["verify", "--config", "budgets.cfg"],
        ["export", "--format", "walk", "--out", "walk.txt", "--seed", "7"],
        ["hamiltonian", "--seed", "7"],
        ["hamiltonian", "--check", "--config", "budgets.cfg"],
        ["hamiltonian", "stray", "--check"],
        ["verify", "--prim", "2,3,5"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_cli_rejects_an_option_its_subcommand_does_not_read(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "budgets.cfg").write_text("seed = 7\n")
    assert cli.main([argv[0], "--primes", "2,3,5", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unrecognized arguments: {argv[-2]}") and captured.err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["budgets.cfg"]


def test_certificates_bound_clique_and_independence_without_an_exact_search(monkeypatch):
    # the coloring bounds ω and the clique cover α at every n, so neither
    # exact search runs in the pipeline and no check is skipped
    def refuse(*args):
        raise AssertionError("exact search in the pipeline")

    monkeypatch.setattr(oracles_mod, "exact_max_clique", refuse)
    monkeypatch.setattr(oracles_mod, "exact_max_independent_set", refuse)
    assert build_report(T235)["indexGraphMIS"] == 6
    outcome = run_verification(T235, 0)
    assert outcome.ok and not any("skip" in line.lower() for line in outcome.lines)
    assert outcome.lines[3:6] == tuple(VERIFY_235_SEED_7.splitlines()[3:6])


def test_cli_params_certifies_the_index_mis_above_every_former_cap(capsys):
    assert cli.main(["params", "--primes", "5,7,11"]) == 0
    assert json.loads(capsys.readouterr().out)["indexGraphMIS"] == 35


def test_report_above_the_export_cap_is_exhaustive():
    # n = 27,225 exceeds the default materialization cap, which bounds only
    # the export: every structure field is set and every scan exhaustive
    rep = build_report(PrimeTriple(3, 5, 11))
    assert rep["fiberStructure"] == {k: True for k in ("i", "ii", "iii", "iv", "v", "vi", "vii", "viii")}
    assert rep["blockPartition"] is True
    assert rep["blockAdjacencyConsistent"] is True
    assert rep["chromatic"] == {"value": 11, "coloringProper": True, "edgesChecked": 27225 * 136 // 2}
    assert rep["independence"]["internalEdges"] == 0
    assert rep["diameter"]["value"] == 6


@pytest.mark.parametrize("command", ["params", "verify"])
def test_cli_params_and_verify_each_certify_once(command, capsys, monkeypatch):
    # params renders the report and verify the checked lines, each from one graph
    expected = report_bytes(build_report(T235, seed=7)).decode("ascii") if command == "params" else VERIFY_235_SEED_7
    calls = _count_builds(monkeypatch)
    assert cli.main([command, "--primes", "2,3,5", "--seed", "7"]) == 0
    assert calls == {"from_triple": 1}
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""


@pytest.mark.parametrize("command", ["params", "verify"])
@pytest.mark.parametrize("primes", ["2,3,5", "3,5,7"])
def test_cli_params_and_verify_build_the_clique_and_the_index_set_once(command, primes, capsys, monkeypatch):
    # certify builds K and the certificate of the a·b index ids once each,
    # and the colouring decides once that K tiles V; the index bounds,
    # α ≤ n/c and both renderings read those, and build or decide none of
    # them again
    calls = Counter()
    for name in ("clique_certificate", "independence_certificate"):
        fn = getattr(parameters, name)
        monkeypatch.setattr(parameters, name, lambda t, _fn=fn, _name=name: calls.update([_name]) or _fn(t))
    tiles = parameters.clique_tiles
    monkeypatch.setattr(parameters, "clique_tiles", lambda t, k: calls.update(["clique_tiles"]) or tiles(t, k))
    assert cli.main([command, "--primes", primes]) == 0
    assert calls == {"clique_certificate": 1, "independence_certificate": 1, "clique_tiles": 1}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["params"],
        ["verify"],
        ["hamiltonian", "--check"],
        ["export", "--format", "walk", "--out", "{out}"],
        ["export", "--format", "independent-set", "--out", "{out}"],
        ["export", "--format", "edges", "--out", "{out}"],
    ],
    ids=lambda argv: "-".join(a for a in argv[:3] if not a.startswith("{")),
)
def test_cli_fails_fast_above_the_memory_limit(argv, tmp_path, capsys, monkeypatch):
    # 900 vertices, or for `hamiltonian --check` the 28 connectors, predicted
    # one byte over the limit; no connector is enumerated
    out = tmp_path / "out.txt"
    argv = [a.format(out=out) for a in argv] + ["--primes", "2,3,5"]
    hamiltonian = argv[0] == "hamiltonian"
    count, each, what = (28, cli.BYTES_PER_CONNECTOR, "|C|") if hamiltonian else (900, cli.BYTES_PER_VERTEX, "n")
    monkeypatch.setattr(cli, "MEMORY_LIMIT_BYTES", each * count - 1)
    monkeypatch.setattr(CayleyGraph, "from_triple", None)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {what} = {count} needs about")
    assert not out.exists()


def test_cli_runs_at_the_memory_limit_and_build_ignores_it(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MEMORY_LIMIT_BYTES", cli.BYTES_PER_VERTEX * 900)
    assert cli.main(["verify", "--primes", "2,3,5", "--budget-sources", "0"]) == 0
    monkeypatch.setattr(cli, "MEMORY_LIMIT_BYTES", cli.BYTES_PER_CONNECTOR * 28)
    assert cli.main(["hamiltonian", "--primes", "2,3,5", "--check"]) == 0
    # build allocates nothing per vertex or per connector, and plain
    # hamiltonian reads only the moduli; --check enumerates C, so it is gated
    monkeypatch.setattr(cli, "MEMORY_LIMIT_BYTES", 0)
    monkeypatch.setattr(CayleyGraph, "from_triple", None)
    assert cli.main(["build", "--primes", "2,3,5"]) == 0
    assert cli.main(["hamiltonian", "--primes", "2,3,5"]) == 0
    capsys.readouterr()
    assert cli.main(["hamiltonian", "--primes", "2,3,5", "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: |C| = 28 needs about")


def test_cli_hamiltonian_runs_beyond_the_memory_limit(capsys):
    # n = 1,239,038,360,641 is far above the limit, and the walk's three
    # levels are all that the command builds; the walk ends at e_a, the
    # multiple of b²c² that is 1 mod a².  --check holds C too, 31,948 members
    assert 668164887941 % (103 * 107) ** 2 == 0 and 668164887941 % 101**2 == 1
    walk = "kind: cycle\nlength: 1239038360641\nendpoints: 0 668164887941\n"
    assert cli.main(["hamiltonian", "--primes", "101,103,107"]) == 0
    assert capsys.readouterr().out == walk
    assert cli.main(["hamiltonian", "--primes", "101,103,107", "--check"]) == 0
    assert capsys.readouterr().out == walk + "verified: True\n"


def test_cli_edges_and_dot_exports_predict_their_own_memory(tmp_path, capsys, monkeypatch):
    # the exports hold every vertex's name and a chunk of rows |C| wide; with
    # the cap raised, a limit between the two predictions stops them alone
    assert cli.EXPORT_BYTES_PER_VERTEX > cli.BYTES_PER_VERTEX
    config = tmp_path / "cap.conf"
    config.write_text("materialize-cap = 2000000\n")
    monkeypatch.setattr(cli, "MEMORY_LIMIT_BYTES", cli.EXPORT_BYTES_PER_VERTEX * 900 - 1)
    for fmt in ("dot", "edges"):
        out = tmp_path / f"graph.{fmt}"
        argv = ["export", "--primes", "2,3,5", "--format", fmt, "--out", str(out), "--config", str(config)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        n_mib = cli.EXPORT_BYTES_PER_VERTEX * 900 >> 20
        assert captured.out == "" and captured.err == f"error: n = 900 needs about {n_mib} MiB, above the limit of 0 MiB\n"
        assert not out.exists()
    assert cli.main(["verify", "--primes", "2,3,5", "--budget-sources", "0"]) == 0
    walk = tmp_path / "walk.txt"
    assert cli.main(["export", "--primes", "2,3,5", "--format", "walk", "--out", str(walk)]) == 0 and walk.exists()


def test_cli_build_does_no_graph_work(capsys, monkeypatch):
    # |C| and the degree come from the closed form, even where enumerating
    # the 10⁸ connectors would take gigabytes
    def refuse(*args):
        raise AssertionError("graph work in build")

    monkeypatch.setattr(connectors_mod, "enumerate_connectors", refuse)
    monkeypatch.setattr(graph, "enumerate_connectors", refuse)
    monkeypatch.setattr(CayleyGraph, "from_triple", classmethod(refuse))
    assert cli.main(["build", "--primes", "2,3,10007"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "primes: 2,3,10007\nn: 3605041764\n|C|: 100130050\ndegree: 100130050\n"


def test_memory_limit_admits_the_ladder_and_rejects_huge_groups():
    # arithmetic only: the prediction for n, never an allocation
    cli._check_memory(PrimeTriple(11, 13, 17).n)
    cli._check_memory(PrimeTriple(13, 17, 19).n)
    cli._check_memory(PrimeTriple(17, 19, 23).n)
    for primes in ((19, 23, 29), (101, 103, 107)):
        with pytest.raises(ValueError, match="above the limit of 2048 MiB$"):
            cli._check_memory(PrimeTriple(*primes).n)


def _three_distinct_primes(abc: int) -> bool:
    primes = prime_factors(abc)
    return len(primes) == 3 and math.prod(primes) == abc


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["params"], ["hamiltonian", "--check"], ["export", "--format", "walk", "--out", "{out}"]],
    ids=lambda argv: argv[0],
)
def test_cli_the_smallest_triple_over_the_memory_limit_exits_2_at_once(argv, tmp_path, capsys, monkeypatch):
    # n = (abc)², so the smallest n predicted over the limit comes from the
    # first product abc of three distinct primes above √(limit / bytes);
    # `hamiltonian --check` predicts from |C|, which is c² − c + 8 at (2, 3, c),
    # so there the first prime c above √(limit / bytes) gives the smallest c
    if argv[0] == "hamiltonian":
        each, what, valid = cli.BYTES_PER_CONNECTOR, "|C|", is_prime
        size, primes = lambda c: c * c - c + 8, lambda c: (2, 3, c)
    else:
        each, what, valid = cli.BYTES_PER_VERTEX, "n", _three_distinct_primes
        size, primes = lambda abc: abc**2, prime_factors
    x = math.isqrt(cli.MEMORY_LIMIT_BYTES // each)
    while not (valid(x) and each * size(x) > cli.MEMORY_LIMIT_BYTES):
        x += 1
    cli._check_memory(size(max(p for p in range(4, x) if valid(p))), each)
    count = size(x)
    out = tmp_path / "out.txt"
    monkeypatch.setattr(CayleyGraph, "from_triple", None)
    argv = [a.format(out=out) for a in argv] + ["--primes", ",".join(map(str, primes(x)))]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} = {count} needs about {each * count >> 20} MiB, above the limit of 2048 MiB\n"
    assert not out.exists()


@pytest.mark.parametrize("primes", ["3,5,7", "5,7,11", "7,11,13"])
def test_cli_verify_passes_structure_above_a_two(primes, capsys):
    # check (v) as stated holds for every triple, no vertex cap skips the
    # structure checks, and no search cap skips a bound
    assert cli.main(["verify", "--primes", primes, "--budget-sources", "0"]) == 0
    out = capsys.readouterr().out
    assert "\nPASS structure: " in out and "skip" not in out.lower()
    assert all(line.startswith("PASS ") for line in out.splitlines()[:-1])
    assert out.endswith("verification OK\n")


@pytest.mark.slow
def test_verify_passes_at_every_triple_up_to_ten_million():
    # the paper's theorems on every triple with n ≤ 10⁷, not on a ladder: a
    # failure names its triple, and no triple leaves the census so that it passes
    triples = triples_with_group_order_at_most(10**7)
    assert len(triples) == 509
    assert [t.primes for t in triples if not run_verification(t).ok] == []


def test_cli_verify_passes(capsys):
    code = cli.main(["verify", "--primes", "2,3,5", "--budget-sources", "25"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verification OK" in out


def test_cli_verify_fails_on_mismatch(capsys, monkeypatch):
    def fake_sweep(g, sources=None):
        return SweepReport(sources=1, max_distance=6, mismatches=3)

    monkeypatch.setattr(oracles_mod, "distance_sweep", fake_sweep)
    code = cli.main(["verify", "--primes", "2,3,5", "--budget-sources", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL diameter" in out
    assert "verification FAILED" in out


def test_cli_export_edges(tmp_path):
    out = tmp_path / "edges.txt"
    assert cli.main(["export", "--primes", "2,3,5", "--format", "edges", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 12600
    assert lines[0] == "0 36"


def test_cli_export_dot(tmp_path):
    out = tmp_path / "graph.dot"
    assert cli.main(["export", "--primes", "2,3,5", "--format", "dot", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("graph")
    assert text.rstrip().endswith("}")


def test_cli_export_over_cap_leaves_out_file_alone(tmp_path, capsys):
    out = tmp_path / "edges.txt"
    out.write_bytes(b"earlier export\n")
    assert cli.main(["export", "--primes", "3,5,11", "--format", "edges", "--out", str(out)]) == 2
    assert "exceed cap" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier export\n"


def test_cli_export_walk(tmp_path):
    out = tmp_path / "walk.txt"
    assert cli.main(["export", "--primes", "2,3,5", "--format", "walk", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "cycle"
    assert len(lines) == 901
    # the bytes of the n-entry export, written row by row from the certificate
    pinned = {
        "2,3,5": "e49ffc1f4b53264cfdaf83858fb42e01c7f7cf5efc458a9bb89339d0ade85fb4",
        "3,5,7": "358958da9707ea2b9e4a781e11930daee7ef0430ebb34666e351e0b38cee05a5",
        "5,7,11": "9c70cb1f0573262f86df53fa5c956523b313430b337513aa0ccc2906e5bff95c",
    }
    for primes, expected in pinned.items():
        out = tmp_path / f"walk-{primes}.txt"
        assert cli.main(["export", "--primes", primes, "--format", "walk", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


@pytest.mark.parametrize("argv", [["verify", "--budget-sources", "0"], ["hamiltonian", "--check"], ["params"]])
def test_cli_checks_the_walk_without_building_it(argv, capsys, monkeypatch):
    # the walk is checked level by level: no piece of it is ever built, and
    # each level, like each of fiber checks (iii), (vii) and (viii), is one
    # is_step_cycle call
    is_step_cycle = CayleyGraph.is_step_cycle
    callers = []

    def recorded(g, step, length):
        callers.append({frame.name for frame in traceback.extract_stack()})
        return is_step_cycle(g, step, length)

    def refuse(w):
        raise AssertionError("the walk was built")

    monkeypatch.setattr(CayleyGraph, "is_step_cycle", recorded)
    monkeypatch.setattr(WalkCertificate, "pieces", refuse)
    assert cli.main(argv + ["--primes", "3,5,7"]) == 0
    verified = {
        "verify": "PASS hamiltonian: kind=cycle, length=11025, endpoints=(0, 1225)\n",
        "hamiltonian": "length: 11025\nendpoints: 0 1225\nverified: True\n",
        "params": '"hamiltonian": {\n    "verified": true,',
    }
    assert verified[argv[0]] in capsys.readouterr().out
    # three levels, and three fiber checks wherever the structure stage runs
    walk = sum("verify_walk" in names for names in callers)
    fiber = sum("verify_fiber_structure" in names for names in callers)
    assert (walk, fiber) == (3, 0 if argv[0] == "hamiltonian" else 3)
    assert len(callers) == walk + fiber


def test_cli_export_independent_set(tmp_path):
    pinned = {
        "2,3,5": "8be3fbbcff28460a5d49e865c6997f63cc5e8a690bc0449a1761ef16abe6af27",
        "3,5,7": "0e11fd3218842bd43935dab29d1bcf195361540b808af13f6a606ba2f56f9239",
        "5,7,11": "d2b7c3ef2c6a557a55066b9f0cab1416241fb074bdd71bb76f7d8ebecba36166",
    }
    for primes, expected in pinned.items():
        out = tmp_path / f"indep-{primes}.txt"
        argv = ["export", "--primes", primes, "--format", "independent-set", "--out", str(out)]
        assert cli.main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
    values = [int(x) for x in (tmp_path / "indep-3,5,7.txt").read_text().split()]
    assert len(values) == 9 * 25 * 7 and values == sorted(values)


@pytest.mark.parametrize(
    "primes", [(2, 3, 5), (2, 3, 7), (3, 5, 7), (5, 7, 11), (7, 11, 13)], ids=lambda p: ",".join(map(str, p))
)
def test_cli_export_independent_set_lists_the_certificate_members(primes, tmp_path):
    # the certificate's set {v : v mod period in residues}, ascending, one
    # line each, written chunk by chunk
    t = PrimeTriple(*primes)
    cert = independence_certificate(t)
    residues = set(cert.residues)
    members = [v for v in range(t.n) if v % cert.period in residues]
    out = tmp_path / "indep.txt"
    argv = ["export", "--primes", ",".join(map(str, primes)), "--format", "independent-set", "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == ("\n".join(map(str, members)) + "\n").encode("ascii")


@pytest.mark.parametrize("primes", ["2,3,5", "2,3,7"])
def test_cli_export_independent_set_is_colour_class_zero(primes, tmp_path):
    # the exported set, read back: its c translates by the clique
    # certificate partition [0, n), and it holds every vertex of colour 0
    # under the per-vertex colouring and no other
    t = PrimeTriple(*map(int, primes.split(",")))
    out = tmp_path / "indep.txt"
    assert cli.main(["export", "--primes", primes, "--format", "independent-set", "--out", str(out)]) == 0
    members = [int(x) for x in out.read_text().split()]
    assert sorted((v + k) % t.n for k in clique_certificate(t) for v in members) == list(range(t.n))
    assert members == [v for v in range(t.n) if certificate_color(v, t) == 0]


def test_cli_export_independent_set_streams(tmp_path):
    # one chunk per abc period: at (11,13,17) the a²b²c = 347,633 members
    # take 25 MB joined as one string, one period's chunk a few KB
    out = tmp_path / "indep.txt"
    tracemalloc.start()
    try:
        assert cli.main(["export", "--primes", "11,13,17", "--format", "independent-set", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert out.read_bytes().count(b"\n") == 11 * 11 * 13 * 13 * 17


def test_cli_hamiltonian_check(capsys):
    code = cli.main(["hamiltonian", "--primes", "2,3,5", "--check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kind: cycle" in out
    assert "verified: True" in out


def test_cli_closes_the_cycle_above_a_two(tmp_path, capsys):
    assert cli.main(["hamiltonian", "--primes", "3,5,7", "--check"]) == 0
    assert capsys.readouterr().out == "kind: cycle\nlength: 11025\nendpoints: 0 1225\nverified: True\n"
    out = tmp_path / "walk.txt"
    assert cli.main(["export", "--primes", "3,5,7", "--format", "walk", "--out", str(out)]) == 0
    lines = out.read_text().split("\n")
    assert lines[0] == "cycle" and len(lines) == 11027 and lines[-1] == ""
    assert cli.main(["verify", "--primes", "3,5,7", "--budget-sources", "0"]) == 0
    assert "\nPASS hamiltonian: kind=cycle, length=11025, endpoints=(0, 1225)\n" in capsys.readouterr().out
