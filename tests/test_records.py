import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psqcayley import cli
from psqcayley.graph import CayleyGraph, ConnectivityResult
from psqcayley.group import PrimeTriple
from psqcayley.hamiltonian import WalkCertificate, snake_walk
from psqcayley.oracles import SweepReport
from psqcayley.parameters import ColoringResult, DiameterResult, IndependenceCertificate, IndependenceScan
from psqcayley.report import Certificates, VerificationOutcome, certify

SRC = Path(__file__).resolve().parent.parent / "src"
T235 = PrimeTriple(2, 3, 5)


COMMANDS = [
    ["build", "--primes", "2,3,5"],
    ["verify", "--primes", "2,3,5"],
    ["export", "--primes", "2,3,5", "--format", "walk", "--out", "walk.txt"],
    ["hamiltonian", "--primes", "2,3,5"],
    ["params", "--primes", "2,3,5"],
]

ENGINE = {
    "psqcayley." + name
    for name in ("cli", "connectors", "graph", "group", "hamiltonian", "oracles", "parameters", "report", "structure")
}


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def test_cli_import_loads_every_module_without_dataclasses_or_inspect():
    # a fresh interpreter, as the console script starts it: what the CLI
    # imports is paid by every command
    env = _child_env()
    code = "import json, sys; import psqcayley.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    for name in ("connectors", "parameters", "structure", "hamiltonian", "oracles", "report"):
        assert "psqcayley." + name in loaded


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
def test_cli_commands_load_no_argparse_gettext_locale_or_json(argv, tmp_path):
    # the modules are listed before the child's own `import json`; `params`
    # writes its JSON itself, so no command loads `json`
    env = _child_env()
    code = (
        "import sys\nfrom psqcayley import cli\ncode = cli.main(sys.argv[1:])\nloaded = sorted(sys.modules)\n"
        "import json\nsys.stderr.write(json.dumps([code, loaded]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
    )
    code, loaded = json.loads(proc.stderr)
    assert code == 0
    assert not {"argparse", "gettext", "locale", "json"} & set(loaded)
    for name in ("connectors", "parameters", "structure", "hamiltonian", "oracles", "report"):
        assert "psqcayley." + name in loaded


@pytest.mark.parametrize(
    "argv", [None, []] + COMMANDS, ids=lambda argv: "package" if argv is None else argv[0] if argv else "import"
)
def test_site_free_import_and_commands_load_no_typing_pathlib_or_json(argv, tmp_path):
    # without `site`, the interpreter itself loads none of these, so any
    # that the child lists was loaded by psqcayley; the child lists its
    # modules without importing anything more.  `import psqcayley` alone
    # loads none of the package's modules, and `cli` loads all nine
    code = "import sys\n" + ("import psqcayley\n" if argv is None else "from psqcayley import cli\n")
    if argv:
        code += "assert cli.main(sys.argv[1:]) == 0\n"
    code += "sys.stderr.write(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *(argv or [])],
        env=_child_env(),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(proc.stderr.split())
    assert "psqcayley" in loaded
    assert {name for name in loaded if name.startswith("psqcayley.")} == (set() if argv is None else ENGINE)
    assert not {"typing", "pathlib", "json", "contextlib"} & loaded


@pytest.mark.parametrize("argv", COMMANDS + [["hamiltonian", "--primes", "2,3,5", "--check"]], ids=" ".join)
def test_cli_main_freezes_nothing(argv, tmp_path, monkeypatch, capsys):
    # only the console entry point freezes the heap: an in-process caller of
    # `main` keeps its own objects collectable
    monkeypatch.chdir(tmp_path)
    before = gc.get_freeze_count()
    assert cli.main(argv) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [COMMANDS[0], COMMANDS[-1]], ids=lambda argv: argv[0])
def test_console_main_freezes_the_heap_and_still_runs_atexit_hooks(argv, capsys):
    # the hook runs at shutdown, after the freeze, and the command's stdout
    # and exit code are those of `main` in process
    code = (
        "import atexit, gc, sys\nfrom psqcayley import cli\n"
        "atexit.register(lambda: sys.stderr.write(f'frozen {gc.get_freeze_count()}'))\ncli.console_main()"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    label, count = proc.stderr.split(" ")
    assert label == "frozen" and int(count) > 0


def test_python_m_psqcayley_reports_a_composite_prime_in_one_line():
    proc = subprocess.run(
        [sys.executable, "-m", "psqcayley", "build", "--primes", "2,3,4"],
        env=_child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: 4 is not prime\n"


# record -> (a builder, one of its fields)
RECORDS = {
    "PrimeTriple": (lambda: T235, "alpha"),
    "CayleyGraph.triple": (lambda: CayleyGraph.from_triple(T235), "triple"),
    "CayleyGraph.members": (lambda: CayleyGraph.from_triple(T235), "members"),
    "WalkCertificate": (lambda: snake_walk(T235), "levels"),
    "Certificates": (lambda: certify(T235), "verdicts"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_public_records_are_immutable(name):
    build, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


# every record type, with its fields in order
RECORD_FIELDS = {
    PrimeTriple: ("alpha", "beta", "gamma"),
    ConnectivityResult: ("connected", "bezout", "bfs_reached"),
    CayleyGraph: ("triple", "members"),
    WalkCertificate: ("levels",),
    SweepReport: ("sources", "max_distance", "mismatches"),
    DiameterResult: ("value", "witness_pair", "bfs_eccentricity"),
    ColoringResult: ("proper", "tiles", "edges_checked"),
    IndependenceCertificate: ("residues", "period"),
    IndependenceScan: ("internal_edges", "graph_edges", "pairs_checked"),
    Certificates: (
        "graph", "connectivity", "clique", "coloring", "independence", "independence_scan", "index_bounds",
        "diameter", "walk", "fiber", "block_adjacency", "verdicts", "timings",
    ),
    VerificationOutcome: ("ok", "lines"),
}


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda record: record.__name__)
def test_every_record_is_a_named_tuple_of_its_fields(record):
    # field order, repr, tuple equality, unpacking, `_replace` and
    # immutability; only CayleyGraph has an instance __dict__, for its
    # cached kernels.  A PrimeTriple holds a valid triple only
    fields = RECORD_FIELDS[record]
    values, last = ((2, 3, 5), 7) if record is PrimeTriple else (tuple(range(len(fields))), "x")
    r = record(*values)
    assert record._fields == fields
    assert repr(r) == f"{record.__name__}({', '.join(f'{f}={v}' for f, v in zip(fields, values))})"
    assert r == values and tuple(r) == values and hash(r) == hash(values)
    replaced = r._replace(**{fields[-1]: last})
    assert type(replaced) is record and replaced == values[:-1] + (last,)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(r, field, None)
    assert hasattr(r, "__dict__") == (record is CayleyGraph)
