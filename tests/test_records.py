import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psqcayley import (
    CayleyGraph,
    certify,
    make_prime_triple,
    snake_walk,
)
from psqcayley.structure import verify_fiber_structure

SRC = Path(__file__).resolve().parent.parent / "src"
T235 = make_prime_triple(2, 3, 5)


def test_cli_import_loads_every_module_without_dataclasses_or_inspect():
    # a fresh interpreter, as the console script starts it: what the CLI
    # imports is paid by every command
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    code = "import json, sys; import psqcayley.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    for name in ("connectors", "parameters", "structure", "hamiltonian", "oracles", "report"):
        assert "psqcayley." + name in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--primes", "2,3,5"],
        ["verify", "--primes", "2,3,5"],
        ["export", "--primes", "2,3,5", "--format", "walk", "--out", "walk.txt"],
        ["hamiltonian", "--primes", "2,3,5"],
        ["params", "--primes", "2,3,5"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_commands_load_no_argparse_gettext_locale_or_json(argv, tmp_path):
    # the modules are listed before the child's own `import json`; only
    # `params`, which renders JSON, may load it
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    code = (
        "import sys\nfrom psqcayley import cli\ncode = cli.main(sys.argv[1:])\nloaded = sorted(sys.modules)\n"
        "import json\nsys.stderr.write(json.dumps([code, loaded]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
    )
    code, loaded = json.loads(proc.stderr)
    assert code == 0
    assert not {"argparse", "gettext", "locale"} & set(loaded)
    assert ("json" in loaded) == (argv[0] == "params")
    for name in ("connectors", "parameters", "structure", "hamiltonian", "oracles", "report"):
        assert "psqcayley." + name in loaded


# record -> (a builder, one of its fields)
RECORDS = {
    "PrimeTriple": (lambda: T235, "alpha"),
    "CayleyGraph.triple": (lambda: CayleyGraph.from_triple(T235), "triple"),
    "CayleyGraph.members": (lambda: CayleyGraph.from_triple(T235), "members"),
    "WalkCertificate": (lambda: snake_walk(T235), "levels"),
    "Certificates": (lambda: certify(T235), "walk_verified"),
    "FiberStructureChecklist": (lambda: verify_fiber_structure(CayleyGraph.from_triple(T235)), "cell_cycles"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_public_records_are_immutable(name):
    build, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
