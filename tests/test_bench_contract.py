"""The benchmark's tracer drives the CLI through wrappers bound to the
package's function names and argument names.  A renamed function or argument
would otherwise surface only in the benchmark's own self-test; here it fails
the suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psqcayley

_SRC = Path(psqcayley.__file__).resolve().parents[1]
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (str(_SRC), os.environ.get("PYTHONPATH")))),
}


def _run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=CHILD_ENV, timeout=120
    )


@pytest.mark.parametrize("command", ["verify", "params"])
def test_tracer_runs_the_cli_unchanged(command, tmp_path):
    args = [command, "--primes", "2,3,5", "--seed", "7"]
    plain = _run("-m", "psqcayley", *args)
    trace_path = tmp_path / "trace.json"
    traced = _run(str(TRACER), str(trace_path), *args)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    counters = json.loads(trace_path.read_text())["counters"]
    assert counters["structure.completed"] == 1
    assert counters["parameters.coloring.edges_checked"] > 0


def test_tracer_runs_the_structure_checks_where_the_verdict_moved(tmp_path):
    # (3,5,7) is the workload triple whose fiber check (v) now passes
    args = ["verify", "--primes", "3,5,7", "--budget-sources", "0"]
    plain = _run("-m", "psqcayley", *args)
    trace_path = tmp_path / "trace.json"
    traced = _run(str(TRACER), str(trace_path), *args)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    assert "PASS structure: " in plain.stdout
    counters = json.loads(trace_path.read_text())["counters"]
    assert counters["structure.completed"] == 1
    assert counters["structure.skipped"] == 0


@pytest.mark.parametrize(
    "args",
    [
        ["export", "--format", "edges", "--out", "{out}"],
        ["export", "--format", "walk", "--out", "{out}"],
        ["export", "--format", "independent-set", "--out", "{out}"],
        ["hamiltonian", "--check"],
    ],
    ids=["export-edges", "export-walk", "export-independent-set", "hamiltonian-check"],
)
def test_tracer_writes_what_the_cli_writes(args, tmp_path):
    # at (3,5,7) a² is odd, so the walk's last row runs forwards
    for primes in ("2,3,5", "3,5,7"):
        runs = {}
        prefixes = {"plain": ["-m", "psqcayley"], "traced": [str(TRACER), str(tmp_path / "trace.json")]}
        for side, prefix in prefixes.items():
            out = tmp_path / f"{side}-{primes}.out"
            proc = _run(*prefix, *(a.format(out=out) for a in args), "--primes", primes)
            runs[side] = (proc.returncode, proc.stdout, out.read_bytes() if out.exists() else None)
        assert runs["traced"] == runs["plain"], primes
        assert runs["plain"][0] == 0, primes
        assert (runs["plain"][2] is None) == ("--out" not in args)
