"""The benchmark's tracer drives the CLI through wrappers bound to the
package's function names and argument names.  A renamed function or argument
would otherwise surface only in the benchmark's own self-test; here it fails
the suite.  So does an output that the benchmark's own checks would reject:
each workload's commands run once and go through `bench/run.py`'s
`check_output`, and each must exit 0.  The tests read `bench/` and never
write to it."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psqcayley

_SRC = Path(psqcayley.__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
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
    # bench/run.py documents (3,5,7) as failing structure, from when check (v)
    # read "inside fiber r", which fails there (49 ≢ 1 mod 9); bench/expect.py
    # requires PASS structure only when a = 2, so this test requires it here
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


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module, imported with bench/ on the path (it imports
    `expect`) and without writing bytecode there."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
        sys.modules.pop("bench_run", None)
    return module


@pytest.mark.parametrize("workload", ["params-ladder", "verify-sweep", "export-large"])
def test_every_workload_command_passes_the_benchmark_check(workload, bench_run, tmp_path):
    cmds = bench_run.WORKLOADS[workload](7, tmp_path)
    assert cmds
    for cmd in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "psqcayley", *cmd.argv],
            capture_output=True, env=CHILD_ENV, cwd=tmp_path, timeout=120,
        )
        data = cmd.out.read_bytes() if cmd.out is not None and cmd.out.exists() else b""
        problems = bench_run.check_output(cmd, proc.returncode, proc.stdout, data)
        assert not problems, (cmd.argv, problems, proc.stderr[-300:])
        # the exit code carries the verdicts, which `check_params` does not read
        assert proc.returncode == 0, (cmd.argv, proc.stderr[-300:])


def test_export_large_rewrites_its_outputs_as_fresh_writes(bench_run, tmp_path):
    # the harness writes the (2,3,5) warm-up outputs to the workload's paths,
    # then reruns the workload into the same files pass after pass: each
    # rewrite over a longer or shorter file must equal a write with no file
    work, fresh = tmp_path / "work", tmp_path / "fresh"
    work.mkdir()
    fresh.mkdir()

    def run(cmd, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "psqcayley", *cmd.argv],
            capture_output=True, env=CHILD_ENV, cwd=cwd, timeout=120,
        )
        data = cmd.out.read_bytes() if cmd.out is not None and cmd.out.exists() else b""
        problems = bench_run.check_output(cmd, proc.returncode, proc.stdout, data)
        assert not problems, (cmd.argv, problems, proc.stderr[-300:])
        return data

    expected = [run(cmd, fresh) for cmd in bench_run.WORKLOADS["export-large"](7, fresh)]
    cmds = bench_run.WORKLOADS["export-large"](7, work)
    warmup = bench_run.warmup_commands(cmds)
    assert {cmd.out for cmd in warmup} == {cmd.out for cmd in cmds}
    for cmd in warmup:
        run(cmd, work)
    for _ in range(2):
        assert [run(cmd, work) for cmd in cmds] == expected
