"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q bench/selftest.py

Runs each workload once in trace mode (about two minutes on two cores).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import expect
import run

BENCH = Path(__file__).resolve().parent
MODULES = ("group", "connectors", "graph", "parameters", "structure", "hamiltonian", "oracles",
           "report", "cli")


def _bench(args: list[str], cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=200)


@pytest.fixture(scope="module")
def traced_runs() -> dict[str, dict]:
    runs = {}
    for workload in run.WORKLOADS:
        proc = _bench(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"])
        result = json.loads(proc.stdout.splitlines()[-1])
        saved = json.loads((run.WORK / "results" / f"{workload}-seed1-trace1.json").read_text())
        runs[workload] = {"rc": proc.returncode, "result": result, "extra": saved["extra"]}
    return runs


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


def test_trace_runs_pass_every_check_and_report_every_layer_metric(traced_runs):
    for workload, r in traced_runs.items():
        assert r["rc"] == 0, workload
        assert set(r["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert r["result"]["correct"] and r["result"]["failed"] == 0, workload
        assert list(r["result"]["metrics"]) == list(run.PER_LAYER)


def test_self_times_sum_to_no_more_than_traced_wall(traced_runs):
    for workload, r in traced_runs.items():
        e = r["extra"]
        # every span's time is either its own or a child's, so the self times
        # add up to the root spans' time, which the child's wall time contains
        assert e["span_self_sum_s"] == pytest.approx(e["root_span_s"], rel=1e-9), workload
        assert 0 < e["span_self_sum_s"] <= e["traced_wall_s"], workload


def test_span_times_subtract_children_and_count_recursion_once():
    spans = [
        ["a", 0.0, 10.0, None],
        ["b", 1.0, 5.0, 0],
        ["b", 2.0, 4.0, 1],  # b calls itself
        ["c", 2.5, 3.0, 2],
        ["c", 6.0, 7.0, 0],
    ]
    self_s, total_s, calls = run.span_times([{"spans": spans, "counters": {}}] * 2)
    assert self_s == pytest.approx({"a": 10.0, "b": 7.0, "c": 3.0})
    assert total_s == pytest.approx({"a": 20.0, "b": 8.0, "c": 3.0})
    assert calls == {"a": 2, "b": 4, "c": 4}


def test_every_module_has_a_nonzero_metric(traced_runs):
    for module in MODULES:
        assert any(
            m["value"] != 0
            for r in traced_runs.values()
            for name, m in r["result"]["metrics"].items()
            if name.startswith(module + ".")
        ), module


def test_traced_outputs_are_byte_identical_to_untraced(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 150)
    cmds = [
        run.Command((2, 3, 5), ("build", "--primes", "2,3,5")),
        run.Command((2, 3, 5), ("params", "--primes", "2,3,5", "--seed", "4")),
        run.Command((2, 3, 5), ("verify", "--primes", "2,3,5", "--seed", "4", "--budget-sources", "3")),
        run.Command((2, 3, 5), ("hamiltonian", "--primes", "2,3,5", "--check")),
    ]
    for fmt in ("edges", "dot", "walk", "independent-set"):
        out = tmp_path / f"{fmt}.txt"
        cmds.append(run.Command((2, 3, 5), ("export", "--primes", "2,3,5", "--format", fmt, "--out", str(out)), out))
    plain, traced = runner.run_pass(cmds, (2, 3, 5), modes=(False, True))
    assert runner.problems == []
    assert len(runner.digests) == len(cmds)  # the traced run matched each untraced output
    assert len(traced.traces) == len(cmds)


def test_a_changed_repeat_output_is_a_failure(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 10)
    cmd = run.Command((2, 3, 5), ("build", "--primes", "2,3,5"))
    good = b"primes: 2,3,5\nn: 900\n|C|: 28\ndegree: 28\n"
    assert runner._check(cmd, 0, good, b"") == []
    assert runner._check(cmd, 0, good, b"") == []
    assert runner._check(cmd, 0, good + b"\n", b"") != []


def _cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {"PYTHONPATH": str(run.SRC), "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, "-m", "psqcayley", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=60)


def test_checker_accepts_real_output_and_rejects_wrong_output(tmp_path):
    p = (2, 3, 5)
    report = json.loads(_cli(["params", "--primes", "2,3,5", "--seed", "9"], tmp_path).stdout)
    assert expect.check_params(json.dumps(report), p, 9) == []
    assert expect.check_params(json.dumps(report), p, 8) != []
    for path, bad in [(("n",), 901), (("chromatic", "coloringProper"), False),
                      (("diameter", "bfsEccentricity"), 5), (("independence", "internalEdges"), 1)]:
        wrong = json.loads(json.dumps(report))
        target = wrong
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
        assert expect.check_params(json.dumps(wrong), p, 9) != [], path

    files = {}
    for fmt in ("edges", "dot", "walk", "independent-set"):
        _cli(["export", "--primes", "2,3,5", "--format", fmt, "--out", f"{fmt}.txt"], tmp_path)
        files[fmt] = (tmp_path / f"{fmt}.txt").read_bytes()
        assert expect.check_export(fmt, files[fmt], p) == [], fmt
    lines = files["edges"].split(b"\n")
    assert expect.check_export("edges", b"\n".join(lines[1:]), p) != []
    assert expect.check_export("edges", b"\n".join([lines[1], lines[0]] + lines[2:]), p) != []
    walk = files["walk"].split(b"\n")
    assert expect.check_export("walk", b"\n".join(walk[:2] + walk[1:-2] + walk[-1:]), p) != []
    swapped = walk[:]
    swapped[2], swapped[450] = swapped[450], swapped[2]
    assert expect.check_export("walk", b"\n".join(swapped), p) != []
    indep = files["independent-set"].split(b"\n")
    neighbour = str((int(indep[1]) + 225) % 900).encode()  # 225 has order 4: a connector
    assert neighbour not in indep
    assert expect.check_export("independent-set", b"\n".join([neighbour] + indep[1:]), p) != []

    verify = _cli(["verify", "--primes", "2,3,5", "--budget-sources", "2"], tmp_path)
    text = verify.stdout.decode()
    assert expect.check_verify(text, verify.returncode, p, 3) == []
    assert expect.check_verify(text, 1, p, 3) != []
    assert expect.check_verify(text, verify.returncode, p, 4) != []
    assert expect.check_verify(text.replace("PASS structure", "FAIL structure"), 1, p, 3) != []
    assert expect.check_verify(text.replace("PASS clique", "SKIP clique"), 0, p, 3) != []


def test_structure_failure_is_recorded_not_gated_when_alpha_exceeds_two():
    lines = [
        "PASS connecting-set: |C|=136, formula=136, order-scan=136",
        "PASS regular-eulerian-connected: degree=136, reached=27225/27225",
        "PASS girth-nonplanarity: ok",
        "PASS clique: ok",
        "PASS chromatic: ok",
        "PASS independence: ok",
        "FAIL structure: fiber={'v': False}",
        "PASS diameter: max=6, mismatches=0 over 54450 pairs from 2 sources",
        "PASS hamiltonian: ok",
        "verification FAILED",
    ]
    text = "\n".join(lines) + "\n"
    assert expect.check_verify(text, 1, (3, 5, 11), 2) == []
    assert expect.check_verify(text, 0, (3, 5, 11), 2) != []


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "params-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
