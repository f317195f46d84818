"""Measure the baseline: every workload on several seeds, plus one traced run.

    python3 bench/baseline.py [--seeds 1-10]

Runs `run.py` once per workload and seed with --trace 0 and the run length
BENCHMARK.json sets, then once per workload with --trace 1, sequentially, and
writes bench/baseline/BENCH_0.json.  For each end-to-end metric it records
the values, their median and the quartile spread (Q3 - Q1) / median, with
quartiles from `statistics.quantiles(values, n=4)`, and checks the spread
against the metric's bound in BENCHMARK.json.  For the times it records the
same for the unscaled values; for each seed the wall time and the speed
factors of every timed command (see run.py); and, as a check that the probe
is not biased by what a workload does, the ratio of the time scaled by the
factor measured during each command to the time scaled by the factor
measured between commands.  The `notes` of an existing BENCH_0.json are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

OUT = Path(__file__).resolve().parent / "baseline" / "BENCH_0.json"


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "spread": spread(values), "values": values}


def during_over_idle(commands: dict[str, list[float]]) -> float:
    """One run's scaled time with the factor measured during each command,
    over the same with the factor measured between commands."""
    wall = commands["wall_s"]
    return (sum(w * f for w, f in zip(wall, commands["speed"]))
            / sum(w * f for w, f in zip(wall, commands["idle_speed"])))


def bench(workload: str, seed: int, trace: int) -> dict:
    """One run; returns the result file run.py saved."""
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
         "--seconds", str(run.SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}\n{proc.stderr}")
    if trace == 0:
        print(f"{workload} seed={seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return json.loads((run.WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in run.SPEC["end_to_end"]}

    env = run.environment(first)
    env.pop("seed")
    notes = json.loads(OUT.read_text()).get("notes", []) if OUT.exists() else []
    report = {"notes": notes, "env": env, "seconds": run.SPEC["run_seconds"], "seeds": [first, last],
              "workloads": {}}
    steady = True
    for workload in run.WORKLOADS:
        runs = [bench(workload, seed, 0) for seed in range(first, last + 1)]
        entry: dict = {"end_to_end": {}, "unscaled": {}}
        for name, bound in bounds.items():
            entry["end_to_end"][name] = s = summary([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            flag = "" if s["spread"] <= bound / 3 else "  <-- above a third of the bound"
            steady = steady and s["spread"] <= bound
            print(f"  {workload} {name}: median {s['median']:.4f} spread {s['spread']:.3f} "
                  f"bound {bound}{flag}", flush=True)
        for name in runs[0]["unscaled"]:
            entry["unscaled"][name] = s = summary([statistics.median(r["unscaled"][name]) for r in runs])
            print(f"  {workload} unscaled {name}: median {s['median']:.4f} spread {s['spread']:.3f}",
                  flush=True)
        entry["speed_factor"] = {
            "during_median": statistics.median(f for r in runs for f in r["commands"]["speed"]),
            "idle_median": statistics.median(f for r in runs for f in r["commands"]["idle_speed"]),
            "during_over_idle": summary([during_over_idle(r["commands"]) for r in runs]),
        }
        print(f"  {workload} speed factor during/idle: median "
              f"{entry['speed_factor']['during_over_idle']['median']:.3f}", flush=True)
        entry["commands"] = {seed: r["commands"] for seed, r in zip(range(first, last + 1), runs)}
        entry["attempted"] = sum(r["attempted"] for r in runs)
        entry["failed"] = sum(r["failed"] for r in runs)
        traced = bench(workload, first, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
