"""End-to-end benchmark of the psqcayley CLI.

    python3 bench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  Each
command runs as its own child process (`python -m psqcayley ...`), one at a
time: a closed loop with one client.  The seed is passed to the CLI as
`--seed`.  Every output is checked against expectations computed from the
primes alone (`expect.py`), and a repeated command must reproduce its first
output byte for byte.  A command fails when it times out, exits 2 or
crashes, exits with a code its own PASS/FAIL lines disagree with, or fails
its check.

--trace 0 runs one untimed warm-up (the workload's commands on the smallest
triple, which compiles every module), then `build` on each of the workload's
triples SETUP_REPEATS times, then full passes over the workload's command
list until T seconds have passed (at least two passes when time allows).  It
reports:

  setup_s       median over the repeats of the summed `build` times
  wall_s        median over passes of the pass's summed command times
  largest_s     the same, for the commands on the workload's largest triple
  peak_rss_mb   median over passes of the largest child peak RSS (os.wait4)
  ops_ok_ratio  commands that passed their checks / commands attempted

--trace 1 runs the warm-up, then one pass in which each command runs untraced
and then traced (`tracer.py`).  It reports the per-layer metrics summed over
the traced runs (their times unscaled), plus `trace.overhead_s` = traced
minus untraced time of the pass.  Traced outputs must match the untraced ones
byte for byte.

Times are scaled to a reference CPU speed.  On a shared virtual machine
(2 vCPUs, Intel Xeon) CPU speed swings by up to half over seconds to
minutes, which no number of repeats averages away.  So the benchmark pins
itself and its children to one CPU and, while each command runs, times a
short fixed pure-Python BFS (the speed probe) on that CPU every
PROBE_PERIOD_S, taking about 3% of it.  It reports each command's wall time
multiplied by REF_PROBE_S / (mean probe time): the time the command would
take at the speed where the probe takes REF_PROBE_S.  The unscaled times are
printed, and saved beside them with each command's wall time and factor.

The probe shares its CPU with the child, so the factor could in principle
follow what the child does (blocking I/O, cache pressure) rather than the
machine.  As a control, IDLE_PROBES probes run just before and just after each
command, with no child running; their factor is saved as `idle_speed`.  Scaling by
the idle factor alone misses the swings inside a command and leaves spreads
near the unscaled ones; the ratio of the two factors is what shows whether a
workload biases the probe (bench/baseline/BENCH_0.json records it).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines above it give the environment stamp and
each metric with its sample count.  The exit code is 1 when any command
failed its check, 2 when the program is missing or the arguments are bad.
Work files and a JSON file of each run's samples go to `.bench_out/` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import expect

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
TRACER = Path(__file__).resolve().parent / "tracer.py"

SETUP_REPEATS = 11
DEADLINE_S = 170.0  # every run must end within 180 s
COMMAND_TIMEOUT_S = 120.0
SMALLEST = (2, 3, 5)
# The speed probe: a breadth-first search of a small circulant graph in pure
# Python, and the time it takes at the reference speed that reported times
# are scaled to.  Changing either makes results incomparable with earlier ones.
PROBE_N = 2048
PROBE_STEPS = (1, 3, 7, 15, 31, 63, 127, 255)
REF_PROBE_S = 0.0015
PROBE_PERIOD_S = 0.05
IDLE_PROBES = 3

# metric name -> unit, as BENCHMARK.json defines them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Command:
    primes: tuple[int, int, int]
    argv: tuple[str, ...]
    out: Path | None = None  # the file an export writes

    @property
    def sub(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str | None:
        """The value given for --name, or None."""
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None


def _p(primes: tuple[int, int, int]) -> str:
    return ",".join(map(str, primes))


def params_ladder(seed: int, out: Path) -> list[Command]:
    """The certificate path up the triple ladder: BFS from vertex 0 (twice per
    call) and the sampled coloring dominate; structure runs through (3,5,7)."""
    triples = [(2, 3, 5), (2, 3, 7), (3, 5, 7), (3, 5, 11), (5, 7, 11)]
    return [Command(t, ("params", "--primes", _p(t), "--seed", str(seed))) for t in triples]


def verify_sweep(seed: int, out: Path) -> list[Command]:
    """The oracle path: many small BFS runs at (2,3,5), a few huge ones at
    (5,7,11); (3,5,7) keeps its documented FAIL structure."""
    base = ("--seed", str(seed))
    return [
        Command((2, 3, 5), ("verify", "--primes", "2,3,5") + base),
        Command((3, 5, 7), ("verify", "--primes", "3,5,7") + base),
        Command((5, 7, 11), ("verify", "--primes", "5,7,11") + base + ("--budget-sources", "1")),
    ]


def export_large(seed: int, out: Path) -> list[Command]:
    """The write path: the edge loop behind edges/dot export and the walk
    export.  BFS and the oracles barely run."""
    config = out / "export.cfg"
    config.write_text("materialize-cap = 30000\n")
    cmds = []
    for t, fmt, extra in [
        ((3, 5, 11), "edges", ("--config", str(config))),
        ((3, 5, 11), "dot", ("--config", str(config))),
        ((5, 7, 11), "walk", ()),
        ((5, 7, 11), "independent-set", ()),
    ]:
        path = out / f"export-{fmt}.txt"
        cmds.append(Command(t, ("export", "--primes", _p(t), "--format", fmt, "--out", str(path)) + extra, path))
    cmds.append(Command((5, 7, 11), ("hamiltonian", "--primes", "5,7,11", "--check")))
    return cmds


WORKLOADS = {
    "params-ladder": params_ladder,
    "verify-sweep": verify_sweep,
    "export-large": export_large,
}


def sweep_sources(cmd: Command) -> int:
    """Distance-sweep sources the CLI uses: every vertex up to n = 2000, else
    vertex 0 plus --budget-sources (default 50) seeded extras."""
    budget = cmd.flag("--budget-sources")
    if budget is not None:
        return 1 + int(budget)
    n = expect.group_order(cmd.primes)
    return n if n <= 2000 else 51


def check_output(cmd: Command, rc: int, stdout: bytes, data: bytes) -> list[str]:
    text = stdout.decode("ascii", "replace")
    if cmd.sub == "verify":
        if rc not in (0, 1):
            return [f"exit code {rc}"]
        return expect.check_verify(text, rc, cmd.primes, sweep_sources(cmd))
    if rc != 0:
        return [f"exit code {rc}"]
    if cmd.sub == "params":
        return expect.check_params(text, cmd.primes, int(cmd.flag("--seed")))
    if cmd.sub == "build":
        return expect.check_build(text, cmd.primes)
    if cmd.sub == "hamiltonian":
        return expect.check_hamiltonian(text, cmd.primes)
    if cmd.sub == "export":
        return expect.check_export(cmd.flag("--format"), data, cmd.primes)
    return [f"no check for {cmd.sub!r}"]


def probe() -> float:
    """Seconds the speed probe takes on this CPU right now.  A list-based BFS
    like the program's own slows down with the machine as the program does;
    a tight arithmetic loop slows down less."""
    start = time.perf_counter()
    n = PROBE_N
    dist = [-1] * n
    dist[0] = 0
    queue = [0] * n
    head, tail = 0, 1
    while head < tail:
        u = queue[head]
        head += 1
        d1 = dist[u] + 1
        for c in PROBE_STEPS:
            v = u + c
            if v >= n:
                v -= n
            if dist[v] < 0:
                dist[v] = d1
                queue[tail] = v
                tail += 1
    return time.perf_counter() - start


class SpeedSampler(threading.Thread):
    """Runs the probe every PROBE_PERIOD_S until stopped.  The probe shares
    the pinned CPU with the child, so it sees the speed the child gets."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples = [probe()]
        self._done = threading.Event()

    def run(self) -> None:
        while not self._done.wait(PROBE_PERIOD_S):
            self.samples.append(probe())

    def speed(self) -> float:
        """Stop, take a last sample, and return REF_PROBE_S / mean probe time.

        The harmonic mean averages the probe's rate over time, as the child's
        progress does."""
        self._done.set()
        self.join()
        self.samples.append(probe())
        return REF_PROBE_S / statistics.harmonic_mean(self.samples)


@dataclass
class Outcome:
    primes: tuple[int, int, int]
    wall_s: float  # as measured
    speed: float  # REF_PROBE_S over the mean probe time during the command
    idle_speed: float  # the same, from probes just before and after it (no child running)
    rss_mb: float
    trace: dict | None

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed


@dataclass
class PassResult:
    largest: tuple[int, int, int]
    outcomes: list[Outcome] = field(default_factory=list)

    def time_s(self, largest_only: bool = False, scaled: bool = True) -> float:
        return sum(o.scaled_s if scaled else o.wall_s for o in self.outcomes
                   if not largest_only or o.primes == self.largest)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)

    @property
    def traces(self) -> list[dict]:
        return [o.trace for o in self.outcomes if o.trace is not None]


class Runner:
    """Runs and checks commands; remembers each command's first output."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple[str, ...], str] = {}
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.pop("PSQCAYLEY_OUT_DIR", None)
        self.env.update(
            PYTHONPATH=str(SRC),
            PYTHONHASHSEED="0",
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        )

    def run(self, cmd: Command, traced: bool = False) -> Outcome:
        self.attempted += 1
        trace_path = self.work / "trace.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(trace_path), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "psqcayley", *cmd.argv]
        timeout = max(0.0, min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic()))
        stdout_path, stderr_path = self.work / "stdout", self.work / "stderr"
        expired = threading.Event()
        idle = [probe() for _ in range(IDLE_PROBES)]
        sampler = SpeedSampler()
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            sampler.start()
            timer = threading.Timer(timeout, lambda: (expired.set(), proc.kill()))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
        speed = sampler.speed()
        idle += [probe() for _ in range(IDLE_PROBES)]
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        stdout = stdout_path.read_bytes()
        data = cmd.out.read_bytes() if cmd.out is not None and cmd.out.exists() else b""
        if expired.is_set():
            problems = [f"timed out after {timeout:.0f} s"]
        else:
            problems = self._check(cmd, rc, stdout, data)
        if problems:
            self.failed += 1
            tail = stderr_path.read_bytes()[-300:].decode("ascii", "replace")
            self.problems.append(f"{' '.join(cmd.argv)}{' (traced)' if traced else ''}: "
                                 f"{'; '.join(problems)} {tail}".strip())
        trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        if trace_path.exists():
            trace_path.unlink()
        return Outcome(cmd.primes, wall, speed, REF_PROBE_S / statistics.harmonic_mean(idle),
                       usage.ru_maxrss / 1024.0, trace)

    def _check(self, cmd: Command, rc: int, stdout: bytes, data: bytes) -> list[str]:
        digest = hashlib.sha256(b"%d\0%s\0%s" % (rc, stdout, data)).hexdigest()
        first = self.digests.get(cmd.argv)
        if first is not None:
            return [] if digest == first else ["output differs from the first run of this command"]
        problems = check_output(cmd, rc, stdout, data)
        if not problems:
            self.digests[cmd.argv] = digest
        return problems

    def run_pass(self, cmds: list[Command], largest: tuple[int, int, int],
                 modes: tuple[bool, ...] = (False,)) -> list[PassResult]:
        """One pass per mode (traced or not); each command runs in every mode
        back to back, so the modes see the same machine conditions."""
        results = [PassResult(largest) for _ in modes]
        for cmd in cmds:
            for traced, result in zip(modes, results):
                result.outcomes.append(self.run(cmd, traced))
        return results


def warmup_commands(cmds: list[Command]) -> list[Command]:
    """The workload's commands on the smallest triple, each once."""
    seen: dict[tuple[str, ...], Command] = {}
    for cmd in cmds:
        argv = tuple(_p(SMALLEST) if a == _p(cmd.primes) else a for a in cmd.argv)
        seen.setdefault(argv, Command(SMALLEST, argv, cmd.out))
    return list(seen.values())


def span_times(traces: list[dict]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Self time, total time and call count of each span name over the traces.

    A span's self time is its duration minus the durations of its direct
    children.  Its total time counts the time of recursive calls once."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for tr in traces:
        spans = tr["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            outer = parent
            while outer is not None and spans[outer][0] != name:
                outer = spans[outer][3]
            if outer is None:
                total_s[name] = total_s.get(name, 0.0) + (end - start)
    return self_s, total_s, calls


def layer_metrics(traces: list[dict], overhead_s: float) -> dict[str, float]:
    self_s, total_s, calls = span_times(traces)
    counters: dict[str, float] = {}
    for tr in traces:
        for key, value in tr["counters"].items():
            counters[key] = counters.get(key, 0.0) + value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(key: str) -> float:
        return counters.get(key, 0.0)

    m = {
        "graph.bfs.us_per_vertex": ratio(total_s.get("graph.bfs", 0.0) * 1e6, count("graph.bfs.vertices")),
        "parameters.coloring.coverage": ratio(
            count("parameters.coloring.edges_checked"), count("parameters.coloring.edges_total")),
        "parameters.independence.coverage": ratio(
            count("parameters.independence.pairs_checked"), count("parameters.independence.pairs_total")),
        "oracles.sweep.coverage": ratio(count("oracles.sweep.sources"), count("oracles.sweep.vertices")),
        "verify.pass_checks": count("verify.lines.PASS"),
        "verify.fail_checks": count("verify.lines.FAIL"),
        "verify.skip_checks": count("verify.lines.SKIP"),
        "trace.overhead_s": overhead_s,
    }
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in m:
            continue
        if kind == "self_s":
            m[name] = self_s.get(span, 0.0)
        elif kind == "total_s" and span in total_s:
            m[name] = total_s[span]
        elif kind == "calls" and span in calls:
            m[name] = float(calls[span])
        else:  # a counter kept by the tracer under the metric's own name
            m[name] = count(name)
    return {name: m[name] for name in PER_LAYER}


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "psqcayley").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "seed": seed,
        "loadavg": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="psqcayley end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "psqcayley" / "cli.py").is_file():
        print(f"error: no psqcayley sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.monotonic()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    env = environment(args.seed)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(work, t0 + DEADLINE_S)
        cmds = WORKLOADS[args.workload](args.seed, work)
        largest = max((c.primes for c in cmds), key=expect.group_order)
        for cmd in warmup_commands(cmds):
            runner.run(cmd)

        samples: dict[str, list[float]] = {}
        unscaled: dict[str, list[float]] = {}
        per_command: dict[str, list[float]] = {}
        if args.trace:
            plain, traced = runner.run_pass(cmds, largest, modes=(False, True))
            metrics = layer_metrics(traced.traces, traced.time_s() - plain.time_s())
            units = PER_LAYER
            self_s, _, _ = span_times(traced.traces)
            extra = {"untraced_wall_s": plain.time_s(scaled=False),
                     "traced_wall_s": traced.time_s(scaled=False),
                     "span_self_sum_s": sum(self_s.values()),
                     "root_span_s": sum(end - start for tr in traced.traces
                                        for _, start, end, parent in tr["spans"] if parent is None)}
        else:
            triples = sorted({c.primes for c in cmds}, key=expect.group_order)
            setups = [PassResult(largest, [runner.run(Command(t, ("build", "--primes", _p(t))))
                                           for t in triples])
                      for _ in range(SETUP_REPEATS)]
            passes: list[PassResult] = []
            start = time.monotonic()
            while True:
                passes += runner.run_pass(cmds, largest)
                now = time.monotonic()
                if now + passes[-1].time_s(scaled=False) * 1.5 > runner.deadline:
                    break
                if now - start >= args.seconds and len(passes) >= 2:
                    break
            for scaled, table in ((True, samples), (False, unscaled)):
                table["setup_s"] = [p.time_s(scaled=scaled) for p in setups]
                table["wall_s"] = [p.time_s(scaled=scaled) for p in passes]
                table["largest_s"] = [p.time_s(largest_only=True, scaled=scaled) for p in passes]
            samples["peak_rss_mb"] = [p.peak_rss_mb for p in passes]
            metrics = {k: statistics.median(v) for k, v in samples.items()}
            metrics["ops_ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
            units = END_TO_END
            timed = [o for p in setups + passes for o in p.outcomes]
            per_command = {k: [getattr(o, k) for o in timed] for k in ("wall_s", "speed", "idle_speed")}
            extra = {f"unscaled_{k}": statistics.median(v) for k, v in unscaled.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload}: trace={args.trace} attempted={runner.attempted} failed={runner.failed} "
          f"ops_failed_ratio={runner.failed}/{runner.attempted}")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        n = f" (median of {len(samples[name])})" if name in samples else ""
        print(f"  {name:48s} {value:14.6f} {units[name]}{n}")
    for name, value in extra.items():
        print(f"  {name:48s} {value:14.6f} s")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"workload": args.workload, "env": env, "elapsed_s": time.monotonic() - t0,
         "samples": samples, "unscaled": unscaled, "commands": per_command, "extra": extra,
         "problems": runner.problems, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
