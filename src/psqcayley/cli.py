"""Command-line front end: psqcayley SUBCOMMAND --primes A,B,C [OPTION ...]

  build        validate a triple and print n, |C|, degree
  params       emit the certificate report as canonical JSON [--seed N] [--out FILE] [--timings]
  verify       run the oracle suite; exit 1 on any mismatch [--seed N] [--budget-sources N]
  export       write a --format edges|dot|walk|independent-set file --out FILE [--config FILE]
  hamiltonian  construct the Hamiltonian cycle, and with [--check] verify it

An option is given as `--opt value` or `--opt=value`, and the last of a
repeated one wins; -h or --help prints this text.  Exit codes: 0 success, 1
verification mismatch, 2 usage or validation error, including a negative
--budget-sources, a --config file that cannot be read, an --out file that
cannot be written, and a group too large for the memory limit (checked
before anything is allocated: from n for `params`, `verify` and `export`;
from |C| for `hamiltonian --check`, which holds the connecting set and no
per-vertex data; not at all for `build` and plain `hamiltonian`, which print
|C| and the degree from the closed form, or the walk from the moduli).
`verify` sweeps distances from vertex 0 plus --budget-sources extras sampled
with --seed, which `params` echoes.  `export` reads `materialize-cap` from a
`key = value` config file (--config).  Each subcommand accepts only the
options it reads.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import report as report_mod
from .connectors import connector_count_formula
from .graph import DEFAULT_MATERIALIZE_CAP, CayleyGraph, TooLargeError
from .group import TripleValidationError, make_prime_triple
from .hamiltonian import snake_walk, verify_walk, walk_lines
from .oracles import DEFAULT_SEED
from .parameters import independence_certificate

_CONFIG_KEYS = {"materialize-cap"}
# each subcommand's options: an int or str option takes a value, a bool one is a flag
OPTIONS = {
    "build": {"--primes": str},
    "params": {"--primes": str, "--seed": int, "--out": str, "--timings": bool},
    "verify": {"--primes": str, "--seed": int, "--budget-sources": int},
    "export": {"--primes": str, "--config": str, "--format": str, "--out": str},
    "hamiltonian": {"--primes": str, "--check": bool},
}


# Peak memory per vertex: the child's ru_maxrss from a small posix_spawn
# launcher, above the 13.5 MiB of `import psqcayley.cli` (CPython 3.11, x86-64
# Linux, bytecode precompiled).  `verify --budget-sources 0` peaks at 6.1
# bytes at (2,3,167), 5.6 at (2,3,401), 3.4 at (11,13,17) and 3.4 at
# (13,17,19); `params` at 6.0 at (2,3,167), 5.6 at (2,3,401) and 2.9 at
# (13,17,19).  The walk and independent-set exports hold nothing n-sized, so
# the gate bounds only their output: the walk's pieces of under c² entries
# peak at 4.2 at (2,3,167) and 4.0 at (2,3,401), where c² = n/36, and one abc
# period of the set at nothing measurable at (11,13,17).  The edges and dot
# exports hold every vertex's name and a chunk of rows |C| wide: with
# materialize-cap raised, dot peaks at 69.1 at (7,11,13), 97.6 at (5,7,11)
# and 177.5 at (2,3,47), where |C|/n is near its largest, 1/36.
# `hamiltonian --check` holds the connecting set and nothing per vertex:
# above its own 14.2 MiB at (2,3,5), it peaks at 47.4 bytes per connector at
# (2,3,1009), 66.8 at (701,709,719) and 66.9 at (1009,1013,1049).  Each
# constant leaves at least 2.8 times headroom over its largest peak.
BYTES_PER_VERTEX = 24
EXPORT_BYTES_PER_VERTEX = 512  # the edges and dot exports
BYTES_PER_CONNECTOR = 192  # `hamiltonian --check`
MEMORY_LIMIT_BYTES = 2 << 30


class UsageError(Exception):
    pass


def _check_memory(count: int, bytes_each: int = BYTES_PER_VERTEX, what: str = "n") -> None:
    """Fail fast, before any allocation, when count vertices (or, with what
    "|C|", connectors) of bytes_each bytes each would need more than
    MEMORY_LIMIT_BYTES."""
    predicted = bytes_each * count
    if predicted > MEMORY_LIMIT_BYTES:
        raise TooLargeError(
            f"{what} = {count} needs about {predicted >> 20} MiB, above the limit of "
            f"{MEMORY_LIMIT_BYTES >> 20} MiB"
        )


def _parse_primes(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--primes expects three comma-separated integers, got {text!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--primes expects integers, got {text!r}") from None
    return a, b, c


def _load_config(path: str) -> dict[str, int]:
    """The values in the config file at path, each key one that `export`
    reads, given once."""
    values: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = int(value.strip())
        except ValueError:
            raise UsageError(f"{path}:{lineno}: value for {key!r} must be an integer") from None
    return values


def _parse_args(argv: list[str]) -> tuple[str, dict[str, object]]:
    """The subcommand and its options by OPTIONS; a repeated option keeps its last value."""
    if not argv or argv[0] not in OPTIONS:
        raise UsageError(f"expected a subcommand, one of {', '.join(OPTIONS)}")
    command, kinds, args = argv[0], OPTIONS[argv[0]], {}
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        kind = kinds.get(name)
        if kind is None:
            raise UsageError(f"unrecognized arguments: {word}")
        if kind is bool:
            if eq:
                raise UsageError(f"{name} takes no value")
            value = True
        elif not eq:
            value = next(words, "--")
            if value.startswith("--"):
                raise UsageError(f"{name} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{name} expects an integer, got {value!r}") from None
        args[name] = value
    for name in ("--primes", "--format", "--out") if command == "export" else ("--primes",):
        if name not in args:
            raise UsageError(f"{command} requires {name}")
    if args.get("--format", "edges") not in ("edges", "dot", "walk", "independent-set"):
        raise UsageError(f"--format must be edges, dot, walk or independent-set, got {args['--format']!r}")
    return command, args


def main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return 0
    try:
        command, args = _parse_args(argv)
        triple = make_prime_triple(*_parse_primes(args["--primes"]))
        sources, seed, out = args.get("--budget-sources"), args.get("--seed", DEFAULT_SEED), args.get("--out")
        if sources is not None and sources < 0:
            raise UsageError("--budget-sources must be nonnegative")
        config = _load_config(args["--config"]) if args.get("--config") else {}
        cap = config.get("materialize-cap", DEFAULT_MATERIALIZE_CAP)

        if command == "build":
            cset_size = connector_count_formula(triple)
            print(f"primes: {triple.alpha},{triple.beta},{triple.gamma}")
            print(f"n: {triple.n}")
            print(f"|C|: {cset_size}")
            print(f"degree: {cset_size}")
            return 0

        edges_or_dot = args.get("--format") in ("edges", "dot")
        if command != "hamiltonian":
            _check_memory(triple.n, EXPORT_BYTES_PER_VERTEX if edges_or_dot else BYTES_PER_VERTEX)
        elif "--check" in args:
            _check_memory(connector_count_formula(triple), BYTES_PER_CONNECTOR, "|C|")

        if command == "params":
            payload = report_mod.report_bytes(report_mod.build_report(triple, seed, "--timings" in args))
            if out:
                Path(out).write_bytes(payload)
            else:
                sys.stdout.write(payload.decode("ascii"))
            return 0

        if command == "verify":
            outcome = report_mod.run_verification(triple, sources, seed)
            for line in outcome.lines:
                print(line)
            print("verification OK" if outcome.ok else "verification FAILED")
            return 0 if outcome.ok else 1

        if command == "export":
            if edges_or_dot:
                CayleyGraph.from_triple(triple).export(args["--format"], out, cap=cap)
                return 0
            if args["--format"] == "walk":
                chunks = walk_lines(snake_walk(triple))
            else:  # one chunk per abc period: its a·b members, one per line
                cert = independence_certificate(triple)
                line = b"%d\n" * len(cert.residues)
                chunks = (line % tuple(v + r for r in cert.residues) for v in range(0, triple.n, cert.period))
            with open(out, "wb") as f:
                f.writelines(chunks)
            return 0

        # hamiltonian, the last subcommand in OPTIONS
        walk = snake_walk(triple)
        print("kind: cycle")
        print(f"length: {walk.length}")
        print(f"endpoints: {walk.endpoints[0]} {walk.endpoints[1]}")
        if "--check" in args:
            ok = verify_walk(walk, CayleyGraph.from_triple(triple))
            print(f"verified: {ok}")
            return 0 if ok else 1
        return 0
    # OSError: a --config file that cannot be read or an --out file that cannot be written
    except (UsageError, TripleValidationError, OverflowError, TooLargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main(sys.argv[1:]))
