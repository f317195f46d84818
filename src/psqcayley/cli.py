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
`verify` decides every distance by the one BFS from vertex 0 (every
translation is an automorphism); --budget-sources sets only the source and
pair counts that its diameter line reports.  `verify` still accepts --seed,
only because the benchmark passes it, and no output depends on it; `params`
echoes it.  `export` reads `materialize-cap` from a `key = value` config file
(--config) of at most 65,536 characters.  Each subcommand accepts only the
options it reads.
"""

from __future__ import annotations

import gc
import sys

from . import report as report_mod
from .connectors import connector_count_formula
from .graph import DEFAULT_MATERIALIZE_CAP, CayleyGraph, TooLargeError, write_chunks
from .group import make_prime_triple
from .hamiltonian import snake_walk, verify_walk, walk_lines
from .parameters import independence_certificate

_CONFIG_KEYS = {"materialize-cap"}
CONFIG_MAX_CHARS = 65_536  # a longer --config file is refused, read one character past this
# each subcommand's options: an int or str option takes a value, a bool one is a flag
OPTIONS = {
    "build": {"--primes": str},
    "params": {"--primes": str, "--seed": int, "--out": str, "--timings": bool},
    "verify": {"--primes": str, "--seed": int, "--budget-sources": int},
    "export": {"--primes": str, "--config": str, "--format": str, "--out": str},
    "hamiltonian": {"--primes": str, "--check": bool},
}


# Peak bytes per vertex (per connector for `hamiltonian --check`) above the
# import's floor, with at least 2.8 times headroom over the largest measured
# peak of each command (the measurements are in CHANGES.md).
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
    reads, given once as a positive integer."""
    values: dict[str, int] = {}
    with open(path) as f:
        text = f.read(CONFIG_MAX_CHARS + 1)
    if len(text) > CONFIG_MAX_CHARS:
        raise UsageError(f"{path}: longer than {CONFIG_MAX_CHARS} characters")
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        if values[key] < 1:
            raise UsageError(f"{path}:{lineno}: value for {key!r} must be positive")
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
        sources, out = args.get("--budget-sources"), args.get("--out")
        if sources is not None and sources < 0:
            raise UsageError("--budget-sources must be nonnegative")
        config = _load_config(args["--config"]) if "--config" in args else {}
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
            seed = args.get("--seed", report_mod.DEFAULT_SEED)
            payload = report_mod.report_bytes(report_mod.build_report(triple, seed, "--timings" in args))
            if out is not None:
                write_chunks(out, (payload,))
            else:
                sys.stdout.write(payload.decode("ascii"))
            return 0

        if command == "verify":
            outcome = report_mod.run_verification(triple, sources)
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
            write_chunks(out, chunks)
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
    except (UsageError, OverflowError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    """The entry point of `python -m psqcayley` and the `psqcayley` script.
    The import-time heap lives until exit, so it is frozen first: no later
    collection walks it again, the full ones at interpreter shutdown
    included.  `main` freezes nothing, so an in-process caller keeps its
    own heap collectable."""
    gc.freeze()
    sys.exit(main(sys.argv[1:]))
