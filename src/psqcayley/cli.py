"""Command-line front end.

Subcommands:
  build        validate a triple and print n, |C|, degree
  params       emit the certificate report as canonical JSON
  verify       run the oracle suite; exit 1 on any mismatch
  export       write edge-list / dot / walk / independent-set files
  hamiltonian  construct (and optionally verify) the Hamiltonian cycle

Exit codes: 0 success, 1 verification mismatch, 2 usage or validation error,
including a negative --budget-sources, a --config file that cannot be read,
an --out file that cannot be written, and a group too large for the memory
limit (checked from n before anything is allocated, for every subcommand but
`build`, which holds no per-vertex data: it prints |C| and the degree from
the closed form).  `verify` and `params --oracle` sweep distances from
vertex 0 plus --budget-sources extras sampled with --seed, which `params`
echoes.  `export` reads `materialize-cap` from a `key = value` config file
(--config).  Each subcommand accepts only the options it reads.  When
$PSQCAYLEY_OUT_DIR is set, relative --out paths are placed inside it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import report as report_mod
from .connectors import connector_count_formula
from .graph import DEFAULT_MATERIALIZE_CAP, CayleyGraph, TooLargeError, set_bits
from .group import TripleValidationError, make_prime_triple
from .hamiltonian import snake_walk, verify_walk, walk_lines
from .oracles import DEFAULT_SEED
from .parameters import independence_certificate

_CONFIG_KEYS = {"materialize-cap"}


# Peak memory per vertex of the commands that hold per-vertex data: the
# child's ru_maxrss from a small posix_spawn launcher, above the 14.6 MiB of
# `import psqcayley.cli` (CPython 3.11, x86-64 Linux).  `verify
# --budget-sources 0` peaks at 8.9 bytes at (11,13,17) and 9.0 at (13,17,19),
# n = 17,631,601, but at 22.5 at (2,3,167); the walk export at 1.4 at
# (11,13,17) but 40.0 at (2,3,401) and (2,5,199): with a = 2 the inner cycle
# and each row of the walk hold n/4 vertices.  64 bytes leaves 1.6 times
# headroom over the largest peak.
BYTES_PER_VERTEX = 64
MEMORY_LIMIT_BYTES = 2 << 30


class UsageError(Exception):
    pass


def _check_memory(n: int) -> None:
    """Fail fast, before any allocation, when n vertices of BYTES_PER_VERTEX
    bytes each would need more than MEMORY_LIMIT_BYTES."""
    predicted = BYTES_PER_VERTEX * n
    if predicted > MEMORY_LIMIT_BYTES:
        raise TooLargeError(
            f"n = {n} needs about {predicted >> 20} MiB, above the limit of "
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


def _out_path(name: str) -> Path:
    path = Path(name)
    base = os.environ.get("PSQCAYLEY_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psqcayley", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--primes", required=True, metavar="A,B,C")

    p = sub.add_parser("build", help="validate the triple and print basic facts")
    add_common(p)

    p = sub.add_parser("params", help="emit the certificate report as JSON")
    add_common(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--oracle", action="store_true", help="also run the full oracle suite")
    p.add_argument("--budget-sources", type=int, default=None, metavar="N")
    p.add_argument("--out", default=None, metavar="FILE")
    p.add_argument("--timings", action="store_true", help="include wall-clock timings (non-reproducible)")

    p = sub.add_parser("verify", help="run the oracle suite; exit 1 on mismatch")
    add_common(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--budget-sources", type=int, default=None, metavar="N")

    p = sub.add_parser("export", help="write a graph/walk/independent-set file")
    add_common(p)
    p.add_argument("--config", default=None, metavar="FILE")
    p.add_argument("--format", required=True, choices=["edges", "dot", "walk", "independent-set"])
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("hamiltonian", help="construct the Hamiltonian cycle")
    add_common(p)
    p.add_argument("--check", action="store_true", help="verify the walk after construction")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)

    try:
        triple = make_prime_triple(*_parse_primes(args.primes))
        sources = getattr(args, "budget_sources", None)
        if sources is not None:
            if args.command == "params" and not args.oracle:
                raise UsageError("unrecognized arguments: --budget-sources (read only with --oracle)")
            if sources < 0:
                raise UsageError("bfs_sources must be nonnegative")
        config = _load_config(args.config) if getattr(args, "config", None) else {}
        cap = config.get("materialize-cap", DEFAULT_MATERIALIZE_CAP)

        if args.command == "build":
            cset_size = connector_count_formula(triple)
            print(f"primes: {triple.alpha},{triple.beta},{triple.gamma}")
            print(f"n: {triple.n}")
            print(f"|C|: {cset_size}")
            print(f"degree: {cset_size}")
            return 0

        _check_memory(triple.n)

        if args.command == "params":
            # both renderings share one certify, which reads neither sources nor seed
            certs = report_mod.certify(triple) if args.oracle else None
            payload = report_mod.report_bytes(report_mod.build_report(triple, args.seed, args.timings, certs))
            if args.out:
                _out_path(args.out).write_bytes(payload)
            else:
                sys.stdout.write(payload.decode("ascii"))
            if args.oracle:
                outcome = report_mod.run_verification(triple, sources, args.seed, certificates=certs)
                for line in outcome.lines:
                    print(line, file=sys.stderr)
                return 0 if outcome.ok else 1
            return 0

        if args.command == "verify":
            outcome = report_mod.run_verification(triple, sources, args.seed)
            for line in outcome.lines:
                print(line)
            print("verification OK" if outcome.ok else "verification FAILED")
            return 0 if outcome.ok else 1

        if args.command == "export":
            if args.format in ("edges", "dot"):
                CayleyGraph.from_triple(triple).export(args.format, _out_path(args.out), cap=cap)
                return 0
            if args.format == "walk":
                # one chunk per row of the walk, written as it is formatted
                with open(_out_path(args.out), "w", encoding="ascii", newline="\n") as f:
                    for chunk in walk_lines(snake_walk(triple)):
                        f.write(chunk + "\n")
                return 0
            cert = independence_certificate(triple, CayleyGraph.from_triple(triple))
            payload = ("\n".join(map(str, set_bits(cert.members))) + "\n").encode("ascii")
            _out_path(args.out).write_bytes(payload)
            return 0

        # hamiltonian, the last of the subcommands argparse admits
        walk = snake_walk(triple)
        print("kind: cycle")
        print(f"length: {walk.length}")
        print(f"endpoints: {walk.endpoints[0]} {walk.endpoints[1]}")
        if args.check:
            ok = verify_walk(walk, CayleyGraph.from_triple(triple))
            print(f"verified: {ok}")
            return 0 if ok else 1
        return 0
    # OSError: a --config file that cannot be read or an --out file that cannot be written
    except (UsageError, TripleValidationError, OverflowError, TooLargeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
