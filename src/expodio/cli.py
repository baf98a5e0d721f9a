"""Command-line front end.

Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 completed, 2 parse/validation error, 3 resource limit exceeded, 4 internal
invariant violation.  The EXPODIO_BUDGET environment variable overrides the
default candidate budget.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import reductions
from .algebra import IntPolynomial, NumberField
from .errors import (
    ExpodioError,
    InvalidInstance,
    IsRootOfUnity,
    NotInvertible,
    ParseError,
    ResourceLimitExceeded,
    TooManyVariables,
    ValidationError,
    ZeroInverse,
)
from .model import parse_system, serialize_system
from .solve import SearchLimits, decide, prepare
from .structure import enumerate_semilinear
from .verify import parse_solution, verify, verify_report

_INPUT_ERRORS = (
    ParseError,
    ValidationError,
    InvalidInstance,
    IsRootOfUnity,
    NotInvertible,
    ZeroInverse,
)
_LIMIT_ERRORS = (ResourceLimitExceeded, TooManyVariables)

# verify_report materializes alpha^x; refuse to do that for huge exponents
_RESIDUAL_EXPONENT_CAP = 10**6


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _default_budget() -> int:
    env = os.environ.get("EXPODIO_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            print(f"ignoring malformed EXPODIO_BUDGET={env!r}", file=sys.stderr)
    return SearchLimits().max_candidates


def _limits(args) -> SearchLimits:
    return SearchLimits(
        max_candidates=args.budget,
        max_seconds=args.time_limit,
        max_vars=args.max_vars,
    )


def _add_search_flags(sub):
    sub.add_argument("--budget", type=int, default=_default_budget(),
                     help="candidate budget (default %(default)s or EXPODIO_BUDGET)")
    sub.add_argument("--time-limit", type=float, default=60.0, metavar="SECONDS")
    sub.add_argument("--max-vars", type=int, default=12)
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes; 1 keeps output deterministic")


def _parse_int_list(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ParseError(f"malformed integer list: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expodio",
        description="decide, bound, verify, and enumerate solutions of "
        "systems of equations with algebraic bases and integer exponents",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="decide an instance")
    p.add_argument("instance", help="instance JSON path, or - for stdin")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--box-limit", type=int, default=None,
                   help="override the certified search box")
    _add_search_flags(p)

    p = subs.add_parser("verify", help="check a candidate solution")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("-o", "--out", default=None)

    p = subs.add_parser("bounds", help="report the certified bounds")
    p.add_argument("instance")
    p.add_argument("-o", "--out", default=None)

    p = subs.add_parser("enumerate", help="emit the semilinear solution set")
    p.add_argument("instance")
    p.add_argument("-o", "--out", default=None)
    _add_search_flags(p)

    p = subs.add_parser("gen-partition", help="encode a PARTITION instance")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--values", help="comma-separated positive integers")
    g.add_argument("--random", type=int, metavar="COUNT")
    p.add_argument("--max-value", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=2, help="root-of-unity index (default 2)")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--sidecar", default=None,
                   help="ground-truth path (default OUT.sidecar.json when -o given)")

    p = subs.add_parser("gen-3partition", help="encode a 3-PARTITION instance")
    p.add_argument("--values", required=True, help="comma-separated, 3k values")
    p.add_argument("--base-poly", default="-2,1",
                   help="minimal polynomial of the base, c0,c1,... (default alpha=2)")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--sidecar", default=None)

    p = subs.add_parser("rou", help="root-of-unity order of a base")
    p.add_argument("--min-poly", required=True, help="c0,c1,...")

    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    system = parse_system(_read(args.instance))
    limits = _limits(args)
    if args.box_limit is not None:
        _, _, report = prepare(system)
        if args.box_limit < report.box_limit:
            print(
                f"warning: box override {args.box_limit} is below the certified "
                f"bound {report.box_limit}; an UNSAT answer is not certified",
                file=sys.stderr,
            )
    result = decide(system, limits, jobs=args.jobs, box_override=args.box_limit)
    print(f"decided in {result.stats.elapsed:.3f}s "
          f"({result.stats.candidates_tested} candidates)", file=sys.stderr)
    _emit(_dump(result.to_json_dict()), args.out)
    return 0


def _cmd_verify(args) -> int:
    system = parse_system(_read(args.instance))
    candidate = parse_solution(_read(args.solution))
    valid = verify(system, candidate)
    if max((abs(x) for x in candidate.entries), default=0) > _RESIDUAL_EXPONENT_CAP:
        print("exponents too large to materialize residuals", file=sys.stderr)
        residuals = None
    else:
        residuals = [
            [str(c) for c in r.coords] for r in verify_report(system, candidate)
        ]
    _emit(_dump({"valid": valid, "residuals": residuals}), args.out)
    return 0


def _cmd_bounds(args) -> int:
    system = parse_system(_read(args.instance))
    _, _, report = prepare(system)
    _emit(_dump(report.to_json_dict()), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    system = parse_system(_read(args.instance))
    semiset = enumerate_semilinear(system, _limits(args), jobs=args.jobs)
    _emit(semiset.to_json(), args.out)
    return 0


def _sidecar_path(args) -> str | None:
    if args.sidecar:
        return args.sidecar
    if args.out:
        return args.out + ".sidecar.json"
    return None


def _cmd_gen_partition(args) -> int:
    if args.values:
        values = _parse_int_list(args.values)
    else:
        rng = random.Random(args.seed)
        values = [rng.randint(1, args.max_value) for _ in range(args.random)]
        while sum(values) % 2:  # only even totals are encodable
            values = [rng.randint(1, args.max_value) for _ in range(args.random)]
    inst = reductions.PartitionInstance(tuple(values))
    system = reductions.encode_partition(inst, args.n)
    side = reductions.partition_witness(inst)
    if side is None:
        truth = {"ground_truth": "unsat", "witness": None}
    else:
        truth = {"ground_truth": "sat", "witness": [str(s) for s in side]}
    _emit(serialize_system(system), args.out)
    sidecar = _sidecar_path(args)
    if sidecar:
        _emit(_dump(truth), sidecar)
    print(f"PARTITION instance with {len(values)} values over n={args.n}",
          file=sys.stderr)
    return 0


def _cmd_gen_3partition(args) -> int:
    values = _parse_int_list(args.values)
    inst = reductions.ThreePartitionInstance.of(values)
    field = NumberField(IntPolynomial.of(_parse_int_list(args.base_poly)))
    system, witness = reductions.encode_3partition(inst, field)
    if witness is not None:
        truth = {"ground_truth": "sat",
                 "witness": [str(v) for v in witness.entries]}
    else:
        _, complete = reductions.find_triple_arrangement(inst.values, inst.target)
        truth = {"ground_truth": "unsat" if complete else "unknown", "witness": None}
    _emit(serialize_system(system), args.out)
    sidecar = _sidecar_path(args)
    if sidecar:
        _emit(_dump(truth), sidecar)
    print(f"3-PARTITION instance with k={inst.k}, L={inst.target}", file=sys.stderr)
    return 0


def _cmd_rou(args) -> int:
    field = NumberField(IntPolynomial.of(_parse_int_list(args.min_poly)))
    order = field.rou_order
    _emit(_dump({"root_of_unity": order is not None, "order": order}), None)
    return 0


_HANDLERS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "enumerate": _cmd_enumerate,
    "gen-partition": _cmd_gen_partition,
    "gen-3partition": _cmd_gen_3partition,
    "rou": _cmd_rou,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _LIMIT_ERRORS as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExpodioError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
