"""Command line front end: build, compose, analyze, sweep, verify.

Exit codes: 0 success, 1 verification failure, 2 parse/usage error,
3 construction error, 4 resource ceiling.  All randomness sits behind
``--seed`` (default fixed), so runs are reproducible by default; stdout
tables omit wall-clock columns, which only go to output files.

Code files are read by ``_load`` alone.  ``tensor``, ``power`` and
``sweep`` pass the ceiling (``CSSTENSOR_MAX_N``) down as ``max_n`` to
``css.from_complex``, which checks the predicted n before it builds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import css, families, tensorops, verify
from .css import CssCode, ResourceCeiling
from .families import FamilyParseError
from .tensorops import DEFAULT_SEED

RESOURCE_CEILING_ENV = "CSSTENSOR_MAX_N"
DEFAULT_CEILING = 100_000

EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_CONSTRUCTION = 3
EXIT_RESOURCE = 4

TRIALS_HELP = (
    "random information-set trials, run only when the capped search leaves the distance open"
)


class UsageError(Exception):
    """A malformed setting outside the argument list (exit code 2)."""


def _ceiling() -> int:
    raw = os.environ.get(RESOURCE_CEILING_ENV)
    try:
        return int(raw) if raw else DEFAULT_CEILING
    except ValueError:
        raise UsageError(f"{RESOURCE_CEILING_ENV} must be an integer, got {raw!r}") from None


def _load(path: str) -> tuple[str, CssCode]:
    """The name and the code of a code file."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    code = css.code_from_json(obj)  # rejects a file that is no code object
    return obj.get("name", ""), code


def _dump_json(obj: dict | list, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_code(code: CssCode, name: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            css.dump_code(code, fh, name)


def cmd_family(args: argparse.Namespace) -> int:
    code = families.parse_family_spec(args.spec)
    _write_code(code, args.spec, args.out)
    print(f"n={code.n} k={css.dimension_k(code)}")
    return 0


def cmd_tensor(args: argparse.Namespace) -> int:
    _, left = _load(args.left)
    _, right = _load(args.right)
    product = tensorops.css_tensor(left, right, max_n=_ceiling())
    _write_code(product, f"tensor({args.left},{args.right})", args.out)
    print(f"n={product.n} k={css.dimension_k(product)}")
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    name, base = _load(args.input)
    code = tensorops.css_power(base, args.ell, reduced=args.reduced, max_n=_ceiling())
    if code is not base:  # the first full power is the code itself, and keeps its name
        name = f"power(ell={args.ell},reduced={args.reduced})"
    _write_code(code, name, args.out)
    # Any code returned is within the ceiling, and its n is the predicted one.
    print(f"predicted_n={code.n} actual_n={code.n} k={css.dimension_k(code)}")
    if args.reduced and code.n == 0:
        print("warning: reduced power is empty (exact input)", file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    _, code = _load(args.input)
    report = css.analyze(
        code,
        exact_up_to=args.exact_up_to,
        trials=args.trials,
        seed=args.seed,
        time_budget=args.time_budget,
    )
    _dump_json(report.to_json_dict(), args.out)
    return 0


def cmd_criterion(args: argparse.Namespace) -> int:
    _, code = _load(args.input)
    if not css.dimension_k(code):  # before the uncapped stabilizer searches of analyze
        raise css.KIsZero("criterion is undefined for k = 0")
    report = css.analyze(code, exact_up_to=None)
    _dump_json(tensorops.criterion_to_json(report), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = families.parse_family_spec(args.spec)
    records = tensorops.sweep(
        base,
        args.ell_max,
        reduced=args.reduced,
        weight_cap=args.weight_cap,
        time_budget=args.time_budget,
        trials=args.trials,
        seed=args.seed,
        max_n=_ceiling(),
    )
    if args.format == "json":
        rows = [r.to_json_dict() for r in records]
        if args.out:
            _dump_json(rows, args.out)
        for row in rows:
            row.pop("seconds")
            sys.stdout.write(json.dumps(row, sort_keys=True) + "\n")
    else:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(tensorops.sweep_to_csv(records, with_seconds=True))
        sys.stdout.write(tensorops.sweep_to_csv(records, with_seconds=False))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run_suite(args.suite, args.seed)
    sys.stdout.write(verify.format_report(results))
    return 0 if all(r.passed for r in results) else EXIT_VERIFY_FAILED


def _checked(kind: type, ok, rule: str):
    """An argparse type: a ``kind`` value for which ``ok`` holds, else a usage error (exit 2)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "at least 1")
_count = _checked(int, lambda v: v >= 0, "at least 0")
# NaN fails the test too: a NaN deadline would never fire.  inf means no deadline.
_time_budget = _checked(float, lambda v: v > 0, "above 0 seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csstensor",
        description="CSS codes, chain complexes over GF(2), tensor products and sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="build a code family instance")
    p.add_argument("spec", help="family spec, e.g. steane or tz:hamming3,hamming3")
    p.add_argument("--out", help="write the code as JSON")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("tensor", help="tensor product of two code files")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("power", help="iterated tensor power of a code file")
    p.add_argument("input")
    p.add_argument("--ell", type=_positive_int, required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("analyze", help="full parameter report for a code file")
    p.add_argument("input")
    p.add_argument("--exact-up-to", type=_count, default=css.DEFAULT_WEIGHT_CAP)
    p.add_argument("--trials", type=_positive_int, default=css.DEFAULT_TRIALS, help=TRIALS_HELP)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--time-budget", type=_time_budget, default=60.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("criterion", help="distance criterion off an exact analyze of a code file")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("sweep", help="power sweep table for a family spec")
    p.add_argument("spec")
    p.add_argument("--ell-max", type=_positive_int, required=True)
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--weight-cap", type=_count, default=css.DEFAULT_WEIGHT_CAP)
    p.add_argument("--time-budget", type=_time_budget, default=60.0)
    p.add_argument("--trials", type=_positive_int, default=css.DEFAULT_TRIALS, help=TRIALS_HELP)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("suite", choices=("fast", "full"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FamilyParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceCeiling as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION


if __name__ == "__main__":
    sys.exit(main())
