"""Command-line surface: value tables, identity suites, p-adic certificates.

Subcommands
-----------
poly N        print E_N(x)
eval N A      print E_N(a) at a rational point
numbers MAX   table n -> Euler number E_n for n <= MAX
verify IDS..  run identity checkers over a bounded grid; exit 0 iff all pass
witt          truncated sum (by base-p digits) vs E_n(a) valuation certificate,
              with the closed-form sum beside it

Exit codes: 0 = all requested checks pass, 1 = at least one identity or
valuation failure, 2 = usage/parse error. Output is deterministic: stable
ordering and no timestamps (elapsed_ms appears in JSON but carries no
ordering weight).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from . import identities
from .euler import euler_number, euler_poly
from .identities import SweepGrid, report_to_dict, run_suite
from .numeric import format_rational, parse_rational
from .padic import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    fermionic_sum_closed,
    fermionic_sum_naive,
    is_odd_prime,
    witt_defect,
)
from .polynomial import monomial

FORMATS = ("text", "json", "csv", "md")


def _parse_range(text: str) -> tuple:
    """Inclusive 'lo..hi' range or a single value."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'lo..hi' or a single integer, got {text!r}") from None


def _parse_points(text: str) -> tuple:
    try:
        return tuple(parse_rational(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_primes(text: str) -> tuple:
    try:
        ps = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    for p in ps:
        if not is_odd_prime(p):
            raise argparse.ArgumentTypeError(f"not an odd prime: {p}")
    return ps


def _budget_arg(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be >= 1, got {budget}")
    return budget


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# lets bare negative rationals like -1/2 (or lists like -2/3,0) pass as
# argument values instead of being mistaken for option flags
_NEGATIVE_TOKEN = re.compile(r"^-\d+(/\d+)?(,-?\d+(/\d+)?)*$")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerferm",
        description="Exact Euler-polynomial values, identity verification, "
                    "and p-adic convergence certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="print E_n(x)")
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--format", choices=FORMATS, default="text")

    p_eval = sub.add_parser("eval", help="print E_n(a)")
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("a", type=_rational_arg)

    p_num = sub.add_parser("numbers", help="table of Euler numbers E_0..E_max")
    p_num.add_argument("max", type=int)
    p_num.add_argument("--format", choices=FORMATS, default="text")

    p_ver = sub.add_parser("verify", help="run identity checkers")
    p_ver.add_argument("ids", nargs="+",
                       help="checker ids, or 'all' for the whole catalog")
    p_ver.add_argument("--m", type=_parse_range)
    p_ver.add_argument("--n", type=_parse_range)
    p_ver.add_argument("--q", type=_parse_range)
    p_ver.add_argument("--k", type=_parse_range)
    p_ver.add_argument("--s", type=_parse_range)
    p_ver.add_argument("--points", type=_parse_points)
    p_ver.add_argument("--p", type=_parse_primes, dest="p_list")
    p_ver.add_argument("--precision", type=int)
    p_ver.add_argument("--format", choices=FORMATS, default="text")

    p_witt = sub.add_parser("witt", help="p-adic convergence certificate")
    p_witt.add_argument("--p", type=int, required=True)
    p_witt.add_argument("--precision", type=int, required=True)
    p_witt.add_argument("--n", type=int, required=True)
    p_witt.add_argument("--a", type=_rational_arg, required=True)
    p_witt.add_argument("--naive", action="store_true",
                        help="also print the p**N-term naive sum and require "
                             "exact agreement with the closed form")
    p_witt.add_argument("--budget", type=_budget_arg, default=DEFAULT_BUDGET)
    p_witt.add_argument("--format", choices=FORMATS, default="text")

    for sp in (p_eval, p_ver, p_witt):
        sp._negative_number_matcher = _NEGATIVE_TOKEN

    return parser


def _print_poly(p, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(p.to_coeff_strings()))
    elif fmt == "csv":
        print(",".join(p.to_coeff_strings()))
    elif fmt == "md":
        print(f"`{p}`")
    else:
        print(p)


def _print_numbers(limit: int, fmt: str) -> None:
    rows = [(n, euler_number(n)) for n in range(limit + 1)]
    if fmt == "json":
        print(json.dumps([{"n": n, "euler_number": v} for n, v in rows]))
    elif fmt == "csv":
        print("n,euler_number")
        for n, v in rows:
            print(f"{n},{v}")
    elif fmt == "md":
        print("| n | E_n |")
        print("| - | --- |")
        for n, v in rows:
            print(f"| {n} | {v} |")
    else:
        for n, v in rows:
            print(f"{n}\t{v}")


def _params_text(params: dict) -> str:
    return " ".join(f"{k}={_param_str(v)}" for k, v in params.items())


def _param_str(v) -> str:
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(str(x) for x in v) + "]"
    return str(v)


def _residual_text(rendered) -> str:
    if isinstance(rendered, list):
        return json.dumps(rendered) if rendered else "0"
    return str(rendered)


def _emit_reports(reports, fmt: str) -> None:
    dicts = [report_to_dict(r) for r in reports]
    passed = sum(1 for r in reports if r.passed)
    summary = (f"PASS {passed}/{len(reports)}" if passed == len(reports)
               else f"FAIL {len(reports) - passed}/{len(reports)}")
    if fmt == "json":
        print(json.dumps(dicts, indent=2))
    elif fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["id", "params", "mode", "residual", "pass",
                         "elapsed_ms"])
        for d in dicts:
            writer.writerow([d["id"], json.dumps(d["params"]), d["mode"],
                             json.dumps(d["residual"]), d["pass"],
                             f"{d['elapsed_ms']:.3f}"])
        sys.stdout.write(out.getvalue())
    elif fmt == "md":
        print("| id | params | mode | residual | pass |")
        print("| -- | ------ | ---- | -------- | ---- |")
        for r, d in zip(reports, dicts):
            print(f"| {d['id']} | {_params_text(r.params)} | {d['mode']} "
                  f"| {_residual_text(d['residual'])} "
                  f"| {'PASS' if d['pass'] else 'FAIL'} |")
    else:
        for r, d in zip(reports, dicts):
            print(f"{'PASS' if d['pass'] else 'FAIL'} {d['id']} "
                  f"{_params_text(r.params)} "
                  f"residual={_residual_text(d['residual'])}")
    print(summary)


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


_GRID_OPTIONS = ("m", "n", "q", "k", "s", "points", "p_list", "precision")


def _cmd_verify(args) -> int:
    ids = list(args.ids)
    if "all" in ids:
        ids = list(identities.CHECKER_IDS)
    try:
        # each grid option sets the SweepGrid field of the same name
        reports = run_suite(ids, SweepGrid(**{
            field: getattr(args, field) for field in _GRID_OPTIONS
            if getattr(args, field) is not None}))
    except ValueError as exc:
        return _usage_error(exc)
    if not reports:
        return _usage_error(f"nothing checked: no grid value lies in the "
                            f"domain of {', '.join(sorted(set(ids)))}")
    _emit_reports(reports, args.format)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_witt(args) -> int:
    try:
        exact = euler_poly(args.n)(args.a)
        naive = None
        if args.naive:
            naive = fermionic_sum_naive(
                monomial(args.n).compose_affine(1, args.a), args.p,
                args.precision, args.budget)
        # the defect is measured on the naive sum if there is one, else on the
        # digit sum; either sum bounds N before the closed form builds p**N
        defect = witt_defect(args.n, args.a, args.p, args.precision,
                             truncated=naive)
        closed = fermionic_sum_closed(args.n, args.a, args.p ** args.precision)
    except (ValueError, BudgetExceeded) as exc:
        return _usage_error(exc)

    naive_matches = None if naive is None else naive == closed
    passed = defect >= args.precision and naive_matches is not False
    defect_str = "inf" if defect == float("inf") else str(int(defect))

    if args.format == "json":
        print(json.dumps({
            "p": args.p, "precision": args.precision, "n": args.n,
            "a": format_rational(args.a),
            "closed_sum": format_rational(closed),
            "euler_value": format_rational(exact),
            "defect": defect_str if defect == float("inf") else int(defect),
            "naive_matches": naive_matches,
            "pass": passed,
        }))
    elif args.format == "csv":
        print("p,precision,n,a,closed_sum,euler_value,defect,naive_matches,pass")
        print(f"{args.p},{args.precision},{args.n},{format_rational(args.a)},"
              f"{format_rational(closed)},{format_rational(exact)},"
              f"{defect_str},{naive_matches},{passed}")
    elif args.format == "md":
        print("| p | N | n | a | S_N | E_n(a) | defect | pass |")
        print("| - | - | - | - | --- | ------ | ------ | ---- |")
        print(f"| {args.p} | {args.precision} | {args.n} "
              f"| {format_rational(args.a)} | {format_rational(closed)} "
              f"| {format_rational(exact)} | {defect_str} "
              f"| {'PASS' if passed else 'FAIL'} |")
    else:
        print(f"p = {args.p}, N = {args.precision}, n = {args.n}, "
              f"a = {format_rational(args.a)}")
        print(f"S_N (closed)  = {format_rational(closed)}")
        print(f"E_n(a)        = {format_rational(exact)}")
        print(f"defect v_p    = {defect_str}")
        if naive is not None:
            verdict = "matches closed form" if naive_matches else "MISMATCH"
            print(f"naive sum     = {format_rational(naive)} ({verdict})")
        print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def main(argv=None) -> int:
    # exact values outgrow Python's 4300-digit guard on int <-> str; lift it
    # for this command only, so library callers keep the default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(build_parser().parse_args(argv))
    finally:
        sys.set_int_max_str_digits(limit)


def _run(args) -> int:
    if args.command == "poly":
        if args.n < 0:
            return _usage_error("n must be >= 0")
        _print_poly(euler_poly(args.n), args.format)
        return 0
    if args.command == "eval":
        if args.n < 0:
            return _usage_error("n must be >= 0")
        print(format_rational(euler_poly(args.n)(args.a)))
        return 0
    if args.command == "numbers":
        if args.max < 0:
            return _usage_error("max must be >= 0")
        _print_numbers(args.max, args.format)
        return 0
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "witt":
        return _cmd_witt(args)
    return 2


def entrypoint() -> None:
    sys.exit(main())
