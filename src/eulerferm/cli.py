"""Command-line surface: value tables, identity suites, p-adic certificates.

Subcommands
-----------
poly N        print E_N(x)
eval N A      print E_N(a) at a rational point
numbers MAX   table n -> Euler number E_n for n <= MAX
verify IDS..  run identity checkers over a bounded grid; exit 0 iff all pass
witt          valuation certificate of the truncated sum (from the p-adic
              moments, or term by term with --naive) vs E_n(a), closed form
              beside it

Exit codes: 0 = all requested checks pass, 1 = at least one identity or
valuation failure, 2 = usage/parse error, 3 = stdout closed by its reader
before the output was all written (``| head``), with no traceback. Output
is deterministic: stable ordering and no timestamps (elapsed_ms appears in
JSON but carries no ordering weight).

``witt --naive`` sums its p**N terms on every CPU the process may use
(``padic.witt_sum_naive``): one even-aligned run per CPU, each run past the
first in a forked child, when the process may use two CPUs or more, runs
one thread and has enough work to give each run at least
``padic._SPLIT_MIN_WORK``; otherwise, or for any run whose child fails, in
this process. The bytes printed are
the same either way.

``verify`` runs every check before it writes a byte, so a usage error
found by any checker still exits 2 with empty stdout; its checker sweeps
run on every CPU the process may use, once they hold enough reports
(``identities.run_suite``), with the same bytes less elapsed_ms. Then it
writes the header, each checker's sweep in canonical order and the
summary: the bytes of one ``json.dumps(reports, indent=2)`` (or one
table). Where the sweeps were shared, each process rendered every sweep it
ran right after running it, and this process writes that text as it came;
where it ran them alone, it writes the reports one by one, each
rendered and dropped before the next, so the memory is one report's.
Every format reads a report's own fields, and a
value renders by its type alone: in JSON reports and CSV cells through one
leaf encoder, ``_json``, which reads an int, Fraction, str or bool and a
zero Polynomial off its exact type and maps any other value by
``_jsonable`` (the writer lays out the params object itself);
in text and md through ``_text``.
``verify --stats`` adds per-checker counts and times, the table sizes, the
collector's pauses, the peak RSS and the number of processes on stderr,
read over every process that ran sweeps; stdout stays the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import identities
from .euler import MAX_DEGREE, euler_number, euler_poly, table_sizes
from .identities import SweepGrid, run_suite
from .numeric import format_rational, parse_rational
from .padic import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    fermionic_sum_closed,
    require_integral_shift,
    witt_defect,
    witt_sum_naive,
)
from .polynomial import Polynomial

FORMATS = ("text", "json", "csv", "md")

# exit code of a command whose reader closed stdout before it was written
PIPE_CLOSED = 3


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


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_points(text: str) -> tuple:
    return tuple(map(_rational_arg, text.split(",")))


def _parse_primes(text: str) -> tuple:
    """Comma-separated integers; ``SweepGrid`` checks that each is an odd
    prime."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _budget_arg(text: str) -> int:
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if budget < 1:
        raise argparse.ArgumentTypeError(f"budget must be >= 1, got {budget}")
    return budget


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
    p_poly.set_defaults(run=_cmd_poly, degree="n")
    p_poly.add_argument("n", type=int)
    p_poly.add_argument("--format", choices=FORMATS, default="text")

    p_eval = sub.add_parser("eval", help="print E_n(a)")
    p_eval.set_defaults(run=_cmd_eval, degree="n")
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("a", type=_rational_arg)

    p_num = sub.add_parser("numbers", help="table of Euler numbers E_0..E_max")
    p_num.set_defaults(run=_cmd_numbers, degree="max")
    p_num.add_argument("max", type=int)
    p_num.add_argument("--format", choices=FORMATS, default="text")

    p_ver = sub.add_parser("verify", help="run identity checkers")
    p_ver.set_defaults(run=_cmd_verify, degree=None)
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
    p_ver.add_argument("--stats", action="store_true",
                       help="write per-checker counts and times, table "
                            "sizes and peak RSS to stderr")

    p_witt = sub.add_parser("witt", help="p-adic convergence certificate")
    p_witt.set_defaults(run=_cmd_witt, degree="n")
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


def _cmd_poly(args) -> int:
    p, fmt = euler_poly(args.n), args.format
    if fmt == "json":
        print(json.dumps(p.to_coeff_strings()))
    elif fmt == "csv":
        print(",".join(p.to_coeff_strings()))
    elif fmt == "md":
        print(f"`{p}`")
    else:
        print(p)
    return 0


def _cmd_eval(args) -> int:
    print(format_rational(euler_poly(args.n)(args.a)))
    return 0


def _cmd_numbers(args) -> int:
    rows = [(n, euler_number(n)) for n in range(args.max + 1)]
    fmt = args.format
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
    return 0


def _text(value) -> str:
    """A param or residual as text and md show it: a list or tuple as
    ``[a,b]``, a Polynomial as its JSON coefficient list (``0`` when it is
    zero), and anything else as ``str``."""
    if isinstance(value, Polynomial):
        return json.dumps(value.to_coeff_strings()) if value.nums else "0"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(str, _jsonable(value))) + "]"
    return str(value)


def _jsonable(value):
    """A param or residual as JSON holds it, decided by its type alone: an
    int or bool as it is, a Fraction as its rational string, a Polynomial
    as its coefficient strings, a list or tuple item by item, and anything
    else as ``str`` (an error report's message, a valuation of ``inf``)."""
    if isinstance(value, int):   # bool is an int subclass
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Polynomial):
        return value.to_coeff_strings()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _params_text(params: dict) -> str:
    return " ".join([f"{k}={_text(v)}" for k, v in params.items()])


def _json(value, indent=None) -> str:
    """``json.dumps(_jsonable(value))``, the one-line form of a CSV cell;
    or with ``indent``, the prefix of the line the value starts on,
    ``json.dumps(..., indent=2)`` as it appears at that depth. An int,
    Fraction, str or bool and the zero Polynomial, the leaves of nearly
    every report, are read off their exact type: ``json.dumps`` leaves its
    C encoder whenever ``indent`` is set, and costs a call per leaf."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is Fraction:
        return f'"{format_rational(value)}"'
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is Polynomial and not value.nums:
        return "[]"
    value = _jsonable(value)
    if indent is None or type(value) is not list or not value:
        return json.dumps(value)
    inner = indent + "  "
    items = (",\n" + inner).join([_json(v, inner) for v in value])
    return f"[\n{inner}{items}\n{indent}]"


# what each format writes before the first report
_HEADERS = {"json": "[",
            "csv": "id,params,mode,residual,pass,elapsed_ms\r\n",
            "md": "| id | params | mode | residual | pass |\n"
                  "| -- | ------ | ---- | -------- | ---- |\n",
            "text": ""}


def _write_sweep(reports, fmt: str, out) -> None:
    """Write one sweep's reports to the text stream ``out``, each rendered
    and dropped before the next. Every format reads the report's own
    fields. JSON reports are joined by commas; the comma between two sweeps
    is ``_emit_reports``'s to write."""
    write = out.write
    if fmt == "json":
        for i, r in enumerate(reports):
            # the params object is laid out here: a dict inside it is a
            # value like any other, which _json maps by _jsonable
            params = ",\n      ".join(
                [f"{encode_basestring_ascii(k)}: {_json(v, '      ')}"
                 for k, v in r.params.items()])
            params = f"{{\n      {params}\n    }}" if params else "{}"
            write(f'{"," if i else ""}\n  {{\n'
                  f'    "id": {encode_basestring_ascii(r.checker)},\n'
                  f'    "params": {params},\n'
                  f'    "mode": {encode_basestring_ascii(r.mode)},\n'
                  f'    "residual": {_json(r.residual, "    ")},\n'
                  f'    "pass": {"true" if r.passed else "false"},\n'
                  f'    "elapsed_ms": {r.elapsed_ms!r}\n  }}')
    elif fmt == "csv":
        import csv   # only here: no other command or format reads it

        writerow = csv.writer(out).writerow
        for r in reports:
            params = ", ".join([f"{encode_basestring_ascii(k)}: {_json(v)}"
                                for k, v in r.params.items()])
            writerow([r.checker, "{" + params + "}", r.mode,
                      _json(r.residual), r.passed, f"{r.elapsed_ms:.3f}"])
    elif fmt == "md":
        for r in reports:
            write(f"| {r.checker} | {_params_text(r.params)} | {r.mode} "
                  f"| {_text(r.residual)} "
                  f"| {'PASS' if r.passed else 'FAIL'} |\n")
    else:
        for r in reports:
            write(f"{'PASS' if r.passed else 'FAIL'} {r.checker} "
                  f"{_params_text(r.params)} residual={_text(r.residual)}\n")


def _summary(fmt: str, passed: int, total: int) -> str:
    """What follows the last report: JSON's closing bracket, then the
    verdict line."""
    close = ("\n]\n" if total else "]\n") if fmt == "json" else ""
    return close + (f"PASS {passed}/{total}\n" if passed == total
                    else f"FAIL {total - passed}/{total}\n")


def _rendered(fmt: str, stats: bool):
    """The hook by which ``run_suite`` renders a sweep in the process that
    ran it: the sweep's text in ``fmt`` (``_write_sweep``), its pass and
    report counts and, with ``stats``, its ``--stats`` row, as a plain
    tuple, which ``marshal`` sends back from a forked child."""
    def render(reports) -> tuple:
        out = io.StringIO()
        _write_sweep(reports, fmt, out)
        return (out.getvalue(), sum(r.passed for r in reports), len(reports),
                _stats_row(reports) if stats and reports else None)
    return render


def _emit_reports(sweeps, fmt: str) -> int:
    """Write the header, each sweep in canonical order, then the summary;
    return the number of failing reports. The bytes are those of one batch
    rendering. A sweep this process ran alone comes as its list of reports,
    written one by one, so one report's rendering is alive at a time; a
    sweep rendered where it ran comes as ``_rendered``'s tuple, whose text
    is written as it is."""
    write = sys.stdout.write
    write(_HEADERS[fmt])
    passed = total = 0
    for sweep in sweeps:
        kept = type(sweep) is list
        count = len(sweep) if kept else sweep[2]
        if count and total and fmt == "json":
            write(",")
        if kept:
            _write_sweep(sweep, fmt, sys.stdout)
            passed += sum(r.passed for r in sweep)
        else:
            write(sweep[0])
            passed += sweep[1]
        total += count
    write(_summary(fmt, passed, total))
    return total - passed


def _collector_pauses(pauses: list):
    """A ``gc.callbacks`` entry that appends (pid, ms) of each collection
    to ``pauses``; a forked child appends to its own copy, under its own
    pid."""
    started = 0.0

    def on_phase(phase, info):
        nonlocal started
        if phase == "start":
            started = time.perf_counter()
        else:
            pauses.append((os.getpid(),
                           (time.perf_counter() - started) * 1000.0))
    return on_phase


def _process_stats(pauses: list) -> tuple:
    """This process's table sizes, the ms of its own collector pauses and
    its peak RSS: what ``verify --stats`` reads of each process that ran
    sweeps."""
    pid = os.getpid()
    return ({**table_sizes(), "recurrence": identities._RECURRENCE.terms},
            [ms for owner, ms in pauses if owner == pid], _peak_rss_mb())


def _peak_rss_mb() -> float:
    """This process's peak RSS: ``VmHWM`` where /proc has it, else
    ``ru_maxrss``, which also counts the peak of the process that launched
    this one, since it survives vfork and exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 2 ** 10   # kB
    except OSError:
        pass
    import resource   # only here: the module is POSIX-only

    # ru_maxrss counts KiB on Linux and bytes on macOS
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (
        2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def _stats_row(reports) -> str:
    """One checker's ``--stats`` row: its reports, passes, total and
    largest elapsed_ms, and the params of its slowest report."""
    slowest = max(reports, key=lambda r: r.elapsed_ms)
    return (f"{reports[0].checker}: {len(reports)} reports, "
            f"{sum(r.passed for r in reports)} pass, "
            f"{sum(r.elapsed_ms for r in reports):.3f} ms total, "
            f"{slowest.elapsed_ms:.3f} ms max at "
            f"{_params_text(slowest.params)}")


def _print_stats(sweeps, pauses, children) -> None:
    """The row of each checker's sweep (``_stats_row``, already made where
    a sweep was rendered), in canonical order; then, over this process and
    each forked child in ``children`` (``_process_stats`` of each), every
    table's largest size, the number and total ms of the collector's pauses
    while the checks ran (which the checker running at the time is charged
    for too), the largest peak RSS and the number of processes. All of it
    goes to stderr, so stdout stays the same bytes."""
    for sweep in sweeps:
        row = sweep[3] if type(sweep) is tuple else sweep and _stats_row(sweep)
        if row:
            print(row, file=sys.stderr)
    processes = [_process_stats(pauses), *children]
    sizes = {k: max(sizes[k] for sizes, _, _ in processes)
             for k in processes[0][0]}
    ms = [m for _, own, _ in processes for m in own]
    peak = max(peak for _, _, peak in processes)
    print("tables: " + ", ".join(f"{k} {v}" for k, v in sizes.items())
          + f"; gc {len(ms)} collections, {sum(ms):.3f} ms"
          + f"; peak RSS {peak:.1f} MB; {len(processes)} process"
          + ("es" if len(processes) > 1 else ""), file=sys.stderr)


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


_GRID_OPTIONS = ("m", "n", "q", "k", "s", "points", "p_list", "precision")


def _cmd_verify(args) -> int:
    ids = list(args.ids)
    if "all" in ids:
        ids = list(identities.CHECKER_IDS)
    pauses = []
    stats = contextlib.nullcontext(())
    if args.stats:
        import gc   # only here: --stats alone times the collector

        on_phase = _collector_pauses(pauses)
        gc.callbacks.append(on_phase)
        # each forked child sends its own back with its sweeps
        stats = identities.child_stats(lambda: _process_stats(pauses))
    try:
        # each grid option sets the SweepGrid field of the same name
        with stats as children:
            sweeps = run_suite(ids, SweepGrid(**{
                field: getattr(args, field) for field in _GRID_OPTIONS
                if getattr(args, field) is not None}),
                _rendered(args.format, args.stats))
    except ValueError as exc:
        return _usage_error(exc)
    finally:
        if args.stats:
            gc.callbacks.remove(on_phase)
    # a rendered sweep's tuple is true: the sweeps were shared because they
    # held _SWEEP_CUT reports or more
    if not any(sweeps):
        return _usage_error(f"nothing checked: no grid value lies in the "
                            f"domain of {', '.join(sorted(set(ids)))}")
    failed = _emit_reports(sweeps, args.format)
    if args.stats:
        _print_stats(sweeps, pauses, children)
    return 1 if failed else 0


def _cmd_witt(args) -> int:
    try:
        naive = None
        if args.naive:
            # a bad shift is refused before the p**N terms are summed
            require_integral_shift(args.a, args.p)
            naive = witt_sum_naive(args.n, args.a, args.p, args.precision,
                                   args.budget)
        # the defect is measured on the naive sum if there is one, else on the
        # moments; either route bounds N before the closed form builds p**N
        defect = witt_defect(args.n, args.a, args.p, args.precision,
                             truncated=naive)
        closed = fermionic_sum_closed(args.n, args.a, args.p ** args.precision)
        exact = euler_poly(args.n)(args.a)   # once p and the shift are checked
    except (ValueError, BudgetExceeded) as exc:
        return _usage_error(exc)

    naive_matches = None if naive is None else naive == closed
    passed = defect >= args.precision and naive_matches is not False
    fields = {
        "p": args.p, "precision": args.precision, "n": args.n,
        "a": format_rational(args.a),
        "closed_sum": format_rational(closed),
        "euler_value": format_rational(exact),
        "defect": "inf" if defect == math.inf else int(defect),
        "naive_matches": naive_matches,
        "pass": passed,
    }

    if args.format == "json":
        print(json.dumps(fields))
    elif args.format == "csv":
        print(",".join(fields))
        print(",".join(map(str, fields.values())))
    elif args.format == "md":
        print("| p | N | n | a | S_N | E_n(a) | defect | pass |")
        print("| - | - | - | - | --- | ------ | ------ | ---- |")
        print(f"| {args.p} | {args.precision} | {args.n} "
              f"| {fields['a']} | {fields['closed_sum']} "
              f"| {fields['euler_value']} | {fields['defect']} "
              f"| {'PASS' if passed else 'FAIL'} |")
    else:
        print(f"p = {args.p}, N = {args.precision}, n = {args.n}, "
              f"a = {fields['a']}")
        print(f"S_N (closed)  = {fields['closed_sum']}")
        print(f"E_n(a)        = {fields['euler_value']}")
        print(f"defect v_p    = {fields['defect']}")
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
    """Check the degree before any table grows, then run the subcommand's
    handler; both are set on its subparser, as ``run`` and ``degree`` (the
    argument that sets the largest degree the command reads, if any)."""
    value = getattr(args, args.degree) if args.degree else 0
    if not 0 <= value <= MAX_DEGREE:
        bound = ">= 0" if value < 0 else f"<= {MAX_DEGREE}"
        return _usage_error(f"{args.degree} must be {bound}, got {value}")
    return args.run(args)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's last flush of what is left cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = PIPE_CLOSED
    sys.exit(code)
