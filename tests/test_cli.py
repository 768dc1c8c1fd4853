"""CLI surface tests: formats, exit-code contract, determinism."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from eulerferm import cli, euler, identities as ident, padic
from eulerferm.euler import EulerCache, euler_poly
from eulerferm.identities import IdentityReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_poly_text(capsys):
    code, out, _ = run_cli(capsys, "poly", "3")
    assert code == 0
    assert out.strip() == "1/4 - 3/2*x^2 + x^3"


def test_poly_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["1/4", "0", "-3/2", "1"]


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "2", "1/2")
    assert code == 0
    assert out.strip() == "-1/4"


def test_eval_negative_rational_argument(capsys):
    code, out, _ = run_cli(capsys, "eval", "1", "-1/2")
    assert code == 0
    assert out.strip() == "-1"


def test_negative_point_lists_parse(capsys):
    code, out, _ = run_cli(capsys, "verify", "sun", "--m", "0..1",
                           "--n", "0..1", "--points", "-2/3,0")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS 8/8"


def test_exact_values_past_the_int_str_digit_limit(capsys):
    # E_10(10**500) has 5001 digits, past Python's default limit of 4300 on
    # int <-> str conversion; the CLI lifts it for the command only
    big = str(10 ** 500)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "eval", "10", big)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    code, witt_out, err = run_cli(capsys, "witt", "--p", "3", "--precision",
                                  "2", "--n", "10", "--a", big)
    assert (code, err) == (0, "")
    assert witt_out.strip().endswith("PASS")
    sys.set_int_max_str_digits(0)
    try:
        value = Fraction(out.strip())
        assert value == euler_poly(10)(Fraction(10 ** 500))
        assert f"E_n(a)        = {value}" in witt_out
    finally:
        sys.set_int_max_str_digits(limit)


def test_eval_malformed_rational_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["eval", "2", "1/0"])
    assert err.value.code == 2


def test_numbers_table(capsys):
    code, out, _ = run_cli(capsys, "numbers", "6")
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    assert values == [1, 0, -1, 0, 5, 0, -61]


def test_numbers_json(capsys):
    code, out, _ = run_cli(capsys, "numbers", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[4] == {"n": 4, "euler_number": 5}


def test_verify_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "verify", "cro2", "--n", "0..20",
                           "--format", "json")
    assert code == 0
    body, summary = out.rsplit("\n", 2)[0], out.strip().splitlines()[-1]
    reports = json.loads(body)
    assert len(reports) == 21
    assert all(r["pass"] for r in reports)
    assert all(set(r) == {"id", "params", "mode", "residual", "pass",
                          "elapsed_ms"} for r in reports)
    assert summary == "PASS 21/21"


def test_verify_text_and_md_and_csv(capsys):
    for fmt in ("text", "md", "csv"):
        code, out, _ = run_cli(capsys, "verify", "reflection", "--n", "0..3",
                               "--format", fmt)
        assert code == 0
        assert "PASS 4/4" in out


def test_verify_all_small_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--m", "0..2",
                           "--n", "0..2", "--q", "1..2", "--k", "1..2",
                           "--s", "1..2", "--points", "0,1/2",
                           "--p", "3,5", "--precision", "2")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS")


def test_verify_unknown_id_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown checker" in err


def test_verify_malformed_range_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "cro2", "--n", "5..x"])
    assert err.value.code == 2


def test_verify_even_prime_exits_2(capsys):
    # argparse parses the integers; SweepGrid rejects the even prime, in
    # the words witt uses
    assert run_cli(capsys, "verify", "witt", "--p", "2") == (
        2, "", "error: p must be an odd prime, got 2\n")


def test_verify_has_no_budget(capsys):
    # 3**20 is beyond the default budget of witt --naive, but verify sums by
    # base-p digits and takes no budget
    code, out, _ = run_cli(capsys, "verify", "witt", "--p", "3",
                           "--precision", "20")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS 28/28"
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "lem1", "--budget", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv,code,message", [
    # the grid refuses it whether or not a selected checker reads it
    (["verify", "cro2", "--n", "0..1", "--precision", "1000000000"], 2,
     "error: precision must be <= 1000, got 1000000000\n"),
    (["verify", "lem1", "--precision", "1000000000"], 2,
     "error: precision must be <= 1000, got 1000000000\n"),
    (["witt", "--p", "3", "--precision", "1000000000", "--n", "1", "--a", "0"],
     2, "error: precision must be <= 1000, got 1000000000\n"),
    (["verify", "witt", "--precision", "1001"], 2,
     "error: precision must be <= 1000, got 1001\n"),
    # the grid refuses it before any checker runs
    (["verify", "all", "--precision", "1001"], 2,
     "error: precision must be <= 1000, got 1001\n"),
], ids=["cro2", "lem1", "witt", "verify-witt", "verify-all"])
def test_huge_precision_is_answered_without_building_p_to_the_n(
        capsys, argv, code, message):
    started = time.perf_counter()
    got, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert (got, err) == (code, message)


@pytest.mark.parametrize("argv,message", [
    (["verify", "all", "--precision", "1001"],
     "precision must be <= 1000, got 1001"),
    (["verify", "thm1", "--q", "1001"], "q must be <= 1000, got 1001"),
], ids=["precision", "q"])
def test_a_refused_grid_runs_no_checker(capsys, monkeypatch, argv, message):
    # every checker is swapped for one that logs each plan, sweep and
    # report
    calls = []
    for cid in list(ident.CHECKERS):
        monkeypatch.setitem(ident.CHECKERS, cid, ident.Checker(
            lambda *args, cid=cid: calls.append(cid),
            lambda grid, cid=cid: calls.append(cid) or iter(()),
            lambda grid, cid=cid: calls.append(cid) or (0, 0)))
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert calls == []
    # the same command on a grid it accepts reaches the checkers
    run_cli(capsys, *argv[:2])
    assert calls


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    ["witt", "--p", "3", "--precision", "2", "--n", "1", "--a", "0"],
], ids=["witt"])
def test_budget_below_one_exits_2(capsys, argv, budget):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--budget", budget])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(
        f"error: argument --budget: budget must be >= 1, got {budget}\n")


def test_verify_high_precision_by_digits(capsys):
    # 7**30 terms: beyond any literal sweep, a few ms per digit sum
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "witt", "lem1", "--p", "3,5,7",
                           "--precision", "30", "--n", "0..8")
    assert time.perf_counter() - started < 2.0
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS 141/141"


def test_verify_budget_applies_only_to_padic_sums(capsys):
    # no checker but witt and lem1 reads --p or --precision
    code, out, _ = run_cli(capsys, "verify", "wsp7", "--p", "3",
                           "--precision", "20")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS 49/49"


def test_verify_empty_selection_exits_2(capsys):
    # 1/3 is not a 3-adic integer, so witt has nothing to check
    code, out, err = run_cli(capsys, "verify", "witt", "--points", "1/3",
                             "--p", "3")
    assert code == 2
    assert out == ""
    assert "nothing checked" in err and "witt" in err


@pytest.mark.parametrize("argv,count", [
    (("fersim3", "--q", "0..2"), 14),
    (("thm1", "--q", "0..2"), 192),
    (("thm2", "--s", "0..1"), 144),
    (("cro0", "--q", "0..2"), 7),
])
def test_verify_drops_out_of_domain_values(capsys, argv, count):
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert out.strip().splitlines()[-1] == f"PASS {count}/{count}"


@pytest.mark.parametrize("argv,message", [
    (("--n", "0", "--precision", "0"), "precision must be >= 1, got 0"),
    (("--n=-1..2",), "ranges must be non-negative"),
], ids=["precision", "range"])
def test_verify_bad_grid_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", "cro2", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class _CrashingCache(EulerCache):
    """euler_number(0), which sun_cor reads, raises; nothing else does."""

    def euler_number(self, n):
        if n == 0:
            raise ZeroDivisionError("euler_number(0) injected")
        return super().euler_number(n)


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "md"])
def test_a_crashing_checker_fails_without_a_traceback(capsys, monkeypatch,
                                                      fmt):
    monkeypatch.setattr(euler, "_CACHE", _CrashingCache())
    code, out, err = run_cli(capsys, "verify", "all", "--format", fmt)
    assert (code, err) == (1, "")
    assert "ZeroDivisionError: euler_number(0) injected" in out
    assert out.strip().splitlines()[-1].startswith("FAIL ")


def test_verify_failure_exits_1(capsys, monkeypatch):
    fake = [IdentityReport("wsp7", {"m": 0, "n": 0}, "symbolic",
                           Fraction(1), False, 0.1)]
    monkeypatch.setattr(cli, "run_suite",
                        lambda ids, grid, render: [render(fake)])
    code, out, _ = run_cli(capsys, "verify", "wsp7")
    assert code == 1
    assert "FAIL 1/1" in out


def test_witt_pass(capsys):
    code, out, _ = run_cli(capsys, "witt", "--p", "3", "--precision", "2",
                           "--n", "1", "--a", "0", "--naive")
    assert code == 0
    assert "S_N (closed)  = 4" in out
    assert "E_n(a)        = -1/2" in out
    assert "defect v_p    = 2" in out
    assert "matches closed form" in out
    assert out.strip().endswith("PASS")


def test_witt_infinite_defect(capsys):
    code, out, _ = run_cli(capsys, "witt", "--p", "3", "--precision", "1",
                           "--n", "0", "--a", "1/2")
    assert code == 0
    assert "defect v_p    = inf" in out


def test_witt_json(capsys):
    code, out, _ = run_cli(capsys, "witt", "--p", "5", "--precision", "2",
                           "--n", "3", "--a", "1/2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["defect"] >= 2


def test_witt_rejects_p2(capsys):
    code, _, err = run_cli(capsys, "witt", "--p", "2", "--precision", "1",
                           "--n", "1", "--a", "0")
    assert code == 2
    assert "odd prime" in err


def test_witt_rejects_composite_p(capsys):
    code, _, err = run_cli(capsys, "witt", "--p", "9", "--precision", "1",
                           "--n", "1", "--a", "0")
    assert code == 2


def test_witt_rejects_non_integral_shift(capsys):
    code, _, err = run_cli(capsys, "witt", "--p", "3", "--precision", "2",
                           "--n", "1", "--a", "1/3")
    assert code == 2
    assert "not a 3-adic integer" in err
    # both routes check p, then the shift, then N
    for naive in [], ["--naive"]:
        assert run_cli(capsys, "witt", "--p", "3", "--precision", "0",
                       "--n", "1", "--a", "1/3", *naive) == (
            2, "", "error: shift 1/3 is not a 3-adic integer "
                   "(p divides the denominator)\n")


def test_witt_budget_exceeded_exits_2(capsys):
    code, _, err = run_cli(capsys, "witt", "--p", "3", "--precision", "2",
                           "--n", "1", "--a", "0", "--naive", "--budget", "4")
    assert code == 2
    code, out, err = run_cli(capsys, "witt", "--p", "3", "--precision", "2",
                             "--n", "1", "--a", "0", "--naive", "--budget", "8")
    assert code == 2
    assert out == ""
    assert err == "error: p**N = 9 exceeds budget 8\n"


def test_witt_naive_refuses_a_bad_shift_before_summing(capsys, monkeypatch):
    # the shift error wins over the budget error, and no term is summed
    def summed(*args, **kwargs):
        raise AssertionError("witt_sum_naive called")

    monkeypatch.setattr(cli, "witt_sum_naive", summed)
    shift = "error: shift 1/3 is not a 3-adic integer " \
        "(p divides the denominator)\n"
    for budget in ["8", "10000000"]:
        assert run_cli(capsys, "witt", "--p", "3", "--precision", "14",
                       "--n", "8", "--a", "1/3", "--naive",
                       "--budget", budget) == (2, "", shift)
    # p is checked first, so --p 9 keeps its message
    assert run_cli(capsys, "witt", "--p", "9", "--precision", "2", "--n", "1",
                   "--a", "1/9", "--naive") == (
        2, "", "error: p must be an odd prime, got 9\n")


@pytest.mark.parametrize("p,a,message", [
    ("9", "0", "p must be an odd prime, got 9"),
    ("3", "1/3", "shift 1/3 is not a 3-adic integer "
                 "(p divides the denominator)"),
], ids=["p", "shift"])
def test_witt_refuses_before_building_e_n(capsys, monkeypatch, p, a, message):
    # a bad p or shift exits 2 before E_1000 is built
    cache = EulerCache()
    monkeypatch.setattr(euler, "_CACHE", cache)
    assert run_cli(capsys, "witt", "--p", p, "--precision", "1",
                   "--n", "1000", "--a", a) == (2, "", f"error: {message}\n")
    assert cache.table_sizes()["E_n"] == 0


def test_witt_budget_binds_only_naive(capsys):
    # without --naive the defect is measured on the digit sum, which sums no
    # p**N terms
    code, out, _ = run_cli(capsys, "witt", "--p", "3", "--precision", "2",
                           "--n", "1", "--a", "0", "--budget", "8")
    assert code == 0
    assert out.strip().endswith("PASS")


_WITT_1001 = ["witt", "--p", "3", "--precision", "1", "--n", "1001", "--a", "0"]


@pytest.mark.parametrize("argv,message", [
    (["poly", "1001"], "n must be <= 1000, got 1001"),
    (["eval", "1001", "1/2"], "n must be <= 1000, got 1001"),
    (["numbers", "1001"], "max must be <= 1000, got 1001"),
    (_WITT_1001, "n must be <= 1000, got 1001"),
    (_WITT_1001 + ["--naive"], "n must be <= 1000, got 1001"),
    (["verify", "cro2", "--n", "0..1001"], "n must be <= 1000, got 1001"),
    (["verify", "wsp7", "--m", "1001"], "m must be <= 1000, got 1001"),
    (["verify", "thm1", "--m", "1", "--n", "0", "--q", "1500", "--k", "1"],
     "q must be <= 1000, got 1500"),
    (["verify", "thm1", "--k", "1001"], "k must be <= 1000, got 1001"),
    (["verify", "thm2", "--s", "1001"], "s must be <= 1000, got 1001"),
    (["poly", "-1"], "n must be >= 0, got -1"),
    (["eval", "-1", "1/2"], "n must be >= 0, got -1"),
    (["numbers", "-1"], "max must be >= 0, got -1"),
    (["witt", "--p", "3", "--precision", "1", "--n", "-1", "--a", "0"],
     "n must be >= 0, got -1"),
], ids=["poly", "eval", "numbers", "witt", "witt-naive", "verify-n",
        "verify-m", "verify-q", "verify-k", "verify-s", "poly-negative",
        "eval-negative", "numbers-negative", "witt-negative"])
def test_degree_above_max_exits_2_before_any_table_grows(
        capsys, monkeypatch, argv, message):
    cache = EulerCache()
    monkeypatch.setattr(euler, "_CACHE", cache)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert cache._euler == {} and cache._zeros == []


@pytest.mark.parametrize("naive", [[], ["--naive"]], ids=["digits", "naive"])
@pytest.mark.parametrize("option,value,message", [
    ("--n", "-1", "n must be >= 0, got -1"),
    ("--precision", "0", "precision must be >= 1, got 0"),
    ("--p", "9", "p must be an odd prime, got 9"),
], ids=["n", "precision", "p"])
def test_witt_bad_argument_exits_2(capsys, naive, option, value, message):
    args = {"--p": "3", "--precision": "2", "--n": "1", "--a": "0"}
    args[option] = value
    argv = [token for pair in args.items() for token in pair]
    code, out, err = run_cli(capsys, "witt", *argv, *naive)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert err.count("\n") == 1


def test_witt_naive_sums_once(capsys, monkeypatch):
    calls = []
    original = padic.witt_sum_naive

    def counted(*args, **kwargs):
        calls.append(args[2:4])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "witt_sum_naive", counted)
    monkeypatch.setattr(padic, "witt_sum_naive", counted)
    code, out, _ = run_cli(capsys, "witt", "--p", "5", "--precision", "2",
                           "--n", "4", "--a", "3/2", "--naive")
    assert code == 0
    assert "(matches closed form)" in out
    assert calls == [(5, 2)]


def test_witt_naive_mismatch_fails(capsys, monkeypatch):
    # a naive sum off by one must fail the certificate, in text and JSON
    original = padic.witt_sum_naive
    monkeypatch.setattr(cli, "witt_sum_naive",
                        lambda *args, **kwargs: original(*args, **kwargs) + 1)
    argv = ["witt", "--p", "5", "--precision", "2", "--n", "4", "--a", "3/2",
            "--naive"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert "(MISMATCH)" in out
    assert out.strip().endswith("FAIL")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["naive_matches"] is False and data["pass"] is False


def test_witt_defect_below_precision_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "witt_defect", lambda *a, **k: 0)
    code, out, _ = run_cli(capsys, "witt", "--p", "3", "--precision", "2",
                           "--n", "1", "--a", "0")
    assert code == 1
    assert out.strip().endswith("FAIL")


def test_verify_output_is_deterministic(capsys):
    def strip_elapsed(text):
        reports = json.loads(text.rsplit("\n", 2)[0])
        for r in reports:
            r.pop("elapsed_ms")
        return reports

    _, out1, _ = run_cli(capsys, "verify", "wsp7", "cro2", "--m", "0..2",
                         "--n", "0..2", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "wsp7", "cro2", "--m", "0..2",
                         "--n", "0..2", "--format", "json")
    assert strip_elapsed(out1) == strip_elapsed(out2)


def test_cli_import_builds_no_dataclass_record_and_no_csv_writer():
    # every command pays for its imports at start-up: csv is imported by
    # the CSV report writer alone, and the two records are named tuples
    probe = ("import dataclasses, sys\n"
             "import eulerferm.cli\n"
             "from eulerferm.identities import IdentityReport, SweepGrid\n"
             "print('csv' in sys.modules,\n"
             "      dataclasses.is_dataclass(IdentityReport),\n"
             "      dataclasses.is_dataclass(SweepGrid))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "eulerferm", "poly", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-x + x^2"


def test_a_closed_stdout_ends_verify_without_a_traceback():
    # the reader takes three lines and closes the pipe, as `| head -3`
    # does; the CSV is about 190 KiB, over what a pipe holds, so the writer
    # meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "eulerferm", "verify", "all", "--m", "0..8",
         "--n", "0..8", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = [proc.stdout.readline() for _ in range(3)]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == cli.PIPE_CLOSED == 3
    assert lines[0] == b"id,params,mode,residual,pass,elapsed_ms\r\n"
    assert all(line.endswith(b"\r\n") for line in lines)
    assert b"Traceback" not in stderr
    assert stderr == b""
