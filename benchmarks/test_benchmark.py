"""The benchmark's own tests: negative controls for every output check, and
quick-mode runs of every workload, untraced and traced.

    python3 -m pytest -q benchmarks

They are not part of the package's test suite (pyproject's testpaths).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import CHECKER_IDS, LAYER_METRICS  # noqa: E402


def cli_output(argv) -> str:
    """Run the eulerferm CLI in this process and return its stdout."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from eulerferm import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    assert rc == 0, buf.getvalue()[-500:]
    return buf.getvalue()


def commands(workload, seed=3):
    return workloads.build(workload, seed, quick=True)


# -- independent oracles ------------------------------------------------------

def test_seidel_euler_numbers():
    assert workloads.euler_numbers(9) == [1, 0, -1, 0, 5, 0, -61, 0, 1385]


def test_seidel_euler_polynomial():
    # E_3(x) = 1/4 - 3/2 x^2 + x^3
    assert workloads.euler_poly_seidel(3) == [Fraction(1, 4), 0,
                                              Fraction(-3, 2), 1]


def test_fermionic_sum_mod_small_case():
    # sum_{x<9} (x + 1/2)^2 (-1)^x mod 9 against exact rational arithmetic
    a = Fraction(1, 2)
    exact = sum((x + a) ** 2 * (-1) ** x for x in range(9))
    want = exact.numerator * pow(exact.denominator, -1, 9) % 9
    assert workloads.fermionic_sum_mod(2, a, 3, 2) == want


def test_catalog_counts_match_desk_grid_total():
    # the desk grid of the README prints 1731 reports
    r = list(range(7))
    points = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1),
              Fraction(-2, 3)]
    counts = workloads.catalog_counts(r, r, [1, 2, 3], [1, 2, 3], [1, 2, 3],
                                      [3, 5, 7], points)
    assert set(counts) == set(CHECKER_IDS)
    assert sum(counts.values()) == 1731
    cli_output(["numbers", "0"])        # puts src/ on sys.path
    from eulerferm.identities import CHECKER_IDS as program_ids
    assert sorted(program_ids) == sorted(CHECKER_IDS)


# -- negative controls: each check must fail on a corrupted output -------------

def test_catalog_check_and_negative_controls():
    (command,) = commands("catalog")
    good = cli_output(command.argv)
    assert command.check(good) == []

    body, _, summary = good.rstrip("\n").rpartition("\n")
    reports = json.loads(body)

    def render(rs, summ=summary):
        return json.dumps(rs, indent=2) + "\n" + summ + "\n"

    failed = json.loads(body)
    failed[5]["pass"] = False
    poly_residual = json.loads(body)
    index = next(i for i, r in enumerate(reports) if r["residual"] == [])
    poly_residual[index]["residual"] = ["1/2"]
    scalar_residual = json.loads(body)
    index = next(i for i, r in enumerate(reports) if r["residual"] == "0")
    scalar_residual[index]["residual"] = "-3"
    low_defect = json.loads(body)
    index = next(i for i, r in enumerate(reports) if r["mode"] == "valuation")
    low_defect[index]["residual"] = 1
    total = len(reports) - 1
    for corrupted in (render(failed), render(poly_residual),
                      render(scalar_residual), render(low_defect),
                      render(reports[1:], f"PASS {total}/{total}"),
                      render(reports, "FAIL 1/%d" % len(reports)),
                      good[:len(good) // 2]):
        assert command.check(corrupted), corrupted[-200:]


@pytest.mark.parametrize("fmt", ["text", "json", "csv", "md"])
def test_poly_check_and_negative_control(fmt):
    degree = 9
    good = cli_output(["poly", str(degree), "--format", fmt])
    assert workloads.check_poly(good, degree, fmt) == []
    coeffs = workloads.euler_poly_seidel(degree)
    coeffs[4] += 1
    wrong = {
        "json": json.dumps([str(c) for c in coeffs]),
        "csv": ",".join(str(c) for c in coeffs),
    }.get(fmt, good.replace("x^9", "2*x^9"))
    assert workloads.check_poly(wrong, degree, fmt)
    assert workloads.check_poly(good, degree + 1, fmt)


def test_text_report_check_and_negative_controls():
    poly_cmd, verify_cmd, gf_cmd = commands("highdeg")
    good = cli_output(verify_cmd.argv)
    assert verify_cmd.check(good) == []
    lines = good.rstrip("\n").split("\n")
    as_fail = "\n".join(["FAIL" + lines[0][4:]] + lines[1:])
    residual = "\n".join([lines[0].replace("residual=0", 'residual=["1"]')]
                         + lines[1:])
    dropped = "\n".join(lines[1:])
    for corrupted in (as_fail, residual, dropped, "garbage"):
        assert verify_cmd.check(corrupted)
    assert gf_cmd.check(cli_output(gf_cmd.argv)) == []


def test_padic_checks_and_negative_controls():
    verify_cmd, *rest = commands("padic")
    good = cli_output(verify_cmd.argv)
    assert verify_cmd.check(good) == []
    low = good.replace("residual=inf", "residual=1", 1)
    if low == good:
        low = "\n".join(
            line.rsplit("residual=", 1)[0] + "residual=1"
            if line.startswith("PASS witt") else line
            for line in good.split("\n"))
    assert verify_cmd.check(low)

    witt_cmd, eval_cmd = rest[0], rest[1]
    witt_out = cli_output(witt_cmd.argv)
    eval_out = cli_output(eval_cmd.argv)
    assert witt_cmd.check(witt_out) == []
    assert eval_cmd.check(eval_out) == []

    value = Fraction(eval_out.strip())
    assert eval_cmd.check(f"{value + 1}\n")
    fields = workloads.parse_witt(witt_out)
    wrong_euler = witt_out.replace(f"E_n(a)        = {fields['E_n(a)']}",
                                   f"E_n(a)        = {Fraction(fields['E_n(a)']) + 1}")
    assert witt_cmd.check(wrong_euler)
    naive = fields["naive sum"].split(" ")[0]
    assert witt_cmd.check(witt_out.replace(f"naive sum     = {naive}",
                                           f"naive sum     = {Fraction(naive) + 1}"))
    assert witt_cmd.check(witt_out.replace(
        f"defect v_p    = {fields['defect v_p']}", "defect v_p    = 1"))
    assert witt_cmd.check(witt_out.replace("PASS", "FAIL"))


# -- whole runs in quick mode ------------------------------------------------------

def run_benchmark(cwd: Path, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in s["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in s["per_layer"]] == list(LAYER_METRICS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run(workload, trace):
    proc = run_benchmark(ROOT, "--workload", workload, "--seed", "7",
                         "--seconds", "1", "--trace", trace, "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    s = spec()
    names = [m["name"] for m in s["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    values = {k: v["value"] for k, v in result["metrics"].items()}
    checkers = sum(values[f"identities.{cid}_ms"] for cid in CHECKER_IDS)
    assert checkers == pytest.approx(values["identities.run_suite_ms"]
                                     - values["identities.driver_ms"])
    assert values["cli.main_ms"] > 0 and values["numeric.fraction_ops"] > 0
    trace_file = HERE / ".out" / f"trace-{workload}.json"
    spans = json.loads(trace_file.read_text())["commands"][0]["spans"]
    assert spans and all(len(s) == 5 for s in spans)


def test_fraction_ops_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = run_benchmark(ROOT, "--workload", "padic", "--seed", "2",
                             "--seconds", "1", "--trace", "1", "--quick")
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        counts.append(result["metrics"]["numeric.fraction_ops"]["value"])
    assert counts[0] == counts[1] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "catalog", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
