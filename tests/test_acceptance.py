"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact (zero polynomial / zero rational); the only
inequalities are p-adic valuation lower bounds and wall-clock ceilings.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction

import pytest

from eulerferm import cli
from eulerferm import identities as ident
from eulerferm.euler import euler_number, euler_poly, euler_polys_by_series
from eulerferm.identities import IdentityReport
from eulerferm.padic import (
    DenominatorNotInvertible,
    fermionic_sum_closed,
    fermionic_sum_digits,
    fermionic_sum_naive,
    lem1_defect,
    valuation,
    witt_defect,
)
from eulerferm.polynomial import Polynomial, monomial

F = Fraction


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_value_table():
    started = time.perf_counter()
    expected_polys = [
        Polynomial([F(1)]),
        Polynomial([F(-1, 2), F(1)]),
        Polynomial([F(0), F(-1), F(1)]),
        Polynomial([F(1, 4), F(0), F(-3, 2), F(1)]),
    ]
    polys_ok = all(euler_poly(n) == expected_polys[n] for n in range(4))

    # expected Euler numbers come from the finite-difference oracle, read
    # off the series of 2 / (e^t + 1); it never reads the tangent numbers
    series = euler_polys_by_series(11)
    oracle = [2 ** n * series[n](F(1, 2)) for n in range(11)]
    frozen = [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521]
    numbers = [euler_number(n) for n in range(11)]
    numbers_ok = numbers == oracle == frozen
    odd_ok = all(numbers[n] == 0 for n in range(1, 11, 2))

    elapsed = time.perf_counter() - started
    _verdict("criterion-1 value table", polys_ok and numbers_ok and odd_ok
             and elapsed < 1.0, f"{elapsed:.2f}s < 1s")


def test_criterion_2_classical_power_sums():
    started = time.perf_counter()
    bad = []
    for m in range(1, 51):
        for n in range(11):
            if not ident.check_euler_alt_sum(m, n).passed:
                bad.append(("alt", m, n))
            if not ident.check_bernoulli_power_sum(m, n).passed:
                bad.append(("pow", m, n))
    elapsed = time.perf_counter() - started
    _verdict("criterion-2 classical power sums", not bad and elapsed < 5.0,
             f"1100 cases, {elapsed:.2f}s < 5s")


def test_criterion_3_identity_suite_symbolic():
    started = time.perf_counter()
    failures = []

    def need(report):
        if not report.passed:
            failures.append((report.checker, report.params))

    for m in range(9):
        for n in range(9):
            need(ident.check_wsp7(m, n))
            if m + n > 0:
                need(ident.check_wsp9(m, n))
            need(ident.check_sun(m, n, F(0)))
            need(ident.check_sun(m, n, F(1)))
            need(ident.check_sun(m, n, F(1, 2)))
            need(ident.check_sun(m, n, F(-1)))
    for m in range(7):
        for n in range(7):
            if m + n == 0:
                continue
            for q in range(1, 5):
                for k in (1, 3, 5):
                    need(ident.check_thm1(m, n, q, k))
    for n in range(11):
        for q in (1, 3, 5):
            need(ident.check_cro0(n, q))
    for m in range(13):
        for n in range(13):
            if m + n > 0:
                need(ident.check_cro1(m, n))
    for n in range(21):
        need(ident.check_cro2(n))
        need(ident.check_recurrence_odd(n))
    for m in range(11):
        for n in range(11):
            need(ident.check_sun_cor(m, n))
    for m in range(6):
        for n in range(6):
            if m + n == 0:
                continue
            for s in range(1, 5):
                for k in range(5):
                    need(ident.check_thm2(m, n, s, k))
    for n in range(9):
        for k in range(7):
            need(ident.check_thm2_cro1(n, k))
            need(ident.check_thm2_cro2(n, k))
    for m in range(11):
        for k in range(m + 1):
            need(ident.check_thm3(m, k))
            need(ident.check_thm3_1a(m, k))
        for k in range(m):
            need(ident.check_thm3_1b(m, k))
            for l in range(m - k):
                need(ident.check_thm3_1c(m, k, l))
        for j in range(1, m + 1):
            for k in range(m + 1):
                need(ident.check_thm3_1d(m, k, j))
    for m in range(3, 16):
        need(ident.check_rem2_1(m))

    elapsed = time.perf_counter() - started
    _verdict("criterion-3 identity suite", not failures and elapsed < 60.0,
             f"{elapsed:.1f}s < 60s" + (f"; failures: {failures[:3]}"
                                        if failures else ""))


def test_criterion_4_specialization_cross_links():
    started = time.perf_counter()
    ok = True
    for m in range(7):
        for n in range(7):
            if m + n > 0:
                ok &= (ident.check_thm1(m, n, 1, 1).residual ==
                       ident.check_wsp9(m, n).residual)
            ok &= (ident.check_sun(m, n, F(1)).residual ==
                   ident.check_wsp7(m, n).residual)
    for m in range(2, 16):
        ok &= (ident.check_thm3_1c(m, 0, 1).passed ==
               ident.check_cro2(m).passed)
    elapsed = time.perf_counter() - started
    _verdict("criterion-4 specialization cross-links", ok,
             f"{elapsed:.2f}s")


def test_criterion_5_padic_convergence():
    started = time.perf_counter()
    bad = []
    for p in (3, 5, 7):
        shifts = [F(0), F(1), F(1, 2)]
        if p != 3:
            shifts.append(F(-2, 3))
        for precision in range(1, 6):
            span = p ** precision
            for n in range(9):
                for a in shifts:
                    if witt_defect(n, a, p, precision) < precision:
                        bad.append(("witt", p, precision, n, a))
                    if span <= 10 ** 7:
                        f = monomial(n).compose_affine(1, a)
                        naive = fermionic_sum_naive(f, p, precision)
                        if naive != fermionic_sum_closed(n, a, span):
                            bad.append(("naive", p, precision, n, a))
                        # witt_defect's digit route against the literal loop
                        if fermionic_sum_digits(f, p, precision) != naive:
                            bad.append(("digits", p, precision, n, a))
    # 50 deterministic pseudo-random p-integral polynomials per prime
    lem1_precision = 3
    for p in (3, 5, 7):
        rng = random.Random(1009 * p)
        for idx in range(50):
            degree = rng.randint(0, 8)
            coeffs = []
            for _ in range(degree + 1):
                den = rng.choice([d for d in range(1, 11) if d % p != 0])
                coeffs.append(F(rng.randint(-30, 30), den))
            if lem1_defect(Polynomial(coeffs), p, lem1_precision) < lem1_precision:
                bad.append(("lem1", p, idx))
    elapsed = time.perf_counter() - started
    _verdict("criterion-5 p-adic convergence", not bad and elapsed < 120.0,
             f"{elapsed:.1f}s < 120s" + (f"; failures: {bad[:3]}" if bad else ""))


def test_criterion_6_error_paths(capsys, monkeypatch):
    ok = True
    # odd-prime guard across entry points
    for call in (lambda: valuation(F(1), 2),
                 lambda: fermionic_sum_naive(lambda x: x, 2, 1),
                 lambda: witt_defect(1, F(0), 2, 1)):
        try:
            call()
            ok = False
        except ValueError:
            pass
    # non-invertible denominator
    try:
        witt_defect(1, F(1, 3), 3, 2)
        ok = False
    except DenominatorNotInvertible:
        pass
    # CLI exit-code contract: 0 on success
    ok &= cli.main(["verify", "cro2", "--n", "0..5"]) == 0
    # 2 on usage error
    ok &= cli.main(["verify", "nosuch"]) == 2
    ok &= cli.main(["witt", "--p", "2", "--precision", "1",
                    "--n", "0", "--a", "0"]) == 2
    ok &= cli.main(["witt", "--p", "3", "--precision", "1",
                    "--n", "0", "--a", "1/3"]) == 2
    # 1 on a reported failure (injected: every stated identity is true, so a
    # genuine counterexample is not constructible)
    fake = [IdentityReport("wsp7", {"m": 0, "n": 0}, "symbolic",
                           F(1), False, 0.0)]
    monkeypatch.setattr(cli, "run_suite",
                        lambda ids, grid, render: [render(fake)])
    ok &= cli.main(["verify", "wsp7"]) == 1
    capsys.readouterr()
    _verdict("criterion-6 error paths", ok)
