"""Identity checker tests: frozen hand expansions, sweeps, the
symbolic/pointwise duality, and the specialization cross-links."""

import inspect
import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eulerferm import euler, identities as ident
from eulerferm.identities import (
    CHECKER_IDS,
    SweepGrid,
    euler_zero_via_recurrence,
    report_to_dict,
    run_suite,
)
from eulerferm.euler import (
    EulerCache,
    EulerRecurrence,
    euler_poly,
    euler_zero,
)
from eulerferm.polynomial import Polynomial

F = Fraction


# --- frozen hand expansions -------------------------------------------------

def test_wsp7_hand_cases():
    assert ident.check_wsp7(0, 0).passed
    # -(E_0(a) + E_1(a)) = -a - 1/2 = E_1(-a)
    r = ident.check_wsp7(1, 0)
    assert r.passed and r.residual == 0


def test_wsp9_hand_case():
    # (0,1): both sides expand to 6a
    assert ident.check_wsp9(0, 1).passed


def test_cro2_hand_cases():
    # n = 0: 1*1*E_0(0) + 1*2*E_1(0) = 1 - 1
    assert ident.check_cro2(0).residual == 0
    assert ident.check_cro2(1).residual == 0


def test_recurrence_hand_values():
    assert euler_zero_via_recurrence(0) == F(-1, 2)
    assert euler_zero_via_recurrence(1) == F(1, 4)
    for n in range(21):
        assert euler_zero_via_recurrence(n) == euler_zero(2 * n + 1)


def test_thm2_hand_case():
    # full expansion of the smallest nontrivial case
    assert ident.check_thm2(1, 0, 1, 0).passed


def test_thm2_cro1_hand_case():
    # n=0, k=1: 1 - (1/2)*1*2 = 0
    assert ident.check_thm2_cro1(0, 1).residual == 0


def test_thm2_cro2_hand_case():
    # n=0, k=0: 3*(2-1) - 1*(4-1) = 0
    assert ident.check_thm2_cro2(0, 0).residual == 0


def test_thm3_hand_case():
    # (1,0): LHS = E_2(a) = a^2 - a, RHS = -a + a^2
    assert ident.check_thm3(1, 0).passed


def test_thm3_1_hand_case():
    # thm3_1a, (1,0): single term 2*E_1(0) = -1 = (-1)^1 C(1,0)
    assert ident.check_thm3_1a(1, 0).residual == 0


def test_rem2_1_hand_case():
    # m = 3: 6 - 36 + 0 + 30 = 0; the odd m+i term at i=0 matters
    assert ident.check_rem2_1(3).residual == 0


def test_sun_cor_hand_case():
    # (1,0): -(E_0 + E_1/2) = -1 and E_1(-1/2) = -1
    assert ident.check_sun_cor(1, 0).residual == 0


def test_boundary_and_alt_sum_edges():
    assert ident.check_boundary(0).passed
    assert ident.check_euler_alt_sum(1, 0).passed
    assert ident.check_bernoulli_power_sum(1, 0).passed


# --- sweeps (smaller than the acceptance grids) ------------------------------

def test_symbolic_sweeps_pass():
    for m in range(5):
        for n in range(5):
            assert ident.check_wsp7(m, n).passed
            if m + n > 0:
                assert ident.check_wsp9(m, n).passed
                assert ident.check_cro1(m, n).passed
            assert ident.check_sun_cor(m, n).passed
    for n in range(8):
        assert ident.check_cro2(n).passed
        assert ident.check_recurrence_odd(n).passed
        assert ident.check_reflection(n).passed
        assert ident.check_complement(n).passed
        assert ident.check_boundary(n).passed
        assert ident.check_fersim(n).passed
        assert ident.check_gf_consistency(n).passed


def test_thm1_sweep_and_thm2_sweep():
    for m in range(4):
        for n in range(4):
            if m + n == 0:
                continue
            for q in (1, 2):
                for k in (1, 3):
                    assert ident.check_thm1(m, n, q, k).passed
            for s in (1, 2):
                for k in (0, 1, 2):
                    assert ident.check_thm2(m, n, s, k).passed


def test_delta_zero_cases_assert_rhs_vanishes():
    # equal parity of (s, k) zeroes the left side, so the verdict is
    # exactly "derivative sum identically zero"
    for m, n in ((1, 0), (2, 1), (3, 3)):
        for s, k in ((1, 1), (1, 3), (2, 0), (2, 2), (3, 1)):
            r = ident.check_thm2(m, n, s, k)
            assert ((-1) ** s - (-1) ** k) == 0
            assert r.passed


def test_thm3_family_sweeps():
    for m in range(7):
        for k in range(m + 1):
            assert ident.check_thm3(m, k).passed
            assert ident.check_thm3_1a(m, k).passed
            if k <= m - 1:
                assert ident.check_thm3_1b(m, k).passed
                for l in range(m - k):
                    assert ident.check_thm3_1c(m, k, l).passed
            for j in range(1, m + 1):
                assert ident.check_thm3_1d(m, k, j).passed
    for m in range(3, 10):
        assert ident.check_rem2_1(m).passed


def test_fersim3_sweep():
    for n in range(5):
        for q in range(1, 31):
            assert ident.check_fersim3(n, q).passed


def test_sun_sweep():
    for m in range(5):
        for n in range(5):
            for a in (F(0), F(1), F(1, 2), F(-1)):
                assert ident.check_sun(m, n, a).passed


# --- symbolic vs pointwise duality -------------------------------------------

POLY_CHECKS = [
    (ident.check_reflection, (9,)),
    (ident.check_complement, (8,)),
    (ident.check_gf_consistency, (10,)),
    (ident.check_wsp7, (3, 4)),
    (ident.check_wsp9, (4, 2)),
    (ident.check_thm1, (2, 2, 2, 3)),
    (ident.check_sun, (3, 2, F(-2, 3))),
    (ident.check_thm2, (2, 2, 3, 2)),
    (ident.check_thm3, (6, 3)),
    (ident.check_fersim, (7,)),
    (ident.check_fersim3, (4, 6)),
]


@pytest.mark.parametrize("fn,args", POLY_CHECKS,
                         ids=[fn.__name__ for fn, _ in POLY_CHECKS])
def test_pointwise_certification_agrees(fn, args):
    symbolic = fn(*args, mode="symbolic")
    pointwise = fn(*args, mode="pointwise")
    assert symbolic.mode == "symbolic" and pointwise.mode == "pointwise"
    assert symbolic.passed == pointwise.passed is True
    assert pointwise.residual == 0


# --- specialization cross-links ----------------------------------------------

def test_thm1_q1_k1_matches_wsp9_residual():
    for m in range(5):
        for n in range(5):
            if m + n == 0:
                continue
            assert ident.check_thm1(m, n, 1, 1).residual == \
                ident.check_wsp9(m, n).residual


def test_sun_at_one_matches_wsp7_residual():
    for m in range(5):
        for n in range(5):
            assert ident.check_sun(m, n, F(1)).residual == \
                ident.check_wsp7(m, n).residual


def test_thm3_1c_l1_matches_cro2_verdict():
    for m in range(2, 16):
        a = ident.check_thm3_1c(m, 0, 1)
        b = ident.check_cro2(m)
        assert a.passed == b.passed is True


def test_cro1_symmetric_case_is_twice_cro2():
    # at m = n the two halves coincide, so the residual is doubled
    for n in range(1, 13):
        assert ident.check_cro1(n, n).residual == 2 * ident.check_cro2(n).residual


# --- usage errors -------------------------------------------------------------

def test_thm1_rejects_even_k():
    with pytest.raises(ValueError,
                       match=r"^thm1 is not stated at m=1, n=0, q=1, k=2$"):
        ident.check_thm1(1, 0, 1, 2)
    with pytest.raises(ValueError, match="thm1 is not stated at m=0, n=0"):
        ident.check_thm1(0, 0, 1, 1)
    with pytest.raises(ValueError, match="thm1 is not stated at .* q=0"):
        ident.check_thm1(1, 0, 0, 1)


@pytest.mark.parametrize("cid", CHECKER_IDS)
def test_negative_index_is_rejected_by_every_checker(cid):
    # every catalog index is a natural number: set each int param to -1 in
    # turn, keeping the others in the domain
    params = next(iter(ident.CHECKERS[cid].gen(SweepGrid())))
    check = getattr(ident, f"check_{cid}")
    assert check(**params).passed
    ints = [name for name, v in params.items() if isinstance(v, int)]
    assert ints
    for name in ints:
        with pytest.raises(ValueError, match=f"^{cid} is not stated at "):
            check(**{**params, name: -1})
    # a param annotated int refuses every other number type too
    annotated = [name for name, p in inspect.signature(check).parameters.items()
                 if p.annotation == "int"]
    assert annotated
    for name in annotated:
        for value in (-1.0, F(-1), 1.5, F(1), True):
            with pytest.raises(ValueError, match=f"^{cid} is not stated at "):
                check(**{**params, name: value})


def test_the_registered_run_tests_the_domain_before_the_body():
    with pytest.raises(ValueError, match=r"^thm1 is not stated at m=1, n=0, "
                                         r"q=1, k=-1$"):
        ident.CHECKERS["thm1"].run({"m": 1, "n": 0, "q": 1, "k": -1},
                                   "symbolic")
    with pytest.raises(ValueError, match=r"^wsp9 is not stated at m=0, n=0$"):
        ident.CHECKERS["wsp9"].run({"m": 0, "n": 0}, "symbolic")
    with pytest.raises(ValueError, match=r"^thm1 is not stated at .* k=-1.0$"):
        ident.check_thm1(1, 0, 1, -1.0)
    with pytest.raises(ValueError, match=r"^cro2 is not stated at n=1.5$"):
        ident.check_cro2(1.5)


@pytest.mark.parametrize("cid", CHECKER_IDS)
def test_the_registered_run_refuses_missing_and_extra_params(cid):
    # a malformed dict is a usage error, never a report
    params = next(iter(ident.CHECKERS[cid].gen(SweepGrid())))
    run = ident.CHECKERS[cid].run
    assert run(params, "symbolic").passed
    *kept, _ = params
    for bad in ({}, {k: params[k] for k in kept}, {**params, "x": 1}):
        with pytest.raises(ValueError, match=f"^{cid} takes params "
                           f"{', '.join(params)}, got "
                           f"{', '.join(bad) or 'none'}$"):
            run(bad, "symbolic")


def test_sweep_grid_rejects_negative_axes_and_precision_below_one():
    with pytest.raises(ValueError, match="^ranges must be non-negative$"):
        SweepGrid(m=(-1, 2))
    with pytest.raises(ValueError, match="^precision must be >= 1, got 0$"):
        SweepGrid(precision=0)
    # a bad prime is refused with the grid, never skipped by a sweep
    for primes, bad in (((-3, 3), -3), ((3, 2), 2), ((9,), 9)):
        with pytest.raises(ValueError,
                           match=f"^p must be an odd prime, got {bad}$"):
            SweepGrid(p_list=primes)
    for field, values in (("m", (1.5,)), ("k", (F(1),)), ("p_list", (3.0,)),
                          ("precision", 2.0), ("lem1_count", True)):
        with pytest.raises(ValueError, match="^every grid field but points "
                                             "must hold integers$"):
            SweepGrid(**{field: values})


def test_a_crashing_checker_fails_its_report_and_the_run_goes_on(
        monkeypatch):
    # E_0 off by 1/8 makes euler_number(0) raise inside sun_cor
    cache = EulerCache()
    cache._euler[0] = Polynomial([F(9, 8)])
    monkeypatch.setattr(euler, "_CACHE", cache)
    reports = run_suite()
    assert {r.checker for r in reports} == set(CHECKER_IDS)
    sun_cor = [r for r in reports if r.checker == "sun_cor"]
    crashed = [r for r in sun_cor if isinstance(r.residual, str)]
    assert crashed and not any(r.passed for r in crashed)
    assert crashed[0].residual == \
        "AssertionError: euler_number(0) not integral: 9/8"
    assert report_to_dict(crashed[0])["residual"] == crashed[0].residual


def test_parameter_range_violations():
    with pytest.raises(ValueError):
        ident.check_cro0(2, 2)       # even q
    with pytest.raises(ValueError):
        ident.check_thm3(2, 3)       # k > m
    with pytest.raises(ValueError):
        ident.check_thm3_1c(3, 1, 2)   # l > m-k-1
    with pytest.raises(ValueError):
        ident.check_thm3_1d(3, 0, 0)   # j < 1
    with pytest.raises(ValueError):
        ident.check_rem2_1(2)
    with pytest.raises(ValueError):
        ident.check_wsp9(0, 0)
    with pytest.raises(ValueError):
        ident.check_thm2(1, 1, 0, 1)  # s < 1


# --- suite driver --------------------------------------------------------------

SMALL_GRID = SweepGrid(m=(0, 1, 2), n=(0, 1, 2), q=(1, 2), k=(1, 2), s=(1, 2),
                       points=(F(0), F(1, 2)), p_list=(3, 5), precision=2,
                       lem1_count=2)


def test_run_suite_all_pass_and_deterministic():
    first = run_suite(grid=SMALL_GRID)
    second = run_suite(grid=SMALL_GRID)
    assert all(r.passed for r in first)
    key = lambda r: (r.checker, str(sorted(r.params.items(),
                                           key=lambda kv: kv[0])),
                     r.mode, str(r.residual), r.passed)
    assert [key(r) for r in first] == [key(r) for r in second]
    # canonical ordering: ids ascending
    assert [r.checker for r in first] == sorted(r.checker for r in first)


def test_gf_consistency_grows_one_recurrence_table(monkeypatch):
    # the finite-difference oracle is stateless; the recurrence grows one
    # table, not one table per n
    for ns, terms in ((range(10, 21), 21), (range(40, 61), 61)):
        recurrence = EulerRecurrence()
        monkeypatch.setattr(ident, "_RECURRENCE", recurrence)
        reports = run_suite(["gf_consistency"], SweepGrid(n=tuple(ns)))
        assert len(reports) == len(ns) and all(r.passed for r in reports)
        assert recurrence.terms == terms


def test_gf_consistency_passes_at_degree_120():
    for mode in ("symbolic", "pointwise"):
        assert ident.check_gf_consistency(120, mode=mode).passed


def _off_at_five(n):
    """An oracle whose E_5 is off by x; every other entry is true."""
    e = euler_poly(n)
    return e + Polynomial([0, 1]) if n == 5 else e


@pytest.mark.parametrize("oracle,fake", [
    ("euler_poly_by_differences", _off_at_five),
    ("_RECURRENCE", SimpleNamespace(euler_poly=_off_at_five)),
], ids=["euler_poly_by_differences", "_RECURRENCE"])
def test_gf_consistency_compares_each_oracle(monkeypatch, oracle, fake):
    monkeypatch.setattr(ident, oracle, fake)
    for mode in ("symbolic", "pointwise"):
        reports = run_suite(["gf_consistency"], mode=mode)
        assert [r.params["n"] for r in reports if not r.passed] == [5]


def test_run_suite_subset_and_unknown():
    reports = run_suite(ids=["reflection"], grid=SMALL_GRID)
    assert {r.checker for r in reports} == {"reflection"}
    assert len(reports) == 3
    with pytest.raises(ValueError):
        run_suite(ids=["nosuch"], grid=SMALL_GRID)


def test_run_suite_pointwise_mode():
    reports = run_suite(ids=["wsp7", "witt"], grid=SMALL_GRID,
                        mode="pointwise")
    modes = {r.checker: r.mode for r in reports}
    assert modes["wsp7"] == "pointwise"
    assert modes["witt"] == "valuation"
    assert all(r.passed for r in reports)


def test_unknown_mode_is_rejected_before_any_check():
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        run_suite(["cro2"], mode="bogus")
    # a selection with nothing in its domain still validates the mode
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        run_suite(["rem2_1"], SweepGrid(m=(0, 1)), mode="bogus")
    # the driver rejects it before the body, whose own domain error would
    # otherwise come first
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        ident.CHECKERS["wsp9"].run({"m": 0, "n": 0}, "bogus")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        ident.check_cro2(1, mode="bogus")


def test_non_integral_shift_is_a_value_error():
    with pytest.raises(ValueError, match="not a 3-adic integer"):
        ident.check_witt(0, F(1, 3), 3, 2)
    with pytest.raises(ArithmeticError):
        ident.check_witt(0, F(1, 3), 3, 2)


def test_catalog_is_complete():
    expected = {
        "reflection", "complement", "boundary", "gf_consistency",
        "euler_alt_sum", "bernoulli_power_sum", "wsp7", "wsp9", "thm1",
        "cro0", "cro1", "cro2", "recurrence_odd", "sun", "sun_cor", "thm2",
        "thm2_cro1", "thm2_cro2", "thm3", "thm3_1a", "thm3_1b", "thm3_1c",
        "thm3_1d", "rem2_1", "fersim", "fersim3", "witt", "lem1",
    }
    assert set(CHECKER_IDS) == expected


def test_report_json_schema():
    reports = run_suite(ids=["wsp7", "witt", "cro2"], grid=SMALL_GRID)
    for r in reports:
        d = report_to_dict(r)
        assert set(d) == {"id", "params", "mode", "residual", "pass",
                          "elapsed_ms"}
        round_tripped = json.loads(json.dumps(d))
        assert round_tripped["id"] == r.checker
        assert round_tripped["pass"] is True
        if r.mode == "valuation":
            assert round_tripped["residual"] == "inf" or \
                isinstance(round_tripped["residual"], int)
        elif isinstance(r.residual, Polynomial):
            assert isinstance(round_tripped["residual"], list)
        else:
            assert isinstance(round_tripped["residual"], str)


def test_infinite_defect_renders_as_inf():
    r = ident.check_witt(0, F(1, 2), 3, 2)
    assert r.residual == math.inf
    assert report_to_dict(r)["residual"] == "inf"


def test_direct_calls_report_a_as_a_fraction():
    # an int shift is reported as the rational it stands for, as in a sweep
    for r in (ident.check_sun(1, 0, 1), ident.check_witt(2, 1, 3, 2)):
        assert isinstance(r.params["a"], F)
        assert report_to_dict(r)["params"]["a"] == "1"


def test_lem1_reports_the_polynomial_by_its_coefficients():
    r = ident.check_lem1(Polynomial([F(5), F(0), F(1, 2)]), 3, 2)
    assert r.passed
    assert r.params == {"p": 3, "precision": 2, "poly": ["5", "0", "1/2"]}
    r = ident.check_lem1(Polynomial([F(5)]), 3, 2, index=4)
    assert r.params == {"p": 3, "precision": 2, "poly": ["5"], "index": 4}
