"""Identity checker tests: frozen hand expansions, sweeps, the
interpolation oracle of every poly checker, the specialization cross-links,
and the suite's sweeps on forked children, whose reports equal the serial
run's, also when a child fails or the caller is interrupted, with no child
left behind."""

import _thread
import copy
import errno
import inspect
import json
import math
import os
import pickle
import signal
import threading
import time
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

import pytest

from eulerferm import euler, identities as ident, workers
from eulerferm.identities import (
    CHECKER_IDS,
    IdentityReport,
    SweepGrid,
    euler_zero_via_recurrence,
    run_suite,
)
from eulerferm.euler import (
    MAX_DEGREE,
    EulerCache,
    EulerRecurrence,
    euler_poly,
    euler_poly_shifted,
    euler_zero,
)
from eulerferm.numeric import binomial
from eulerferm.polynomial import Polynomial, monomial
from test_golden import interpolate, judged_suite, pointwise, report_to_dict
from test_padic import _forks_on, _no_child_left, _refuse_fork

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


# --- the interpolation oracle ------------------------------------------------

# every checker of the poly kind, with a case off the desk grid

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
    # the sides, evaluated at degree + 1 points, certify by interpolation
    # what the zero residual certifies: at the case and on the desk grid
    assert interpolate(*fn.__wrapped__(*args)) == (0, True)
    reports = run_suite([fn.__name__.removeprefix("check_")])
    assert reports and all(r.passed and r.mode == "symbolic"
                           for r in reports)
    for r in pointwise(reports):
        assert (r.mode, r.residual, r.passed) == ("pointwise", 0, True)


def test_the_poly_checks_are_every_checker_that_returns_sides():
    polys = {r.checker for r in run_suite()
             if isinstance(r.residual, Polynomial)}
    assert polys == {fn.__name__.removeprefix("check_")
                     for fn, _ in POLY_CHECKS}


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


# --- the routes the checkers took before, kept as oracles -------------------

def _pivot_by_indices(m, n, s, k):
    """thm2's right side coefficient by coefficient, with (-1)**i and
    C(i+k, k) worked out per index, from the uncached shift sums."""
    g1 = ident._shift_sum(m + 1, n + 1, s)
    g2 = ident._shift_sum(n + 1, m + 1, s)
    sign = (-1) ** (m + n)
    return Polynomial.scaled([2 * math.comb(i + k, k)
                              * (g1[i + k] + sign * (-1) ** i * g2[i + k])
                              for i in range(max(0, m + n + 3 - k))])


def test_pivot_equals_its_index_by_index_oracle():
    try:
        for m in range(9):
            for n in range(9):
                for s in range(1, 5):
                    for k in range(m + n + 5):
                        got = ident._pivot_taylor_sum(m, n, s, k)
                        assert got == _pivot_by_indices(m, n, s, k), \
                            (m, n, s, k)
                        # P has degree m + n + 2 in x
                        assert got.is_zero() or k <= m + n + 2
    finally:
        ident._cached_shift_sum.cache_clear()


def _sun_cor_by_fractions(m, n):
    """sun_cor's residual with its left side added one Fraction a term."""
    lhs = sum(ident.binomial(m, i)
              * F(ident.euler_number(n + i), 2 ** (n + i))
              for i in range(m + 1))
    rhs = ident.euler_sum([(ident.binomial(n, j), m + j)
                           for j in range(n + 1)])(F(-1, 2))
    return (-1) ** m * lhs - (-1) ** n * rhs


def _thm2_cro1_by_fractions(n, k):
    """thm2_cro1's residual with the Fraction weights C(n+1,i) C(n+i+1,k)
    / 2**i."""
    ws = [F(ident.binomial(n + 1, i) * ident.binomial(n + i + 1, k), 2 ** i)
          for i in range(n + 2)]
    total = sum((-1) ** i * w for i, w in enumerate(ws))
    if k % 2 == 1:
        return total
    return ident.zero_sum([(w, n + i - k + 1) for i, w in enumerate(ws)]) \
        + (-1) ** n * total


def _faked_binomial(n, k):
    """Zero exactly where C(n, k) is, and wrong everywhere else."""
    return binomial(n, k) * (n + 2 * k + 1)


def _faked_euler_number(n):
    """Nonzero at every n, the odd ones included."""
    return (-1) ** n * (n * n + 3)


@pytest.mark.parametrize("faked", [False, True], ids=["true", "faked"])
def test_integer_scalar_sums_equal_their_fraction_oracles(monkeypatch, faked):
    # both routes are linear in the binomials and the Euler numbers they
    # read, so they must agree on faked ones too, where the residuals are
    # not zero
    if faked:
        monkeypatch.setattr(ident, "binomial", _faked_binomial)
        monkeypatch.setattr(ident, "euler_number", _faked_euler_number)
    residuals = []
    for m in range(13):
        for n in range(13):
            got = ident.check_sun_cor.__wrapped__(m, n)
            assert type(got) is Fraction
            assert got == _sun_cor_by_fractions(m, n), (m, n)
            got_cro1 = ident.check_thm2_cro1.__wrapped__(n, m)
            assert got_cro1 == _thm2_cro1_by_fractions(n, m), (n, m)
            residuals += [got, got_cro1]
    assert any(residuals) == faked


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
        ident.CHECKERS["thm1"].run({"m": 1, "n": 0, "q": 1, "k": -1})
    with pytest.raises(ValueError, match=r"^wsp9 is not stated at m=0, n=0$"):
        ident.CHECKERS["wsp9"].run({"m": 0, "n": 0})
    with pytest.raises(ValueError, match=r"^thm1 is not stated at .* k=-1.0$"):
        ident.check_thm1(1, 0, 1, -1.0)
    with pytest.raises(ValueError, match=r"^cro2 is not stated at n=1.5$"):
        ident.check_cro2(1.5)


@pytest.mark.parametrize("cid", CHECKER_IDS)
def test_the_registered_run_refuses_missing_and_extra_params(cid):
    # a malformed dict is a usage error, never a report
    params = next(iter(ident.CHECKERS[cid].gen(SweepGrid())))
    run = ident.CHECKERS[cid].run
    assert run(params).passed
    *kept, _ = params
    for bad in ({}, {k: params[k] for k in kept}, {**params, "x": 1}):
        with pytest.raises(ValueError, match=f"^{cid} takes params "
                           f"{', '.join(params)}, got "
                           f"{', '.join(bad) or 'none'}$"):
            run(bad)


def test_a_sweep_tests_each_reports_domain_once():
    # a throwaway checker whose ``where`` counts its calls: run_suite asks
    # it once per params that gen yields, and never runs the body outside
    # the domain; a direct call still asks it and refuses
    asked, ran = [], []

    def where(n):
        asked.append(n)
        return n % 2 == 0

    try:
        @ident.checker("_counted", lambda grid: ({"n": n} for n in grid.n),
                       "scalar", where=where)
        def check_counted(n: int):
            ran.append(n)
            return 0

        reports = run_suite(["_counted"], SweepGrid(n=tuple(range(7))))
        assert asked == [0, 1, 2, 3, 4, 5, 6]
        assert ran == [0, 2, 4, 6]
        assert [r.params for r in reports] == [{"n": n} for n in ran]
        assert all(r.passed for r in reports)
        with pytest.raises(ValueError, match=r"^_counted is not stated at n=1$"):
            check_counted(1)
        assert asked[7:] == [1] and ran == [0, 2, 4, 6]
    finally:
        del ident.CHECKERS["_counted"]


@pytest.mark.parametrize("cid", CHECKER_IDS)
def test_every_gen_yields_its_bodys_parameter_names(cid):
    # a sweep does not test the keys again, so gen must name them right
    names = list(inspect.signature(getattr(ident, f"check_{cid}")).parameters)
    swept = list(ident.CHECKERS[cid].gen(SweepGrid()))
    assert swept
    assert all(list(params) == names for params in swept)


# the desk grid, the benchmark's catalog grid at fixed points, and a grid of
# edges: index 0, 1 and one past the others, and a point that is not
# 3-integral
_SWEEP_GRIDS = {
    "desk": SweepGrid(),
    "catalog": SweepGrid(m=range(9), n=range(9),
                         points=(0, 1, F(-1, 4), F(1, 2), F(3, 4))),
    "edge": SweepGrid(m=(0, 1, 9), n=(0, 1, 9), q=(0, 1, 2), k=(0, 1, 2),
                      s=(0, 1, 2), points=(0, 1, F(1, 3)), p_list=(3, 5, 7)),
}


@pytest.mark.parametrize("cid", CHECKER_IDS)
def test_a_where_only_sweep_yields_only_stated_params(cid):
    # a sweep tests ``where`` alone; on a checked grid every params it
    # yields must also pass the entry checks of a direct run, which tests
    # the natural-number and type rules as well
    entry = ident.CHECKERS[cid]
    for name, grid in _SWEEP_GRIDS.items():
        swept = list(entry.gen(grid))
        assert swept, name
        for params in swept:
            assert entry.run(params).passed, (name, params)


def test_run_suite_refuses_a_grid_that_is_not_a_sweep_grid(monkeypatch):
    # a plain named tuple with SweepGrid's fields is not checked, so it
    # could hold -1; it is refused before any sweep or report runs
    calls = []
    for cid in list(ident.CHECKERS):
        monkeypatch.setitem(ident.CHECKERS, cid, ident.Checker(
            lambda *args: calls.append(args),
            lambda grid: calls.append(grid) or iter(())))
    plain = namedtuple("Plain", SweepGrid._fields)(*SweepGrid())
    for grid in (plain, plain._replace(m=(-1, 2))):
        for ids in (None, ["wsp7"]):
            with pytest.raises(TypeError, match="^grid must be a SweepGrid, "
                                                "got Plain$"):
                run_suite(ids, grid)
    assert calls == []
    run_suite(["wsp7"], SweepGrid())
    assert calls


# each kind's false twin: the true result with one thing wrong
_FALSE_TWINS = {
    "poly": lambda lhs, rhs, *lemmas: (
        lhs + monomial(max(lhs.degree or 0, rhs.degree or 0) + 1),
        rhs, *lemmas),
    "scalar": lambda residual: residual + 1,
    "valuation": lambda defect: defect - 1,
}


@pytest.mark.parametrize("judge", ["symbolic", "pointwise"])
@pytest.mark.parametrize("cid", CHECKER_IDS)
def test_a_false_twin_fails_through_the_sweep(monkeypatch, cid, judge):
    # every checker's body is swapped for one whose result is perturbed, so
    # each branch of the judging step, and the interpolation oracle, must
    # turn it into FAIL
    true = judged_suite([cid], judge=judge)
    first = run_suite([cid])[0]
    kind = ("valuation" if first.mode == "valuation" else
            "poly" if isinstance(first.residual, Polynomial) else "scalar")
    body = getattr(ident, f"check_{cid}").__wrapped__
    twin = _FALSE_TWINS[kind]

    def false_twin(**params):
        result = body(**params)
        return twin(*result) if kind == "poly" else twin(result)

    # the twin names no parameters of its own, so only a sweep, which takes
    # gen's keys as they come, can run it
    false_twin.__annotations__ = body.__annotations__
    monkeypatch.setitem(ident.CHECKERS, cid, ident.CHECKERS[cid])
    ident.checker(cid, ident.CHECKERS[cid].gen, kind,
                  report_params=ident._lem1_params if cid == "lem1" else None
                  )(false_twin)
    false = run_suite([cid])
    if judge == "pointwise":
        false = pointwise(false, false_twin)
    assert [r.params for r in false] == [r.params for r in true]
    assert all(r.passed for r in true)
    if kind == "valuation":
        # a defect above N still clears N after the twin's -1; the desk
        # grid holds defects of exactly N for every prime
        assert [r.passed for r in false] == [
            r.residual - 1 >= r.params["precision"] for r in true]
        assert not all(r.passed for r in false)
    else:
        assert not any(r.passed for r in false)
        assert not any(isinstance(r.residual, str) for r in false)


def test_sweep_grid_stores_any_iterable_of_ints_as_a_tuple():
    tuples = SweepGrid(m=(0, 1, 2), n=(3,), q=(1,), k=(0, 2), s=(1,),
                       points=(F(0), F(1, 2)), p_list=(3, 7))
    axis = [0, 1, 2]
    from_lists = SweepGrid(m=axis, n=[3], q=[1], k=[0, 2], s=[1],
                           points=[0, F(1, 2)], p_list=[3, 7])
    for grid in (
            from_lists,
            SweepGrid(m=range(3), n=range(3, 4), q=range(1, 2),
                      k=range(0, 3, 2), s=range(1, 2),
                      points=(F(i, 2) for i in range(2)),
                      p_list=range(3, 8, 4)),
            tuples._replace(m=iter(axis))):
        assert grid == tuples
        assert all(type(v) is tuple for v in grid[:-1])
    # the grid keeps no reference to a list it was built from
    axis.append(-1)
    assert from_lists == tuples
    for bad in (3, None):
        with pytest.raises(ValueError, match="^every grid field but precision "
                                             "must be iterable$"):
            SweepGrid(m=bad)
        with pytest.raises(ValueError, match="^every grid field but precision "
                                             "must be iterable$"):
            SweepGrid(points=bad)
    with pytest.raises(ValueError, match="^ranges must be non-negative$"):
        SweepGrid(m=[-1])
    with pytest.raises(ValueError, match="^every grid field but points must "
                                         "hold integers$"):
        SweepGrid(p_list="3")


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
                          ("precision", 2.0)):
        with pytest.raises(ValueError, match="^every grid field but points "
                                             "must hold integers$"):
            SweepGrid(**{field: values})


def test_identity_report_is_an_immutable_record():
    report = IdentityReport("wsp7", {"m": 1, "n": 0}, "symbolic",
                            Polynomial([F(1, 2)]), False)
    assert report.elapsed_ms == 0.0
    assert report == IdentityReport(
        checker="wsp7", params={"m": 1, "n": 0}, mode="symbolic",
        residual=Polynomial([F(1, 2)]), passed=False, elapsed_ms=0.0)
    assert IdentityReport._fields == ("checker", "params", "mode",
                                      "residual", "passed", "elapsed_ms")
    with pytest.raises(AttributeError):
        report.passed = True
    with pytest.raises(AttributeError):
        report.note = "extra"
    for clone in (pickle.loads(pickle.dumps(report)), copy.copy(report),
                  copy.deepcopy(report)):
        assert type(clone) is IdentityReport and clone == report


def test_sweep_grid_is_an_immutable_record_checked_on_every_build():
    desk = SweepGrid()
    points = (F(0), F(1), F(1, 2), F(-1), F(-2, 3))
    assert desk == SweepGrid(tuple(range(7)), tuple(range(7)), (1, 2, 3),
                             (1, 2, 3), (1, 2, 3), points, (3, 5, 7), 2)
    assert SweepGrid._fields == ("m", "n", "q", "k", "s", "points",
                                 "p_list", "precision")
    grid = SweepGrid(m=(1,), points=(0, 2), precision=3)
    assert grid == SweepGrid((1,), desk.n, desk.q, desk.k, desk.s,
                             (F(0), F(2)), desk.p_list, 3)
    assert all(type(a) is Fraction for a in grid.points)
    with pytest.raises(AttributeError):
        grid.m = (2,)
    with pytest.raises(AttributeError):
        grid.extra = 1
    for clone in (pickle.loads(pickle.dumps(grid)), copy.copy(grid),
                  copy.deepcopy(grid)):
        assert type(clone) is SweepGrid and clone == grid
    # _replace builds through the same checks, and turns points to Fractions
    assert desk._replace(points=(1,)).points == (F(1),)
    with pytest.raises(ValueError, match="^precision must be >= 1, got 0$"):
        SweepGrid()._replace(precision=0)
    with pytest.raises(ValueError, match="^ranges must be non-negative$"):
        SweepGrid._make([(-1,), *desk[1:]])


def test_sweep_grid_rejects_degrees_above_max():
    assert SweepGrid(m=(MAX_DEGREE,), n=(0, MAX_DEGREE)).n == (0, 1000)
    for axis in ("m", "n"):
        with pytest.raises(ValueError,
                           match=f"^{axis} must be <= 1000, got 1001$"):
            SweepGrid(**{axis: (0, MAX_DEGREE + 1)})


class _CrashingCache(EulerCache):
    """euler_number(0), which sun_cor reads, raises; nothing else does."""

    def euler_number(self, n):
        if n == 0:
            raise ZeroDivisionError("euler_number(0) injected")
        return super().euler_number(n)


def test_a_crashing_checker_fails_its_report_and_the_run_goes_on(
        monkeypatch):
    monkeypatch.setattr(euler, "_CACHE", _CrashingCache())
    reports = run_suite()
    assert {r.checker for r in reports} == set(CHECKER_IDS)
    sun_cor = [r for r in reports if r.checker == "sun_cor"]
    crashed = [r for r in sun_cor if isinstance(r.residual, str)]
    assert crashed and not any(r.passed for r in crashed)
    assert crashed[0].residual == \
        "ZeroDivisionError: euler_number(0) injected"
    assert report_to_dict(crashed[0])["residual"] == crashed[0].residual


def test_equal_sides_pass_with_an_empty_residual():
    # fersim3's left side is summed from dyadic E_n, whose denominators are
    # powers of two (above 1 for odd n), and its right side from integer
    # rows; both reduce to the same integer numerators over den 1, so equal
    # sides are the zero residual without a subtraction
    for n, q in [(0, 1), (4, 3), (7, 2)]:
        lhs, rhs = ident.check_fersim3.__wrapped__(n, q)
        dens = [euler_poly(n).den, euler_poly_shifted(n, 1, q).den]
        assert all(d & (d - 1) == 0 and (d > 1) == (n % 2) for d in dens)
        assert lhs.den == rhs.den == 1
        assert lhs.nums == rhs.nums
        assert all(type(c) is int for c in lhs.nums + rhs.nums)
        report = ident.check_fersim3(n, q)
        assert report.passed and report.residual.is_zero()
        assert report_to_dict(report)["residual"] == []


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
                       points=(F(0), F(1, 2)), p_list=(3, 5), precision=2)


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
    assert ident.check_gf_consistency(120).passed
    assert pointwise([ident.check_gf_consistency(120)])[0].passed


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
    for judge in ("symbolic", "pointwise"):
        reports = judged_suite(["gf_consistency"], judge=judge)
        assert [r.params["n"] for r in reports if not r.passed] == [5]


def test_run_suite_subset_and_unknown():
    reports = run_suite(ids=["reflection"], grid=SMALL_GRID)
    assert {r.checker for r in reports} == {"reflection"}
    assert len(reports) == 3
    with pytest.raises(ValueError):
        run_suite(ids=["nosuch"], grid=SMALL_GRID)


def test_each_report_names_its_checkers_certificate():
    # valuation for the two p-adic checkers, symbolic for the other 26, in
    # a sweep and in a direct call
    reports = run_suite()
    assert {(r.checker, r.mode) for r in reports} == {
        (cid, "valuation" if cid in ("witt", "lem1") else "symbolic")
        for cid in CHECKER_IDS}
    assert all(r.passed for r in reports)
    assert ident.check_wsp7(1, 0).mode == "symbolic"
    assert ident.check_witt(0, F(1, 2), 3, 2).mode == "valuation"


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


_TYPED_CASES = [
    *((cid, {**base, "a": a})
      for cid, base in (("sun", {"m": 1, "n": 0}),
                        ("witt", {"n": 1, "p": 3, "precision": 2}))
      for a in (0.5, "1/2", True)),
    *(("lem1", {"f": f, "p": 3, "precision": 2, "index": None})
      for f in ("abc", F(1), [F(1)])),
]


@pytest.mark.parametrize("via", ["run", "check"])
@pytest.mark.parametrize("cid, params", _TYPED_CASES,
                         ids=[f"{c}-{p.get('a', p.get('f'))!r}"
                              for c, p in _TYPED_CASES])
def test_a_typed_param_refuses_other_types(cid, params, via):
    # a param annotated Fraction or Polynomial must hold one; only a direct
    # call's int shift is converted, never a bool, float or str
    with pytest.raises(ValueError, match=f"^{cid} is not stated at "):
        if via == "run":
            ident.CHECKERS[cid].run(params)
        else:
            getattr(ident, f"check_{cid}")(**params)


def test_lem1_reports_the_polynomial_by_its_coefficients():
    r = ident.check_lem1(Polynomial([F(5), F(0), F(1, 2)]), 3, 2)
    assert r.passed
    assert r.params == {"p": 3, "precision": 2, "poly": ["5", "0", "1/2"]}
    r = ident.check_lem1(Polynomial([F(5)]), 3, 2, index=4)
    assert r.params == {"p": 3, "precision": 2, "poly": ["5"], "index": 4}


# --- sweeps on forked children --------------------------------------------------

# above the cut: the desk grid's 1,731 reports and m, n 0..14's 8,335
FORK_GRIDS = {"desk": SweepGrid(),
              "m,n 0..14": SweepGrid(m=range(15), n=range(15))}


def _untimed(reports) -> list:
    return [r._replace(elapsed_ms=0.0) for r in reports]


def _serial(ids, grid) -> list:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0},
                      raising=False)
        patch.setattr(os, "fork", _refuse_fork)
        return _untimed(run_suite(ids, grid))


def _kept(reports) -> bytes:
    """A ``render`` that ``marshal`` carries back from a forked child: the
    sweep's reports, untimed and pickled."""
    return pickle.dumps(_untimed(reports))


def _shared(ids, grid) -> list:
    """The untimed reports of ``run_suite(ids, grid, _kept)``, whose sweeps
    are shared with forked children where the CPUs and the cut allow."""
    return [r for data in run_suite(ids, grid, _kept)
            for r in pickle.loads(data)]


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("grid", FORK_GRIDS, ids=list(FORK_GRIDS))
def test_forked_sweeps_equal_the_serial_run(monkeypatch, cpus, grid):
    grid = FORK_GRIDS[grid]
    want = _serial(None, grid)
    forks = _forks_on(monkeypatch, cpus)
    # without a render, every sweep runs in this process
    assert _untimed(run_suite(None, grid)) == want
    assert forks == []
    assert _shared(None, grid) == want
    _no_child_left()
    assert len(forks) == cpus - 1
    # a subset, with the ids given out of order and twice
    ids = ["thm2", "sun", "wsp7", "lem1", "sun", "thm1", "cro2"]
    want = _serial(ids, grid)
    assert len(want) >= ident._SWEEP_CUT
    assert _shared(ids, grid) == want
    _no_child_left()
    assert len(forks) == 2 * (cpus - 1)


def test_sweeps_are_handed_out_most_reports_first(monkeypatch):
    # each process claims the next sweep by reading its index off one pipe
    claimed, sweep = [], ident._sweep

    def noted(cid, todo):
        claimed.append((cid, len(todo)))
        return sweep(cid, todo)

    def no_fork():
        raise OSError(errno.EAGAIN, "injected")

    forks = _forks_on(monkeypatch, 2)
    monkeypatch.setattr(ident, "_sweep", noted)
    reports = _shared(None, SweepGrid())
    _no_child_left()
    assert len(forks) == 1
    # the caller's claims, between which the child takes its own
    counts = [n for _, n in claimed]
    assert claimed and counts == sorted(counts, reverse=True)
    # with no child forked, the caller claims every sweep, in that order
    claimed.clear()
    monkeypatch.setattr(os, "fork", no_fork)
    assert _shared(None, SweepGrid()) == reports
    # ties keep the canonical order
    sizes = {cid: sum(r.checker == cid for r in reports)
             for cid in sorted(CHECKER_IDS)}
    assert claimed == sorted(sizes.items(), key=lambda kv: -kv[1])
    assert claimed[0] == ("thm2", 432)


@pytest.mark.parametrize("fault", ["raises", "writes nothing", "is killed",
                                   "exits 3", "raises ValueError",
                                   "cannot fork", "no pipe"])
def test_a_failed_child_costs_time_not_reports(monkeypatch, fault):
    want = _serial(None, SweepGrid())
    forks = _forks_on(monkeypatch, 3)
    caller, sweep = os.getpid(), ident._sweep

    def failing(*args):
        if os.getpid() != caller:   # in a child, before it writes
            if fault == "raises":
                raise ZeroDivisionError("injected")
            if fault == "raises ValueError":
                raise ValueError("injected")
            if fault == "writes nothing":
                os._exit(0)
            if fault == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        return sweep(*args)

    def no_fork():
        forks.append(None)
        raise OSError(errno.EAGAIN, "injected")

    def no_pipe():
        raise OSError(errno.EMFILE, "injected")

    if fault == "cannot fork":
        monkeypatch.setattr(os, "fork", no_fork)
    elif fault == "no pipe":
        monkeypatch.setattr(os, "pipe", no_pipe)
    else:
        monkeypatch.setattr(ident, "_sweep", failing)
    assert _shared(None, SweepGrid()) == want
    _no_child_left()
    assert len(forks) == (0 if fault == "no pipe" else 2)


def test_the_first_value_error_in_canonical_order_is_raised(monkeypatch):
    # sun and thm2 raise wherever they run: the caller claims thm2, the
    # most reports, first, but sun comes first in canonical order, and a
    # serial run raises its error
    sweep = ident._sweep

    def refusing(cid, todo):
        if cid in ("thm2", "sun"):
            raise ValueError(f"{cid} refused")
        return sweep(cid, todo)

    monkeypatch.setattr(ident, "_sweep", refusing)
    for cpus in (1, 2, 3):
        forks = _forks_on(monkeypatch, cpus)
        with pytest.raises(ValueError, match="^sun refused$"):
            run_suite(None, SweepGrid(), _kept)
        _no_child_left()
        assert len(forks) == cpus - 1


def test_an_interrupted_caller_kills_and_reaps_its_children(monkeypatch):
    forks = _forks_on(monkeypatch, 3)
    caller = os.getpid()

    def interrupted(*args):
        if os.getpid() != caller:
            time.sleep(60)   # a child still running when the caller stops
        raise KeyboardInterrupt

    monkeypatch.setattr(ident, "_sweep", interrupted)
    fds = "/proc/self/fd"
    open_before = os.listdir(fds) if os.path.isdir(fds) else None
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite(None, SweepGrid(), _kept)
    assert time.monotonic() - started < 30   # killed, not waited for
    assert len(forks) == 2
    _no_child_left()
    if open_before is not None:
        assert os.listdir(fds) == open_before


@pytest.mark.parametrize("case", ["a second thread",
                                  "a thread the threading module misses",
                                  "one CPU", "no sched_getaffinity",
                                  "one checker", "a grid below the cut"])
def test_run_suite_does_not_fork_with(monkeypatch, case):
    grid, ids = SweepGrid(), None
    want = _serial(ids, grid)
    _forks_on(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    blocker = _thread.allocate_lock()
    threads_before = _thread._count()
    if case == "a second thread":
        thread.start()
    elif case == "a thread the threading module misses":
        # started as a C extension would start one: os.fork on Python 3.12
        # counts it, by the kernel's count, and warns
        blocker.acquire()
        _thread.start_new_thread(blocker.acquire, ())
        assert threading.active_count() == 1
    elif case == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif case == "no sched_getaffinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif case == "one checker":
        # thm2 alone at m, n 0..14: 4,200 reports
        grid, ids = FORK_GRIDS["m,n 0..14"], ["thm2"]
        want = _serial(ids, grid)
        assert len(want) >= ident._SWEEP_CUT
    else:
        grid = SweepGrid(m=range(3), n=range(3))
        want = _serial(ids, grid)
        assert len(want) < ident._SWEEP_CUT <= len(_serial(None, SweepGrid()))
    try:
        assert _shared(ids, grid) == want
    finally:
        release.set()
        if case == "a second thread":
            thread.join(10)
            assert not thread.is_alive()
        if blocker.locked():
            blocker.release()   # the thread takes it and ends
            deadline = time.monotonic() + 10
            # the thread module's count drops before the kernel's, which
            # the next case's cpus() reads
            while (_thread._count() > threads_before
                   or not workers._one_thread()):
                assert time.monotonic() < deadline
                time.sleep(0.001)
    _no_child_left()


def test_the_cut_leaves_the_small_benchmark_commands_serial(monkeypatch):
    # highdeg's verify at n 40..60 (189 reports, most of their time in
    # fersim3) and padic's verify witt lem1 (141 reports) lose time to a
    # fork, so on two CPUs they still run in one process
    _forks_on(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    highdeg = _shared(["reflection", "complement", "fersim", "fersim3",
                       "boundary", "recurrence_odd", "cro2"],
                      SweepGrid(n=range(40, 61)))
    padic = _shared(["witt", "lem1"],
                    SweepGrid(n=range(9), p_list=(3, 5, 7), precision=5))
    assert (len(highdeg), len(padic)) == (189, 141)
    assert all(r.passed for r in highdeg + padic)
