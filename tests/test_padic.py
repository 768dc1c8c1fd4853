"""p-adic arithmetic and fermionic-sum tests.

Frozen sums were computed by hand as short alternating series; the
naive/closed equivalence is the oracle pairing: a p**N-term exact sweep
against the two-term Euler-polynomial closed form. The moments
mu_k = S_N(x**k) are checked against the per-level digit fold that they
replaced, the literal alternating sums and the closed form, and one step of
their rows against the p - 1 unit Taylor shifts, each a double loop. The
naive sum cut into runs for forked workers is checked against the one-run
kernel, the Horner loop and the closed form, also when a worker fails or
the caller is interrupted, and no call leaves a child behind.
"""

import errno
import math
import os
import random
import _thread
import signal
import threading
import time
from fractions import Fraction

import pytest

from eulerferm import padic
from eulerferm.euler import alt_power_sum, euler_poly
from eulerferm.identities import SweepGrid, run_suite
from eulerferm.padic import (
    BudgetExceeded,
    DenominatorNotInvertible,
    fermionic_sum_closed,
    fermionic_sum_digits,
    fermionic_sum_naive,
    fermionic_sum_naive_mod,
    is_odd_prime,
    lem1_defect,
    valuation,
    witt_defect,
    witt_sum_naive,
)
from eulerferm.polynomial import Polynomial, monomial

F = Fraction


def test_is_odd_prime():
    assert [p for p in range(30) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17,
                                                         19, 23, 29]


def test_valuation():
    assert valuation(F(9, 2), 3) == 2
    assert valuation(0, 5) == math.inf
    assert valuation(F(5, 27), 3) == -3
    assert valuation(F(50), 5) == 2
    with pytest.raises(ValueError):
        valuation(F(1), 2)
    with pytest.raises(ValueError):
        valuation(F(1), 9)


def test_from_rational():
    # a constant c summed over an odd number of terms is c, so the mod path
    # returns the residue of c mod p**N
    def residue(r, p, precision):
        return fermionic_sum_naive_mod(Polynomial([r]), p, precision)

    assert residue(F(1, 2), 3, 2) == 5  # 2*5 = 10 = 1 mod 9
    assert residue(F(0), 7, 3) == 0
    assert residue(F(-1), 3, 2) == 8
    with pytest.raises(DenominatorNotInvertible):
        residue(F(1, 3), 3, 2)
    with pytest.raises(ValueError):
        residue(F(1, 2), 2, 2)
    with pytest.raises(ValueError):
        residue(F(1, 2), 15, 2)
    with pytest.raises(ValueError):
        residue(F(1, 2), 5, 0)


def test_naive_sums_frozen():
    assert fermionic_sum_naive(lambda x: x, 3, 2) == 4
    assert fermionic_sum_naive(lambda x: x * x, 3, 1) == 3
    for p, n in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        assert fermionic_sum_naive(lambda x: 1, p, n) == 1


def test_naive_budget_guard():
    with pytest.raises(BudgetExceeded):
        fermionic_sum_naive(lambda x: x, 3, 15)
    with pytest.raises(BudgetExceeded):
        fermionic_sum_naive(lambda x: x, 3, 2, budget=5)
    with pytest.raises(ValueError):
        fermionic_sum_naive(lambda x: x, 4, 2)


def test_budget_overrun_builds_p_to_the_n_only_up_to_the_budget_bits():
    # 100 has 7 bits: up to N = 7, p**N is built and named; beyond, 3**N
    # >= 2**N > 100 without building it
    assert fermionic_sum_naive(lambda x: x, 3, 4, budget=100) == 40
    with pytest.raises(BudgetExceeded, match=r"^p\*\*N = 2187 exceeds"):
        fermionic_sum_naive(lambda x: x, 3, 7, budget=100)
    with pytest.raises(BudgetExceeded, match=r"^p\*\*N = 3\*\*8 exceeds"):
        fermionic_sum_naive(lambda x: x, 3, 8, budget=100)
    with pytest.raises(BudgetExceeded,
                       match=r"^p\*\*N = 3\*\*1000000000 exceeds budget "
                             r"10000000$"):
        fermionic_sum_naive(lambda x: x, 3, 10 ** 9, budget=10 ** 7)
    with pytest.raises(BudgetExceeded, match=r"^p\*\*N = 7\*\*25 exceeds"):
        fermionic_sum_naive(lambda x: x, 7, 25)


def test_closed_sum_examples():
    assert fermionic_sum_closed(1, 0, 9) == 4
    for n in range(5):
        for a in (F(0), F(1, 2), F(-2, 3)):
            assert fermionic_sum_closed(n, a, 1) == a ** n
    for q in range(1, 8):
        assert fermionic_sum_closed(0, F(3, 7), q) == (1 if q % 2 else 0)


def test_closed_equals_direct_alternating_sum():
    # the telescoped functional equation, checked value-by-value for all
    # truncation lengths q, not only prime powers
    for n in range(6):
        for a in (F(0), F(1), F(1, 2), F(-2, 3)):
            direct = F(0)
            for q in range(1, 31):
                direct += (-1) ** (q - 1) * (a + q - 1) ** n
                assert fermionic_sum_closed(n, a, q) == direct, (n, a, q)


def test_naive_equals_closed_on_prime_powers():
    for p in (3, 5):
        for precision in (1, 2):
            span = p ** precision
            for n in range(5):
                for a in (F(0), F(1), F(1, 2)):
                    naive = fermionic_sum_naive(
                        lambda x, a=a, n=n: (x + a) ** n, p, precision)
                    assert naive == fermionic_sum_closed(n, a, span)


def test_witt_sum_naive_equals_both_oracles():
    # the integer-power sum of witt --naive against the Horner loop of
    # fermionic_sum_naive and the telescoped closed form
    for p in (3, 5, 7):
        shifts = [F(0), F(1), F(-1), F(1, 2), F(-9, 2), F(7, 4)]
        if p != 3:
            shifts.append(F(-2, 3))
        for precision in (1, 2, 3):
            for n in range(9):
                for a in shifts:
                    got = witt_sum_naive(n, a, p, precision)
                    want = fermionic_sum_naive(monomial(n).compose_affine(1, a),
                                               p, precision)
                    assert got == want, (p, precision, n, a)
                    assert got == fermionic_sum_closed(n, a, p ** precision)


def test_witt_sum_naive_edges():
    # 0**0 = 1: all p**N terms of n = 0 are +-1, and they sum to 1
    for p, precision in [(3, 1), (3, 2), (5, 2)]:
        assert witt_sum_naive(0, 0, p, precision) == 1
    messages = []
    for naive in (lambda: witt_sum_naive(1, 0, 3, 2, budget=8),
                  lambda: fermionic_sum_naive(monomial(1), 3, 2, budget=8)):
        with pytest.raises(BudgetExceeded) as caught:
            naive()
        messages.append(str(caught.value))
    assert messages == ["p**N = 9 exceeds budget 8"] * 2
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        witt_sum_naive(-1, 0, 3, 2)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks_on(monkeypatch, cpus: int) -> list:
    """Let the process see ``cpus`` CPUs; the returned list gains an entry
    per fork."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _split_on(monkeypatch, cpus: int, split_min: int = 1) -> list:
    """Let ``witt_sum_naive`` see ``cpus`` CPUs and split runs of
    ``split_min`` units of work; the returned list gains an entry per
    fork."""
    monkeypatch.setattr(padic, "_SPLIT_MIN_WORK", split_min)
    return _forks_on(monkeypatch, cpus)


_SPLIT_SHIFTS = (F(0), F(1), F(-1), F(1, 2), F(-9, 2), F(7, 4))


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_split_naive_sum_equals_one_run_and_both_oracles(monkeypatch, cpus):
    # the one-run kernel, the Horner loop of fermionic_sum_naive and the
    # closed form, against the sum cut into one run per CPU
    # a run takes 600 units of work, so the small sums take one run and
    # the large ones a run per CPU
    forks = _split_on(monkeypatch, cpus, 600)
    want_forks, counts = 0, set()
    for p, precision in [(3, 2), (3, 3), (5, 2)]:   # 9, 27 and 25 terms
        span = p ** precision
        for n in (0, 1, 2, 7):
            for a in _SPLIT_SHIFTS:
                r, t = a.numerator, a.denominator
                work = span * (64 + n * (abs(r) + t * span).bit_length())
                workers = padic._worker_count(n, r, t, span)
                assert workers == max(1, min(cpus, work // 600))
                counts.add(workers)
                got = witt_sum_naive(n, a, p, precision)
                _no_child_left()
                want_forks += workers - 1
                assert got == F(padic._alternating_chunk(n, r, t, 0, span),
                                t ** n), (p, precision, n, a)
                assert got == fermionic_sum_naive(
                    monomial(n).compose_affine(1, a), p, precision)
                assert got == fermionic_sum_closed(n, a, span)
    assert len(forks) == want_forks > 0
    assert counts == {1, 2, cpus}


def test_the_split_reads_the_work_not_the_term_count(monkeypatch):
    # on two CPUs, an n = 8 sum of the padic benchmark (79,507 terms)
    # splits; n = 0 sums of 66,049 and 117,649 terms, too cheap a term to
    # pay for a fork, do not; 177,147 terms at n = 0 do
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    assert padic._worker_count(8, 9, 2, 43 ** 3) == 2
    assert padic._worker_count(6, 7, 2, 5 ** 7) == 2
    assert padic._worker_count(0, 0, 1, 257 ** 2) == 1
    assert padic._worker_count(0, 0, 1, 7 ** 6) == 1
    assert padic._worker_count(2, 1, 2, 5 ** 7) == 1
    assert padic._worker_count(0, 1, 2, 3 ** 11) == 2


@pytest.mark.parametrize("workers", [2, 3])
def test_split_runs_cover_odd_and_even_spans(workers):
    # every run but the last starts and ends on an even x, so each keeps
    # the sign of (-1)**x; spans of either parity, down to fewer terms than
    # workers, equal the literal alternating sum
    for span in (1, 2, 5, 8, 9, 10, 11, 64, 65):
        for n in (0, 1, 3):
            for a in _SPLIT_SHIFTS:
                r, t = a.numerator, a.denominator
                want = sum((-1) ** x * (t * x + r) ** n for x in range(span))
                assert padic._split_sum(n, r, t, span, workers) == want
                assert padic._alternating_chunk(n, r, t, 0, span) == want
                _no_child_left()


@pytest.mark.parametrize("fault", ["raises", "writes nothing", "is killed",
                                   "exits 3", "dies mid-write",
                                   "cannot fork"])
def test_a_failed_worker_costs_time_not_the_sum(monkeypatch, fault):
    forks = _split_on(monkeypatch, 3)
    caller, chunk, write = os.getpid(), padic._alternating_chunk, os.write

    def failing(*args):
        if os.getpid() != caller:   # in a worker, before it writes
            if fault == "raises":
                raise ZeroDivisionError("injected")
            if fault == "writes nothing":
                os._exit(0)
            if fault == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            os._exit(3)
        return chunk(*args)

    def write_one_byte_and_die(fd, data):
        if os.getpid() != caller:
            write(fd, bytes(data[:1]))
            os._exit(1)
        return write(fd, data)

    def no_fork():
        forks.append(None)
        raise OSError(errno.EAGAIN, "injected")

    if fault == "dies mid-write":
        monkeypatch.setattr(os, "write", write_one_byte_and_die)
    elif fault == "cannot fork":
        monkeypatch.setattr(os, "fork", no_fork)
    else:
        monkeypatch.setattr(padic, "_alternating_chunk", failing)
    for n, a in [(5, F(-9, 2)), (0, F(0)), (8, F(1, 2))]:
        assert witt_sum_naive(n, a, 3, 4) == fermionic_sum_closed(n, a, 81)
        _no_child_left()
    assert len(forks) == 3 * 2


def test_an_interrupted_caller_kills_and_reaps_its_workers(monkeypatch):
    forks = _split_on(monkeypatch, 3)
    caller = os.getpid()

    def interrupted(*args):
        if os.getpid() != caller:
            time.sleep(60)   # a worker still running when the caller stops
        raise KeyboardInterrupt

    monkeypatch.setattr(padic, "_alternating_chunk", interrupted)
    fds = "/proc/self/fd"
    open_before = os.listdir(fds) if os.path.isdir(fds) else None
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        witt_sum_naive(3, F(1, 2), 3, 4)
    assert time.monotonic() - started < 30   # killed, not waited for
    assert len(forks) == 2
    _no_child_left()
    if open_before is not None:
        assert os.listdir(fds) == open_before


def _refuse_fork():
    raise AssertionError("os.fork was called")


@pytest.mark.parametrize("case", ["a second thread",
                                  "a thread the threading module misses",
                                  "one CPU", "no sched_getaffinity",
                                  "too little work"])
def test_witt_sum_naive_does_not_fork_with(monkeypatch, case):
    _split_on(monkeypatch, 4)
    sums = [(5, F(-9, 2)), (0, F(0)), (8, F(1, 2))]
    for n, a in sums:   # four runs each, which the case brings down to one
        assert padic._worker_count(n, a.numerator, a.denominator, 81) == 4
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
    else:
        # the largest sum, n = 8 at a = 1/2, is 81 * (64 + 8 * 8) units,
        # under two runs of this
        monkeypatch.setattr(padic, "_SPLIT_MIN_WORK", 81 * 64 + 1)
    try:
        for n, a in sums:
            assert padic._worker_count(n, a.numerator, a.denominator, 81) == 1
            assert witt_sum_naive(n, a, 3, 4) == fermionic_sum_closed(n, a, 81)
    finally:
        release.set()
        if case == "a second thread":
            thread.join(10)
            assert not thread.is_alive()
        if blocker.locked():
            blocker.release()   # the thread takes it and ends
            deadline = time.monotonic() + 10
            while _thread._count() > threads_before:
                assert time.monotonic() < deadline
                time.sleep(0.001)
    _no_child_left()


def test_witt_defect_examples():
    assert witt_defect(1, 0, 3, 2) == 2
    assert witt_defect(0, F(1, 2), 3, 1) == math.inf
    assert witt_defect(0, F(7, 5), 3, 4) == math.inf
    assert witt_defect(5, F(1, 2), 3, 3) >= 3


def test_witt_defect_meets_precision():
    for p in (3, 5, 7):
        for n in range(9):
            for a in (F(0), F(1), F(1, 2), F(-2, 3)):
                if a.denominator % p == 0:
                    with pytest.raises(DenominatorNotInvertible):
                        witt_defect(n, a, p, 2)
                    continue
                for precision in (1, 2, 3):
                    assert witt_defect(n, a, p, precision) >= precision


# --- sharpness: the certificates' bound N is attained ---------------------

_SHARP_CASES = [(p, N) for p in (3, 5, 7) for N in (2, 3, 4)]


def _witt_defects_at_n_one():
    """witt's defect at n = 1, a = 0, where S_N - E_1(0) = p**N / 2."""
    return {(p, N): witt_defect(1, 0, p, N) for p, N in _SHARP_CASES}


def _desk_minima(precision):
    """The least defect of witt and lem1 for each prime of the desk grid,
    at precision N."""
    least = {}
    for r in run_suite(["witt", "lem1"], SweepGrid(precision=precision)):
        key = r.checker, r.params["p"]
        least[key] = min(least.get(key, math.inf), r.residual)
    return least


def test_witt_defect_is_sharp_at_n_one():
    for p, N in _SHARP_CASES:
        assert fermionic_sum_digits(monomial(1), p, N) - euler_poly(1)(0) \
            == F(p ** N, 2)
    assert _witt_defects_at_n_one() == {(p, N): N for p, N in _SHARP_CASES}


# the desk grid's precision, and two above it
_DESK_PRECISIONS = (2, 3, 4)


def test_desk_grid_defects_are_sharp():
    for N in _DESK_PRECISIONS:
        assert _desk_minima(N) == {(cid, p): N for cid in ("witt", "lem1")
                                   for p in (3, 5, 7)}


def test_a_valuation_one_too_large_fails_the_sharpness_tests(monkeypatch):
    true_witt = _witt_defects_at_n_one()
    true_minima = {N: _desk_minima(N) for N in _DESK_PRECISIONS}
    valuation = padic.valuation
    monkeypatch.setattr(padic, "valuation", lambda r, p: valuation(r, p) + 1)
    assert all(_witt_defects_at_n_one()[case] == true_witt[case] + 1
               for case in _SHARP_CASES)
    for N in _DESK_PRECISIONS:
        assert all(v == true_minima[N][key] + 1
                   for key, v in _desk_minima(N).items())


def _valuation_by_units(n, p):
    """v_p(n) for n != 0 by one division per unit of valuation: the oracle
    of the squaring route."""
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_valuation_by_squaring_equals_the_unit_loop():
    rng = random.Random(2106)
    # both sides of every power-of-two step of the climb, then at random
    cases = [(p, v) for p in (3, 13) for j in range(12)
             for v in (2 ** j - 1, 2 ** j, 2 ** j + 1)]
    cases += [(rng.choice([3, 5, 7, 11, 13]), rng.randint(0, 2000))
              for _ in range(2000)]
    for p, v in cases:
        # the cofactor may hold p too, so v is only a lower bound
        n = rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(0, 40))
        n *= p ** v
        want = _valuation_by_units(n, p)
        assert want >= v
        assert padic._int_valuation(n, p) == want, (n, p)


def test_witt_defect_rejects_bad_p():
    with pytest.raises(ValueError):
        witt_defect(1, 0, 2, 1)
    with pytest.raises(ValueError):
        witt_defect(1, 0, 9, 1)


def test_mod_path_agrees_with_exact_path():
    rng = random.Random(29)
    for p in (3, 5):
        for _ in range(10):
            coeffs = []
            for _ in range(rng.randint(1, 6)):
                den = rng.choice([d for d in range(1, 9) if d % p != 0])
                coeffs.append(F(rng.randint(-9, 9), den))
            poly = Polynomial(coeffs)
            exact = fermionic_sum_naive(poly, p, 2)
            modulus = p ** 2
            assert fermionic_sum_naive_mod(poly, p, 2) == \
                exact.numerator * pow(exact.denominator, -1, modulus) % modulus


def test_mod_path_rejects_non_integral():
    with pytest.raises(DenominatorNotInvertible):
        fermionic_sum_naive_mod(Polynomial([F(1, 3)]), 3, 2)
    # p-integrality is read off the normal form's one denominator: a bad
    # coefficient that is not the first is found, and a composite
    # denominator prime to p is accepted
    with pytest.raises(DenominatorNotInvertible):
        fermionic_sum_naive_mod(Polynomial([1, F(1, 3)]), 3, 2)
    f = Polynomial([F(1, 2), F(1, 4)])
    exact = fermionic_sum_naive(f, 3, 2)
    assert f.den == 4
    assert fermionic_sum_naive_mod(f, 3, 2) == \
        exact.numerator * pow(exact.denominator, -1, 9) % 9


def fold_by_shifts(nums, p):
    """g(y) = sum_{j<p} (-1)**j f(j + p*y) by the fold that the weight rows
    replaced: F(t) = sum_j (-1)**j f(t + j) by p - 1 unit Taylor shifts,
    each n**2/2 in-place additions, then coefficient k times p**k."""
    shifted, folded = list(nums), list(nums)
    n = len(nums) - 1
    for j in range(1, p):
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                shifted[k] += shifted[k + 1]
        sign = -1 if j % 2 else 1
        for k, c in enumerate(shifted):
            folded[k] += sign * c
    return [c * p ** k for k, c in enumerate(folded)]


@pytest.mark.parametrize("p", [3, 5, 7, 43])
def test_fold_equals_the_unit_shifts(p):
    # one step of the moments reads row k as the fold of x**k: the fold g
    # of f has g_i = sum_k f_k row_k[i], which the unit shifts build
    rng = random.Random(p)
    for d in range(-1, 13):
        sums = padic._alternating_power_sums(p, d)
        assert sums == [sum((-1) ** j * j ** e for j in range(p))
                        for e in range(d + 1)]
        rows = padic._fold_rows(sums, p)
        assert [len(row) for row in rows] == list(range(1, d + 2))
        for _ in range(3):
            nums = [rng.randint(-10 ** 4, 10 ** 4) for _ in range(d + 1)]
            step = [sum(nums[k] * rows[k][i] for k in range(i, d + 1))
                    for i in range(d + 1)]
            assert step == fold_by_shifts(nums, p)


def _digit_sum_by_folds(f, p, precision):
    """S_N(f) by the per-level fold that the moments replaced: N - 1 folds
    g_k = p**k sum_{i>=k} C(i, k) A_(i-k) f_i of the integer numerators,
    then S_1(g) = sum_i A_i g_i, over f.den."""
    d = len(f.nums) - 1
    sums = [sum((-1) ** j * j ** e for j in range(p)) for e in range(d + 1)]
    nums = list(f.nums)
    for _ in range(precision - 1):
        nums = [p ** k * sum(math.comb(i, k) * sums[i - k] * nums[i]
                             for i in range(k, d + 1)) for k in range(d + 1)]
    return F(sum(a * c for a, c in zip(sums, nums)), f.den)


def test_moments_equal_the_per_level_fold():
    rng = random.Random(2106)
    for _ in range(320):
        p = rng.choice([3, 5, 7, 11])
        precision = rng.randint(1, 7)
        d = rng.randint(0, 10)
        mu = padic._moments(p, precision, d)
        assert len(mu) == d + 1
        for k in range(d + 1):
            assert mu[k] == _digit_sum_by_folds(monomial(k), p, precision)
        f = Polynomial([F(rng.randint(-30, 30),
                          rng.choice([c for c in range(1, 13) if c % p]))
                        for _ in range(d + 1)])
        assert fermionic_sum_digits(f, p, precision) == \
            _digit_sum_by_folds(f, p, precision), (f, p, precision)


def test_moments_equal_the_literal_alternating_sums():
    for p in (3, 5, 7, 11, 13):
        precision = 1
        while p ** precision < 10 ** 5:
            want = [alt_power_sum(p ** precision - 1, k) for k in range(11)]
            assert padic._moments(p, precision, 10) == want, (p, precision)
            precision += 1


def test_moments_equal_the_closed_form():
    # the Euler-polynomial closed form of the sum of x**k, at N up to 40
    for p in (3, 5, 7, 11, 13):
        for precision in (1, 2, 3, 5, 8, 13, 21, 34, 40):
            mu = padic._moments(p, precision, 12)
            for k in range(13):
                assert mu[k] == fermionic_sum_closed(k, 0, p ** precision), \
                    (p, precision, k)


def test_a_moments_memo_serves_lower_degrees_and_rebuilds_higher():
    memo = {}
    mu = padic._moments(5, 3, 6, memo)
    assert memo == {(5, 3): mu} and len(mu) == 7
    assert padic._moments(5, 3, 2, memo) is mu
    # an outgrown vector is rebuilt to twice its degree, or to the degree
    # asked if that is more
    mu = padic._moments(5, 3, 7, memo)
    assert mu == [alt_power_sum(5 ** 3 - 1, k) for k in range(13)]
    assert memo == {(5, 3): mu}
    assert len(padic._moments(5, 3, 30, memo)) == 31
    # a new (p, N) is built to the degree asked, and replaces the last
    assert padic._moments(7, 3, 2, memo) == padic._moments(7, 3, 2)
    assert list(memo) == [(7, 3)] and len(memo[7, 3]) == 3


def test_lem1_defect_examples():
    assert lem1_defect(Polynomial([F(5)]), 3, 2) == math.inf
    assert lem1_defect(Polynomial([F(0), F(1)]), 3, 2) == 2
    # even polynomial: the sharper even-function statement is folded in
    assert lem1_defect(Polynomial([F(0), F(0), F(1)]), 3, 2) >= 2
    assert lem1_defect(Polynomial([F(1), F(0), F(2), F(0), F(1, 2)]), 5, 2) >= 2


def test_lem1_defect_randomized_family():
    rng = random.Random(31)
    for p in (3, 5, 7):
        for _ in range(12):
            coeffs = []
            for _ in range(rng.randint(1, 9)):
                den = rng.choice([d for d in range(1, 11) if d % p != 0])
                coeffs.append(F(rng.randint(-20, 20), den))
            assert lem1_defect(Polynomial(coeffs), p, 2) >= 2


def test_lem1_defect_rejects_non_integral_coefficients():
    with pytest.raises(DenominatorNotInvertible):
        lem1_defect(Polynomial([F(1, 5), F(1)]), 5, 2)
    with pytest.raises(DenominatorNotInvertible):
        lem1_defect(Polynomial([1, F(1, 3)]), 3, 2)
    # p-integral over the composite denominator 4
    assert lem1_defect(Polynomial([F(1, 2), F(1, 4)]), 3, 2) >= 2


def test_closed_sum_is_witt_value_at_full_limit():
    # sanity tie-in: S_N converges to E_n(a) in valuation, so the defect
    # sequence is monotone in N for these small cases
    for n in range(4):
        defects = [witt_defect(n, F(1, 2), 3, precision)
                   for precision in (1, 2, 3, 4)]
        for lo, hi in zip(defects, defects[1:]):
            assert hi >= lo
