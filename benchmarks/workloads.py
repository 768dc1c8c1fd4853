"""The benchmark's workloads: the CLI commands each one runs, drawn from a
seed, and the checks that each command's output must pass.

Every check compares the program's output with something the benchmark
works out on its own, never with a stored copy of an earlier output:

* ``catalog``: every catalog identity is a theorem, so every report must
  be PASS with a zero residual, and the report count of each checker must
  equal the count derived here from the grid and the stated domain of the
  identity.
* ``highdeg``: ``poly N`` must equal E_N rebuilt here from Euler numbers
  computed by Seidel's integer boustrophedon.
* ``padic``: an integer sum of (x+a)^n (-1)^x mod p^N computed here must
  agree with E_n(a) mod p^N as printed by ``eval`` (Witt's formula), and
  every valuation defect must reach N.

A check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb

WORKLOADS = ("catalog", "highdeg", "padic")


@dataclass
class Command:
    """One CLI invocation and the check its standard output must pass."""

    argv: list
    check: object                  # callable(stdout: str) -> list[str]
    reports: int = 0               # identity reports the command must print

    @property
    def operations(self) -> int:
        """The command itself plus each identity report it prints."""
        return 1 + self.reports


def build(workload: str, seed: int, quick: bool = False) -> list:
    """The workload's fixed command sequence for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        return _catalog(rng, quick)
    if workload == "highdeg":
        return _highdeg(rng, quick)
    if workload == "padic":
        return _padic(rng, quick)
    raise ValueError(f"unknown workload {workload!r}")


def _fmt_range(values) -> str:
    return f"{values[0]}..{values[-1]}"


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# Non-integer shifts with denominators 2 and 4: p-integral for every odd p,
# so the witt report count does not depend on the seed, and of one size,
# so neither does the cost.
_POINT_POOL = tuple(Fraction(num, den) for den in (2, 4)
                    for num in range(-7, 8) if num % 2)


def _catalog(rng, quick):
    if quick:
        m = n = list(range(3))
    else:
        m = n = list(range(9))
    q = k = s = [1, 2, 3]
    primes = [3, 5, 7]
    points = [Fraction(0), Fraction(1)] + rng.sample(_POINT_POOL, 3)
    argv = ["verify", "all", "--m", _fmt_range(m), "--n", _fmt_range(n),
            "--q", _fmt_range(q), "--k", _fmt_range(k), "--s", _fmt_range(s),
            "--points", ",".join(str(a) for a in points),
            "--p", ",".join(map(str, primes)), "--precision", "2",
            "--format", "json"]
    expected = catalog_counts(m, n, q, k, s, primes, points)
    return [Command(argv, lambda out: check_catalog(out, expected),
                    sum(expected.values()))]


def catalog_counts(m, n, q, k, s, primes, points, lem1_count=5) -> dict:
    """Reports per checker, from the grid and each identity's stated domain."""
    mn = [(i, j) for i in m for j in n]
    positive = [(i, j) for i, j in mn if i + j > 0]
    m_pos = [i for i in m if i >= 1]
    odd_k = [x for x in k if x % 2]
    odd_q = [x for x in q if x % 2]
    c = {}
    for cid in ("reflection", "complement", "boundary", "gf_consistency",
                "cro2", "recurrence_odd", "fersim"):
        c[cid] = len(n)
    c["euler_alt_sum"] = c["bernoulli_power_sum"] = len(m_pos) * len(n)
    c["wsp7"] = c["sun_cor"] = len(mn)
    c["wsp9"] = c["cro1"] = len(positive)
    c["thm1"] = len(positive) * len(q) * len(odd_k)
    c["cro0"] = len(n) * len(odd_q)
    c["sun"] = len(mn) * len(points)
    c["thm2"] = len(positive) * len(s) * len(k)
    c["thm2_cro1"] = c["thm2_cro2"] = len(n) * len(k)
    # thm3 and its four corollaries range over k (and l or j) bounded by m
    c["thm3"] = c["thm3_1a"] = sum(i + 1 for i in m)
    c["thm3_1b"] = sum(m)
    c["thm3_1c"] = sum(i * (i + 1) // 2 for i in m)
    c["thm3_1d"] = sum(i * (i + 1) for i in m)
    c["rem2_1"] = len([i for i in m if i >= 3])
    c["fersim3"] = len(n) * len(q)
    c["witt"] = len(n) * sum(1 for p in primes for a in points
                             if Fraction(a).denominator % p)
    c["lem1"] = len(primes) * lem1_count
    return c


def _residual_ok(residual, precision) -> bool:
    """Zero, or, for a valuation certificate, a defect of at least N."""
    if precision is None:
        return residual in ([], "0")
    try:
        return residual == "inf" or int(residual) >= precision
    except (ValueError, TypeError):
        return False


def check_reports(rows, summary: str, expected: dict) -> list:
    """Report rows (verdict, id, params, residual, N or None) and the
    summary line: all PASS with zero residuals, counts as derived."""
    problems = [f"{verdict} {cid} {params} residual={residual}"
                for verdict, cid, params, residual, precision in rows
                if verdict != "PASS" or not _residual_ok(residual, precision)]
    counts = Counter(row[1] for row in rows)
    problems += [f"{cid}: {counts[cid]} reports, expected {expected.get(cid, 0)}"
                 for cid in sorted(set(expected) | set(counts))
                 if counts[cid] != expected.get(cid, 0)]
    total = sum(expected.values())
    if summary != f"PASS {total}/{total}":
        problems.append(f"summary {summary!r}, expected 'PASS {total}/{total}'")
    return problems


def check_catalog(stdout: str, expected: dict) -> list:
    """`verify --format json` output against the derived counts."""
    body, _, summary = stdout.rstrip("\n").rpartition("\n")
    try:
        rows = [("PASS" if r["pass"] is True else "FAIL", r["id"], r["params"],
                 r["residual"],
                 r["params"]["precision"] if r["mode"] == "valuation" else None)
                for r in json.loads(body)]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report array: {exc!r}"]
    return check_reports(rows, summary, expected)


# ---------------------------------------------------------------------------
# highdeg
# ---------------------------------------------------------------------------

_HIGHDEG_IDS = ("reflection", "complement", "fersim", "fersim3", "boundary",
                "recurrence_odd", "cro2")
_FORMATS = ("text", "json", "csv", "md")
_VALUATION_IDS = ("witt", "lem1")


def _highdeg(rng, quick):
    # N is fixed: the O(N^3) build of poly N would make the cost depend on
    # the seed, which picks only the output format
    degree, n = (13, list(range(4, 7))) if quick else (135, list(range(40, 61)))
    fmt = rng.choice(_FORMATS)
    commands = [Command(["poly", str(degree), "--format", fmt],
                        lambda out: check_poly(out, degree, fmt))]
    q = [1, 2, 3]
    expected = {cid: len(n) for cid in _HIGHDEG_IDS}
    expected["fersim3"] = len(n) * len(q)
    commands.append(Command(["verify", *_HIGHDEG_IDS, "--n", _fmt_range(n)],
                            lambda out: check_text_reports(out, expected),
                            sum(expected.values())))
    gf = {"gf_consistency": len(n)}
    commands.append(Command(["verify", "gf_consistency", "--n", _fmt_range(n)],
                            lambda out: check_text_reports(out, gf),
                            len(n)))
    return commands


def euler_numbers(count: int) -> list:
    """E_0 .. E_{count-1} by Seidel's boustrophedon over the integers.

    The boustrophedon rows end in the zigzag numbers A_n; the Euler
    (secant) numbers are E_{2k} = (-1)^k A_{2k} and E_{2k+1} = 0.
    """
    row, zigzag = [1], [1]
    for _ in range(1, count):
        new = [0]
        for v in reversed(row):
            new.append(new[-1] + v)
        row = new
        zigzag.append(row[-1])
    return [(-1) ** (i // 2) * a if i % 2 == 0 else 0
            for i, a in enumerate(zigzag[:count])]


def euler_poly_seidel(degree: int) -> list:
    """Coefficients of E_N(x) = sum_k C(N,k) E_k 2^-k (x - 1/2)^(N-k).

    Expanding (x - 1/2)^(N-k) binomially, the coefficient of x^i is
    2^(i-N) sum_k C(N,k) C(N-k,i) E_k (-1)^(N-k-i).
    """
    e = euler_numbers(degree + 1)
    coeffs = []
    for i in range(degree + 1):
        num = sum(comb(degree, k) * comb(degree - k, i) * e[k]
                  * (-1) ** (degree - k - i) for k in range(degree - i + 1))
        coeffs.append(Fraction(num * 2 ** i, 2 ** degree))
    return coeffs


def parse_poly(stdout: str, fmt: str) -> list:
    """Lowest-degree-first coefficients from `poly` output in any format."""
    text = stdout.strip()
    if fmt == "json":
        return [Fraction(c) for c in json.loads(text)]
    if fmt == "csv":
        return [Fraction(c) for c in text.split(",")]
    if fmt == "md":
        if not (text.startswith("`") and text.endswith("`")):
            raise ValueError("md polynomial is not a code span")
        text = text[1:-1]
    coeffs = {}
    terms = text.replace(" - ", " + -").split(" + ")
    for term in terms:
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        if "x" in term:
            head, _, power = term.partition("x")
            exp = int(power[1:]) if power.startswith("^") else 1
            coef = Fraction(head[:-1]) if head.endswith("*") else Fraction(1)
            if head and not head.endswith("*"):
                raise ValueError(f"malformed term {term!r}")
        else:
            exp, coef = 0, Fraction(term)
        if exp in coeffs:
            raise ValueError(f"repeated power x^{exp}")
        coeffs[exp] = sign * coef
    out = [Fraction(0)] * (max(coeffs) + 1)
    for exp, coef in coeffs.items():
        out[exp] = coef
    return out


def check_poly(stdout: str, degree: int, fmt: str) -> list:
    try:
        got = parse_poly(stdout, fmt)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"poly {degree}: unparsable output: {exc}"]
    want = euler_poly_seidel(degree)
    if got != want:
        bad = [i for i in range(max(len(got), len(want)))
               if (got[i:i + 1] or [0]) != (want[i:i + 1] or [0])]
        return [f"poly {degree}: coefficients of x^{bad[:5]} differ from the "
                f"Seidel construction"]
    return []


def check_text_reports(stdout: str, expected: dict) -> list:
    """`verify` text output against the derived counts."""
    lines = stdout.rstrip("\n").split("\n")
    rows = []
    try:
        for line in lines[:-1]:
            verdict, cid, *rest = line.split(" ")
            if not rest or not rest[-1].startswith("residual="):
                raise ValueError(f"no residual in {line!r}")
            params = dict(tok.split("=", 1) for tok in rest[:-1])
            precision = (int(params["precision"])
                         if cid in _VALUATION_IDS else None)
            rows.append((verdict, cid, params, rest[-1][len("residual="):],
                         precision))
    except (ValueError, KeyError) as exc:
        return [f"unparsable report line: {exc}"]
    return check_reports(rows, lines[-1], expected)


# ---------------------------------------------------------------------------
# padic
# ---------------------------------------------------------------------------

# (p, N) with p^N between 78125 and 83521, so the cost of a naive sum
# varies by a few percent with the seed
_NAIVE_SPANS = ((5, 7), (43, 3), (17, 4))
_DEFAULT_POINTS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1),
                   Fraction(-2, 3))


def _padic(rng, quick):
    if quick:
        primes, precision, n = [3, 5], 2, list(range(3))
        spans, degrees = ((3, 3), (5, 2), (7, 2)), (2, 3, 4)
    else:
        primes, precision, n = [3, 5, 7], 5, list(range(9))
        spans, degrees = _NAIVE_SPANS, (6, 7, 8)
    expected = {
        "witt": len(n) * sum(1 for p in primes for a in _DEFAULT_POINTS
                             if a.denominator % p),
        "lem1": 5 * len(primes),
    }
    commands = [Command(["verify", "witt", "lem1",
                         "--p", ",".join(map(str, primes)),
                         "--precision", str(precision), "--n", _fmt_range(n)],
                        lambda out: check_text_reports(out, expected),
                        sum(expected.values()))]
    # every seed runs each span and each degree once, in its own pairing
    for (p, prec), degree in zip(rng.sample(spans, 3), rng.sample(degrees, 3)):
        a = Fraction(rng.randrange(-9, 10, 2), 2)
        case = {"p": p, "precision": prec, "n": degree, "a": a}
        commands.append(Command(
            ["witt", "--p", str(p), "--precision", str(prec),
             "--n", str(degree), "--a", str(a), "--naive"],
            lambda out, case=case: check_witt(out, case)))
        commands.append(Command(
            ["eval", str(degree), str(a)],
            lambda out, case=case: check_eval(out, case)))
    return commands


@lru_cache(maxsize=None)
def fermionic_sum_mod(n: int, a: Fraction, p: int, precision: int) -> int:
    """sum_{x < p^N} (x + a)^n (-1)^x mod p^N, in integers mod p^N."""
    modulus = p ** precision
    shift = a.numerator * pow(a.denominator, -1, modulus) % modulus
    total = 0
    for x in range(modulus):
        term = pow(x + shift, n, modulus)
        total += -term if x & 1 else term
    return total % modulus


def _mod(value: Fraction, modulus: int) -> int:
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def parse_witt(stdout: str) -> dict:
    """Fields of the text-format `witt` certificate."""
    fields = {}
    lines = stdout.strip().split("\n")
    for line in lines[1:-1]:
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    fields["verdict"] = lines[-1].strip()
    return fields


def check_witt(stdout: str, case: dict) -> list:
    """The certificate's sums against the integer sum mod p^N."""
    try:
        f = parse_witt(stdout)
        closed = Fraction(f["S_N (closed)"])
        euler_value = Fraction(f["E_n(a)"])
        naive_text, _, verdict = f["naive sum"].partition(" ")
        naive = Fraction(naive_text)
        defect = f["defect v_p"]
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return [f"witt {case}: unparsable certificate: {exc}"]
    p, prec = case["p"], case["precision"]
    modulus = p ** prec
    want = fermionic_sum_mod(case["n"], case["a"], p, prec)
    problems = []
    if f["verdict"] != "PASS":
        problems.append(f"witt {case}: verdict {f['verdict']!r}")
    if verdict != "(matches closed form)" or naive != closed:
        problems.append(f"witt {case}: naive sum does not match closed form")
    if _mod(naive, modulus) != want:
        problems.append(f"witt {case}: naive sum is not the sum mod p^N")
    if not (defect == "inf" or (defect.isdigit() and int(defect) >= prec)):
        problems.append(f"witt {case}: defect {defect} below N = {prec}")
    if _mod(euler_value, modulus) != want:
        problems.append(f"witt {case}: E_n(a) is not the sum mod p^N")
    return problems


def check_eval(stdout: str, case: dict) -> list:
    """Witt's formula: E_n(a) from `eval` is the fermionic sum mod p^N."""
    try:
        got = Fraction(stdout.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return [f"eval {case}: unparsable value: {exc}"]
    p, prec = case["p"], case["precision"]
    if got.denominator % p == 0:
        return [f"eval {case}: {got} is not a {p}-adic integer"]
    if _mod(got, p ** prec) != fermionic_sum_mod(case["n"], case["a"], p, prec):
        return [f"eval {case}: E_n(a) = {got} disagrees with the fermionic "
                f"sum mod {p}^{prec}"]
    return []
