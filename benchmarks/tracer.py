"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces eulerferm's public functions and methods with
wrappers, and rebinds the same objects wherever another eulerferm module
imported them by name. Nothing in ``src/`` knows about it, and the
untraced run never imports this module.

Two kinds of wrapper:

* a *span* records name, start, end and parent for every call; spans are
  kept in memory and dumped when the command ends. Layer boundaries that
  are called at most some tens of thousands of times are spans: the CLI
  entry, the suite driver, each checker, the Euler tables, composition,
  differentiation and the p-adic sums.
* a *hot* wrapper only counts calls and adds up the time of the outermost
  call, charging it to the innermost open span. It is used for the
  functions called up to millions of times: Polynomial arithmetic and
  evaluation, and the numeric helpers. ``Fraction`` arithmetic is counted
  without timing.

A span's self time is its duration less its child spans and the hot time
charged to it.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__floordiv__",
                 "__rfloordiv__", "__mod__", "__rmod__", "__pow__", "__rpow__",
                 "__neg__", "__pos__", "__abs__")

CHECKER_IDS = (
    "reflection", "complement", "boundary", "gf_consistency", "euler_alt_sum",
    "bernoulli_power_sum", "wsp7", "wsp9", "thm1", "cro0", "cro1", "cro2",
    "recurrence_odd", "sun", "sun_cor", "thm2", "thm2_cro1", "thm2_cro2",
    "thm3", "thm3_1a", "thm3_1b", "thm3_1c", "thm3_1d", "rem2_1", "fersim",
    "fersim3", "witt", "lem1")

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("cli.main_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.stdout_kb", "KiB", "lower"),
    ("identities.reports", "count", "higher"),
    ("identities.run_suite_ms", "ms", "lower"),
    ("identities.driver_ms", "ms", "lower"),
    *((f"identities.{cid}_ms", "ms", "lower") for cid in CHECKER_IDS),
    ("euler.euler_poly_calls", "count", "lower"),
    ("euler.euler_poly_ms", "ms", "lower"),
    ("euler.max_degree", "count", "lower"),
    ("euler.shifted_calls", "count", "lower"),
    ("euler.shifted_unique", "count", "lower"),
    ("euler.shifted_ms", "ms", "lower"),
    ("euler.series_calls", "count", "lower"),
    ("euler.series_terms", "count", "lower"),
    ("euler.series_ms", "ms", "lower"),
    ("euler.euler_number_ms", "ms", "lower"),
    ("euler.bernoulli_poly_ms", "ms", "lower"),
    ("polynomial.mul_calls", "count", "lower"),
    ("polynomial.mul_coeff_products", "count", "lower"),
    ("polynomial.mul_ms", "ms", "lower"),
    ("polynomial.add_calls", "count", "lower"),
    ("polynomial.compose_affine_calls", "count", "lower"),
    ("polynomial.compose_affine_ms", "ms", "lower"),
    ("polynomial.eval_calls", "count", "lower"),
    ("polynomial.eval_ms", "ms", "lower"),
    ("polynomial.derivative_ms", "ms", "lower"),
    ("padic.naive_terms", "count", "lower"),
    ("padic.naive_ms", "ms", "lower"),
    ("padic.naive_mod_ms", "ms", "lower"),
    ("padic.witt_defect_calls", "count", "lower"),
    ("padic.witt_defect_ms", "ms", "lower"),
    ("padic.lem1_terms", "count", "lower"),
    ("padic.lem1_defect_ms", "ms", "lower"),
    ("padic.valuation_calls", "count", "lower"),
    ("numeric.fraction_ops", "count", "lower"),
    ("numeric.binomial_calls", "count", "lower"),
    ("numeric.format_rational_calls", "count", "lower"),
    ("numeric.format_rational_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index, hot seconds]
        self.stack = []         # indices of the open spans
        self.counts = Counter()
        self.hot_s = Counter()
        self.extra = Counter()
        self.shifted_keys = set()
        self._open = Counter()  # hot names with a call in progress
        self._hot_depth = [0]
        self._patched = []      # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, before=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            entry = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                entry[2] = clock()
        return wrapper

    def hot(self, name, fn, before=None):
        counts, hot_s, is_open, depth = (self.counts, self.hot_s, self._open,
                                         self._hot_depth)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            if is_open[name]:
                return fn(*args, **kwargs)
            is_open[name] += 1
            depth[0] += 1
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t
                depth[0] -= 1
                is_open[name] -= 1
                hot_s[name] += elapsed
                if depth[0] == 0 and stack:
                    spans[stack[-1]][4] += elapsed
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Replace ``original`` in every eulerferm module that holds it."""
        for name, module in list(sys.modules.items()):
            if name != "eulerferm" and not name.startswith("eulerferm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        from eulerferm import euler, identities, numeric, padic, polynomial

        self._rebind(identities.run_suite,
                     self.span("identities.run_suite", identities.run_suite))
        for cid, checker in list(identities.CHECKERS.items()):
            wrapped = dataclasses.replace(
                checker, run=self.span(f"identities.{cid}", checker.run))
            self._patched.append((identities.CHECKERS, cid, checker))
            identities.CHECKERS[cid] = wrapped

        cache = euler.EulerCache
        self._set(cache, "euler_poly", self.span(
            "euler.euler_poly", cache.euler_poly, self._note_degree))
        self._set(cache, "euler_poly_shifted", self.span(
            "euler.shifted", cache.euler_poly_shifted, self._note_shift))
        self._set(cache, "euler_number", self.span(
            "euler.euler_number", cache.euler_number))
        self._set(cache, "bernoulli_poly", self.span(
            "euler.bernoulli_poly", cache.bernoulli_poly))
        self._rebind(euler.euler_polys_by_series, self.span(
            "euler.series", euler.euler_polys_by_series,
            self._adder("euler.series_terms", lambda count, **kw: count)))

        poly = polynomial.Polynomial
        size = self._mul_size
        self._set(poly, "__mul__", self.hot("polynomial.mul", poly.__mul__, size))
        self._set(poly, "__rmul__", self.hot("polynomial.mul", poly.__rmul__, size))
        self._set(poly, "__add__", self.hot("polynomial.add", poly.__add__))
        self._set(poly, "__radd__", self.hot("polynomial.add", poly.__radd__))
        self._set(poly, "__call__", self.hot("polynomial.eval", poly.__call__))
        self._set(poly, "compose_affine", self.span(
            "polynomial.compose_affine", poly.compose_affine))
        self._set(poly, "derivative", self.span(
            "polynomial.derivative", poly.derivative))

        span_terms = lambda f, p, precision, *rest, **kw: p ** precision
        self._rebind(padic.fermionic_sum_naive, self.span(
            "padic.naive", padic.fermionic_sum_naive,
            self._adder("padic.naive_terms", span_terms)))
        self._rebind(padic.fermionic_sum_naive_mod, self.span(
            "padic.naive_mod", padic.fermionic_sum_naive_mod,
            self._adder("padic.naive_mod_terms", span_terms)))
        self._rebind(padic.fermionic_sum_closed, self.span(
            "padic.closed", padic.fermionic_sum_closed))
        self._rebind(padic.witt_defect, self.span(
            "padic.witt_defect", padic.witt_defect))
        self._rebind(padic.lem1_defect, self.span(
            "padic.lem1_defect", padic.lem1_defect,
            self._adder("padic.lem1_terms", span_terms)))
        self._rebind(padic.valuation, self.hot("padic.valuation",
                                               padic.valuation))

        for name in ("binomial", "falling_factorial", "format_rational",
                     "parse_rational", "int_pow"):
            original = getattr(numeric, name)
            self._rebind(original, self.hot(f"numeric.{name}", original))

        for op in _FRACTION_OPS:
            self._set(Fraction, op, self.counted(
                "numeric.fraction_ops", getattr(Fraction, op)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- argument recorders --------------------------------------------------

    def _adder(self, name, amount):
        extra = self.extra

        def before(args, kwargs):
            extra[name] += amount(*args, **kwargs)
        return before

    def _note_degree(self, args, kwargs):
        self.extra["euler.max_degree"] = max(self.extra["euler.max_degree"],
                                             args[1])

    def _note_shift(self, args, kwargs):
        self.shifted_keys.add((args[1], Fraction(args[2]), Fraction(args[3])))

    def _mul_size(self, args, kwargs):
        a, b = args
        self.extra["polynomial.mul_coeff_products"] += (
            len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1))

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "hot_ms": {k: v * 1e3 for k, v in self.hot_s.items()},
                "extra": dict(self.extra),
                "shifted_unique": len(self.shifted_keys)}


# metric -> (record it is summed from, key): "calls" counts spans, "counts"
# and "hot_ms" come from hot wrappers, "extra" from argument recorders
_SUMMED = {
    "euler.euler_poly_calls": ("calls", "euler.euler_poly"),
    "euler.shifted_calls": ("calls", "euler.shifted"),
    "euler.series_calls": ("calls", "euler.series"),
    "euler.series_terms": ("extra", "euler.series_terms"),
    "polynomial.mul_calls": ("counts", "polynomial.mul"),
    "polynomial.mul_coeff_products": ("extra", "polynomial.mul_coeff_products"),
    "polynomial.mul_ms": ("hot_ms", "polynomial.mul"),
    "polynomial.add_calls": ("counts", "polynomial.add"),
    "polynomial.compose_affine_calls": ("calls", "polynomial.compose_affine"),
    "polynomial.eval_calls": ("counts", "polynomial.eval"),
    "polynomial.eval_ms": ("hot_ms", "polynomial.eval"),
    "padic.naive_terms": ("extra", "padic.naive_terms"),
    "padic.witt_defect_calls": ("calls", "padic.witt_defect"),
    "padic.lem1_terms": ("extra", "padic.lem1_terms"),
    "padic.valuation_calls": ("counts", "padic.valuation"),
    "numeric.fraction_ops": ("counts", "numeric.fraction_ops"),
    "numeric.binomial_calls": ("counts", "numeric.binomial"),
    "numeric.format_rational_calls": ("counts", "numeric.format_rational"),
    "numeric.format_rational_ms": ("hot_ms", "numeric.format_rational"),
}


def layer_metrics(dumps, stdout_bytes: int) -> dict:
    """Per-layer metrics summed over the traced commands of one repetition."""
    out = defaultdict(float)
    for dump in dumps:
        spans = dump["spans"]
        ms = [(s[2] - s[1]) * 1e3 for s in spans]
        child_ms = [0.0] * len(spans)
        checker_ms = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_ms[s[3]] += ms[i]
                if spans[s[3]][0] == "identities.run_suite":
                    checker_ms[s[3]] += ms[i]
        calls = Counter()
        for i, s in enumerate(spans):
            name = s[0]
            calls[name] += 1
            out[f"{name}_ms"] += ms[i]
            if name == "cli.main":
                out["cli.self_ms"] += ms[i] - child_ms[i] - s[4] * 1e3
            elif name == "identities.run_suite":
                out["identities.driver_ms"] += ms[i] - checker_ms[i]
            elif name.partition(".")[2] in CHECKER_IDS:
                out["identities.reports"] += 1
        sources = {"calls": calls, "counts": dump["counts"],
                   "hot_ms": dump["hot_ms"], "extra": dump["extra"]}
        for metric, (source, key) in _SUMMED.items():
            out[metric] += sources[source].get(key, 0)
        out["euler.max_degree"] = max(out["euler.max_degree"],
                                      dump["extra"].get("euler.max_degree", 0))
        out["euler.shifted_unique"] += dump["shifted_unique"]
    out["cli.stdout_kb"] = stdout_bytes / 1024
    return {name: out.get(name, 0.0) for name, _, _ in LAYER_METRICS}
