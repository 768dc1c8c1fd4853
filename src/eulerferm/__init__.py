"""Exact Euler/Bernoulli polynomial generators, fermionic p-adic sums, and a
mechanical verifier for the associated identity catalog."""

from .numeric import (
    binomial,
    falling_factorial,
    int_pow,
    parse_rational,
    format_rational,
)
from .polynomial import Polynomial, monomial
from .euler import (
    EulerCache,
    euler_poly,
    euler_number,
    euler_zero,
    euler_poly_shifted,
    bernoulli_poly,
    alt_power_sum,
    power_sum,
    euler_polys_by_series,
)
from .padic import (
    DenominatorNotInvertible,
    BudgetExceeded,
    DEFAULT_BUDGET,
    is_odd_prime,
    valuation,
    fermionic_sum_digits,
    fermionic_sum_naive,
    fermionic_sum_naive_mod,
    fermionic_sum_closed,
    witt_defect,
    witt_sum_naive,
    lem1_defect,
)
from .identities import (
    CHECKER_IDS,
    IdentityReport,
    SweepGrid,
    run_suite,
)

__version__ = "0.1.0"
