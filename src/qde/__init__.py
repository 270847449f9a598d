"""Exact arithmetic for weighted q-Euler numbers and polynomials, the
alternating p-adic measure behind them, and Dedekind-type alternating sums, in
three interchangeable coefficient modes: rational, symbolic rational
function, and capped-precision p-adic.
"""

from .dedekind import (
    DCParams,
    check_dc_expansion,
    check_integral_splitting,
    check_interp_recursion,
    check_main_relation,
    check_shifted_splitting,
    dc_sum,
    interp_series,
    interp_value,
    padic_dc_sum,
    q_dc_sum,
)
from .errors import (
    ConvergenceError,
    ExponentError,
    PoleError,
    PreconditionError,
    QdeError,
    ResourceLimitError,
)
from .exact import format_rational, parse_rational
from .oracle import IntegrandSpec, closed_form, convergence_profile, riemann_level
from .padic import (
    DEFAULT_PRECISION,
    PadicConfig,
    PadicNum,
    agreement_valuation,
    is_odd_prime,
    normalized_bracket,
    principal_pow,
    q_pow,
    rational_valuation,
    teichmuller,
    teichmuller_inverse,
    valuation,
)
from .qeuler import (
    BaseLifted,
    PadicMode,
    QEulerValue,
    RationalMode,
    SymbolicMode,
    check_additive,
    check_distribution,
    distribution_sum,
    euler_classical,
    measure,
    periodic_euler,
    q_int,
    qeuler_number,
    qeuler_poly,
    qeuler_poly_additive,
)
from .ratfunc import MAX_DEGREE, Poly, RatFunc, poly_gcd, q_bracket
from .reports import IdentityReport

__version__ = "1.0.0"

__all__ = [
    "BaseLifted", "ConvergenceError", "DCParams", "DEFAULT_PRECISION",
    "ExponentError", "IdentityReport", "IntegrandSpec", "MAX_DEGREE",
    "PadicConfig", "PadicMode", "PadicNum", "PoleError", "Poly",
    "PreconditionError", "QEulerValue", "QdeError", "RatFunc",
    "RationalMode", "ResourceLimitError", "SymbolicMode",
    "agreement_valuation", "check_additive", "check_dc_expansion",
    "check_distribution", "check_integral_splitting",
    "check_interp_recursion", "check_main_relation",
    "check_shifted_splitting", "closed_form", "convergence_profile",
    "dc_sum", "distribution_sum", "euler_classical", "format_rational",
    "interp_series", "interp_value", "is_odd_prime", "measure",
    "normalized_bracket", "padic_dc_sum", "parse_rational",
    "periodic_euler", "poly_gcd", "principal_pow", "q_bracket",
    "q_dc_sum", "q_int", "q_pow", "qeuler_number", "qeuler_poly",
    "qeuler_poly_additive", "rational_valuation", "riemann_level",
    "teichmuller", "teichmuller_inverse", "valuation",
]
