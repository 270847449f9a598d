"""Exact arithmetic for weighted q-Euler numbers and polynomials, the
alternating p-adic measure behind them, and Dedekind-type alternating sums, in
three interchangeable coefficient modes: rational, symbolic rational
function, and capped-precision p-adic.
"""

from .catalog import CATALOG, check
from .dedekind import (
    DCParams,
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
    PrecisionError,
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
    q_pow,
    rational_valuation,
    teichmuller,
    teichmuller_inverse,
)
from .qeuler import (
    BaseLifted,
    PadicMode,
    QEulerValue,
    RationalMode,
    SymbolicMode,
    euler_classical,
    measure,
    periodic_euler,
    q_int,
    qeuler_numbers,
    qeuler_poly,
    qeuler_poly_additive,
    scaled_qeuler,
)
from .ratfunc import MAX_DEGREE, Poly, RatFunc
from .reports import IdentityReport

__version__ = "1.0.0"

__all__ = [
    "BaseLifted", "CATALOG", "ConvergenceError", "DCParams",
    "DEFAULT_PRECISION", "ExponentError", "IdentityReport",
    "IntegrandSpec", "MAX_DEGREE", "PadicConfig", "PadicMode", "PadicNum",
    "PoleError", "Poly", "PrecisionError", "PreconditionError", "QEulerValue", "QdeError",
    "RatFunc", "RationalMode", "ResourceLimitError", "SymbolicMode",
    "agreement_valuation", "check", "closed_form", "convergence_profile",
    "dc_sum", "euler_classical", "format_rational", "interp_series",
    "interp_value", "is_odd_prime", "measure", "normalized_bracket",
    "padic_dc_sum", "parse_rational", "periodic_euler",
    "q_dc_sum", "q_int", "q_pow", "qeuler_numbers", "qeuler_poly",
    "qeuler_poly_additive", "rational_valuation", "riemann_level", "scaled_qeuler",
    "teichmuller", "teichmuller_inverse",
]
