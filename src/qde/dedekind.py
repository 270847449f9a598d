"""Alternating Dedekind-type sums and their q-deformations.

The classical sum pairs the sawtooth weight M/k with the periodic Euler
function.  Its q-analogue replaces both factors by bracket numbers and
weighted q-Euler polynomial values, and interpolates p-adically through
a two-term combination of scaled q-Euler values (interp_value) or the
binomial series built on the unit bracket (interp_series).

Reduction conventions, recorded once here: interp_value always reduces
its residue argument into 1..N before evaluating, matching the finite
expansion of identity eq6; interp_series uses the residue literally, so
the two agree only for arguments already below N.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd

from .errors import ConvergenceError, PoleError, PreconditionError
from .padic import (
    PadicConfig,
    PadicNum,
    _binomial_coeffs,
    is_odd_prime,
    normalized_bracket,
    q_pow,
    teichmuller_inverse,
)
from .qeuler import (
    BaseLifted,
    PadicMode,
    alternating_sum,
    periodic_euler,
    q_int,
    qeuler_numbers,
    qeuler_poly,
)

INTEGER_VARIANTS = ("naive", "interpolated", "interpolated_printed")


@dataclass(frozen=True)
class DCParams:
    """Validated parameter bundle for the Dedekind-type sums.

    h and k must be coprime.  l is the base exponent the inner q-Euler
    values are evaluated at; p, when present, is the interpolation
    prime and must be odd.
    """

    h: int
    k: int
    m: int = 0
    alpha: int = 1
    l: int = 1
    p: int = None

    def __post_init__(self):
        if self.h < 1 or self.k < 1:
            raise PreconditionError(f"h and k must be >= 1, got h={self.h} k={self.k}")
        if gcd(self.h, self.k) != 1:
            raise PreconditionError(f"h = {self.h} and k = {self.k} must be coprime")
        if self.m < 0:
            raise PreconditionError(f"degree m must be >= 0, got {self.m}")
        if self.alpha < 1:
            raise PreconditionError(f"weight alpha must be >= 1, got {self.alpha}")
        if self.l < 1:
            raise PreconditionError(f"base exponent l must be >= 1, got {self.l}")
        if self.p is not None and not is_odd_prime(self.p):
            raise PreconditionError(f"p must be an odd prime, got {self.p}")

    def require_interpolation_domain(self):
        """Constraints under which the p-adic interpolation is used."""
        if self.p is None:
            raise PreconditionError("interpolation needs a prime p")
        if self.k % self.p == 0:
            raise PreconditionError(f"p = {self.p} must not divide k = {self.k}")
        if (self.m + 1) % (self.p - 1) != 0:
            raise PreconditionError(
                f"need m + 1 divisible by p - 1, got m={self.m} p={self.p}"
            )


def dc_sum(m: int, h: int, k: int) -> Fraction:
    """Alternating Dedekind-type sum: sum of (-1)^(M-1) (M/k) Ebar_m(hM/k)."""
    DCParams(h=h, k=k, m=m)
    total = Fraction(0)
    for big_m in range(1, k):
        term = Fraction(big_m, k) * periodic_euler(m, Fraction(h * big_m, k))
        total = total + term if big_m % 2 == 1 else total - term
    return total


def q_dc_sum(m: int, h: int, k: int, alpha: int, l: int, mode):
    """q-deformed Dedekind-type sum with inner values at base exponent l.

    Each term pairs the bracket ratio [M]/[k] with the degree-m weighted
    q-Euler polynomial at the reduced fraction {hM/k}, base q^l.  Modes
    that cannot represent the resulting fractional q-exponents raise
    ExponentError from the inside; no pre-check duplicates that.
    """
    DCParams(h=h, k=k, m=m, alpha=alpha, l=l)
    lifted = BaseLifted(mode, l)
    acc = alternating_sum(mode, (
        (q_int(big_m, alpha, mode), qeuler_poly(m, alpha, Fraction((h * big_m) % k, k), lifted))
        for big_m in range(1, k)
    ))
    return acc / q_int(k, alpha, mode)


def interp_value(m: int, a: int, n_mod: int, variant: str, mode, *, alpha: int = 1, p: int = None):
    """Scaled q-Euler value at a residue, in one of three readings.

    "naive" is [N]^m Etilde_m(a/N) at base q^N with a reduced into 1..N-1.
    The interpolated variants subtract a second term at base q^(Np) and
    the p-inverted residue; "interpolated" scales it by [N]^(m-1) [Np]
    (ratio [Np]/[N] when m = 0), "interpolated_printed" by [Np]^m.
    """
    if variant not in INTEGER_VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}")
    if m < 0 or n_mod < 1 or alpha < 1:
        raise PreconditionError(f"need m >= 0, N >= 1, alpha >= 1, got m={m} N={n_mod} alpha={alpha}")
    a_red = a % n_mod
    if a_red == 0:
        raise PreconditionError(f"residue a = {a} vanishes mod N = {n_mod}")
    first = q_int(n_mod, alpha, mode) ** m * qeuler_poly(m, alpha, Fraction(a_red, n_mod), BaseLifted(mode, n_mod))
    if variant == "naive":
        return first
    if p is None or not is_odd_prime(p):
        raise PreconditionError(f"interpolated variants need an odd prime p, got {p}")
    if gcd(p, n_mod) != 1:
        raise PreconditionError(f"p = {p} must be invertible mod N = {n_mod}")
    a_inv = (pow(p, -1, n_mod) * a_red) % n_mod
    inner = qeuler_poly(m, alpha, Fraction(a_inv, n_mod), BaseLifted(mode, n_mod * p))
    if variant == "interpolated_printed":
        second = q_int(n_mod * p, alpha, mode) ** m * inner
    else:
        try:
            second = q_int(n_mod, alpha, mode) ** (m - 1) * q_int(n_mod * p, alpha, mode) * inner
        except ZeroDivisionError:
            # only m = 0 divides, by [N]
            raise PoleError(f"pole in the interpolated value ([{n_mod}] vanishes at this q)") from None
    return first - second


def interp_series(s, a: int, n_mod: int, j_trunc: int, alpha: int, q: PadicNum, cfg: PadicConfig) -> PadicNum:
    """Binomial-series reading of the interpolated value at exponent s.

    head * sum_j C(s,j) q^(alpha a j) ([N]/[a])^j Etilde_j(base q^N),
    head = w^-1(a) <a>^s.  A nonnegative integer s <= J terminates after
    s+1 terms, since C(s, s+1) is exactly zero; any other s is a genuine
    series and requires p | N so the ratio is small.

    The numbers E_j come from one qeuler_numbers table at base q^N, whose
    recurrence divides only by p-adic units: every E_j keeps all K
    digits and is a p-adic integer.  (The closed form would lose
    j v_p(1 - q^(alpha N)) digits of E_j, which leaves the terminating
    value at s = 122, p = 3, N = 3 no digit.)  Since C(s, j) and E_j are
    integral, the tail after J is divisible by ratio^(J+1); when it is
    not exactly zero the result is blurred by that approximate zero, so
    the returned precision stays honest.
    """
    if a < 1 or n_mod < 1 or alpha < 1:
        raise PreconditionError(f"need a >= 1, N >= 1, alpha >= 1, got a={a} N={n_mod} alpha={alpha}")
    if j_trunc < 1:
        raise PreconditionError(f"truncation order must be >= 1, got {j_trunc}")
    if gcd(a, cfg.p) != 1:
        raise PreconditionError(f"a = {a} must be a unit mod p = {cfg.p}")
    # C(s, j) for j <= J, plus one more when the series does not end by J
    coeffs = list(islice(_binomial_coeffs(s), j_trunc + 2))
    terminates = len(coeffs) <= j_trunc + 1
    if not terminates and n_mod % cfg.p != 0:
        raise ConvergenceError(
            f"series at s = {s} needs p = {cfg.p} dividing N = {n_mod} to converge"
        )
    mode = PadicMode(q, cfg)
    one = mode.from_rational(1)
    head = teichmuller_inverse(a, cfg) * q_pow(normalized_bracket(a, q, alpha, cfg), s, cfg)
    ratio = (one - mode.q_power(alpha * n_mod)) / (one - mode.q_power(alpha * a))

    coeffs = coeffs[: j_trunc + 1]
    numbers = qeuler_numbers(len(coeffs) - 1, alpha, BaseLifted(mode, n_mod))

    acc = mode.from_rational(0)
    rpow = one
    for j, (coeff, euler_j) in enumerate(zip(coeffs, numbers)):
        acc = acc + coeff * mode.q_power(alpha * a * j) * euler_j * rpow
        rpow = rpow * ratio
    value = head * acc
    if not terminates:
        value = value + PadicNum.approx_zero(cfg.p, (j_trunc + 1) * int(ratio.valuation))
    return value


def bracket_weighted_sum(m: int, h: int, k: int, alpha: int, variant: str, mode, p: int = None):
    """sum_{M=1}^{k-1} (-1)^(M-1) [M] interp_value(m, hM, k, variant), unchecked.

    The variant is the reading each term uses; the interpolated
    readings need p.
    """
    return alternating_sum(mode, (
        (q_int(big_m, alpha, mode), interp_value(m, h * big_m, k, variant, mode, alpha=alpha, p=p))
        for big_m in range(1, k)
    ))


def padic_dc_sum(m: int, h: int, k: int, alpha: int, p: int, mode, variant: str = "interpolated"):
    """Interpolated Dedekind-type sum: bracket-weighted interp values.

    Runs under the interpolation constraints (p odd, p does not divide
    k, m + 1 divisible by p - 1).  The variant selects the reading each
    term uses.
    """
    params = DCParams(h=h, k=k, m=m, alpha=alpha, l=k, p=p)
    params.require_interpolation_domain()
    return bracket_weighted_sum(m, h, k, alpha, variant, mode, p)
