"""Alternating Dedekind-type sums and their q-deformations.

The classical sum pairs the sawtooth weight M/k with the periodic Euler
function.  Its q-analogue replaces both factors by bracket numbers and
weighted q-Euler polynomial values, and interpolates p-adically through
a two-term combination of scaled q-Euler values (interp_value) or the
binomial series built on the unit bracket (interp_series).

The sums have one kernel each in qeuler, summed over one known
denominator: q_dc_sum is weighted_euler_sum, over P_l (1 -
q^(alpha l))^m (1 - q^(alpha k)), and bracket_weighted_sum (so
padic_dc_sum) is weighted_scaled_sum, over P_kp (1 - q^alpha)^(m+1)
[p]^(m-1), P_B = prod_l (1 + q^((alpha l + 1) B)).  interp_value's
interpolated readings are weighted_scaled_sum's one-term case, and its
naive reading is scaled_qeuler, a scaled value formed with no product
(see there); it and bracket_weighted_sum check their parameters with
one helper (_residues).  The two kernels stay separate
formulations: eq6 compares [k]^(m+1) q_dc_sum with the naive
bracket-weighted sum, and theorem1 the interpolated one with two
q_dc_sum values.

Reduction conventions, recorded once here: interp_value always reduces
its residue argument into 1..N before evaluating, matching the finite
expansion of identity eq6; interp_series uses the residue literally, so
the two agree only for arguments already below N.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import ConvergenceError, PreconditionError
from .padic import (
    PadicConfig,
    PadicNum,
    is_odd_prime,
    normalized_bracket,
    q_pow,
    require_odd_prime,
    teichmuller_inverse,
)
from .qeuler import (
    BaseLifted,
    PadicMode,
    binomial_series,
    periodic_euler,
    scaled_qeuler,
    weighted_euler_sum,
    weighted_scaled_sum,
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
        if self.p is not None:
            require_odd_prime(self.p)

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

    (1/[k]) sum_{M=1}^{k-1} (-1)^(M-1) [M] E_m({hM/k}; q^l): each term
    pairs the bracket ratio [M]/[k] with the degree-m weighted q-Euler
    polynomial at the reduced fraction {hM/k}, base q^l.  The sum is
    qeuler.weighted_euler_sum, over the one denominator its terms share.
    Modes that cannot represent the resulting fractional q-exponents raise
    ExponentError from the inside; no pre-check duplicates that.
    """
    DCParams(h=h, k=k, m=m, alpha=alpha, l=l)
    return weighted_euler_sum(m, alpha, [Fraction(h * big_m % k, k) for big_m in range(1, k)], l, mode)


def interp_value(m: int, a: int, n_mod: int, variant: str, mode, *, alpha: int = 1, p: int = None):
    """Scaled q-Euler value at a residue, in one of three readings.

    "naive" is [N]^m Etilde_m(a/N) at base q^N with a reduced into 1..N-1.
    The interpolated variants subtract a second term at base q^(Np) and
    the p-inverted residue; "interpolated" scales it by [N]^(m-1) [Np]
    (ratio [Np]/[N] when m = 0), "interpolated_printed" by [Np]^m.

    The naive reading is qeuler.scaled_qeuler: a term [d]^m E_m(y/d; q^d)
    is formed over (1 - q^alpha)^m with no product, only the division
    using 1 - q^alpha (scaled_qeuler says why).  An interpolated reading
    is bracket_weighted_sum's kernel, qeuler.weighted_scaled_sum, at its
    one term M = 1, where [1] = 1: the "interpolated" second term is S(m,
    a_inv p, Np) / [p]^(m-1), formed over the same denominator as the
    first.  The parameters are checked as bracket_weighted_sum checks
    them, p after the residue and before any term is formed.
    """
    firsts, seconds = _residues(variant, m, n_mod, alpha, [a], p)
    if seconds is None:
        return scaled_qeuler(m, alpha, firsts[0], n_mod, mode)
    return weighted_scaled_sum(m, alpha, n_mod, firsts, seconds, p, variant == "interpolated", mode)


def _residues(variant: str, m: int, n_mod: int, alpha: int, values: list, p: int) -> tuple:
    """The residues of values mod N, and for an interpolated reading their p-inverted ones (else None).

    Checked in this order: the variant, m, N and alpha, every residue,
    then p, an odd prime invertible mod N.
    """
    if variant not in INTEGER_VARIANTS:
        raise PreconditionError(f"unknown variant {variant!r}")
    _check_m_n_alpha(m, n_mod, alpha)
    firsts = [a % n_mod for a in values]
    for a, r in zip(values, firsts):
        if not r:
            raise PreconditionError(f"residue a = {a} vanishes mod N = {n_mod}")
    if variant == "naive":
        return firsts, None
    if p is None or not is_odd_prime(p):
        raise PreconditionError(f"interpolated variants need an odd prime p, got {p}")
    if gcd(p, n_mod) != 1:
        raise PreconditionError(f"p = {p} must be invertible mod N = {n_mod}")
    return firsts, [pow(p, -1, n_mod) * r % n_mod for r in firsts]


def _check_m_n_alpha(m: int, n_mod: int, alpha: int) -> None:
    if m < 0 or n_mod < 1 or alpha < 1:
        raise PreconditionError(f"need m >= 0, N >= 1, alpha >= 1, got m={m} N={n_mod} alpha={alpha}")


def interp_series(s, a: int, n_mod: int, j_trunc: int, alpha: int, q: PadicNum, cfg: PadicConfig) -> PadicNum:
    """Binomial-series reading of the interpolated value at exponent s.

    head * sum_j C(s,j) q^(alpha a j) ([N]/[a])^j Etilde_j(base q^N),
    head = w^-1(a) <a>^s.  A nonnegative integer s <= J terminates after
    s+1 terms, since C(s, s+1) is exactly zero; any other s is a genuine
    series and requires p | N so the ratio is small.

    The numbers E_j are the residues of one _numbers_at table at base
    q^N, whose recurrence divides only by p-adic units: E_0 is known to
    K digits and every E_j, j >= 1, to A = min(abs_prec(q), K)
    absolute digits, a p-adic integer.  (The closed form would lose
    j v_p(1 - q^(alpha N)) digits of E_j, which leaves the terminating
    value at s = 122, p = 3, N = 3 no digit.)  Since C(s, j) and E_j are
    integral, the tail after J is divisible by ratio^(J+1); when it is
    not exactly zero the result is blurred by that approximate zero, so
    the returned precision stays honest.

    The head and the ratio (1 - q^(alpha N)) / (1 - q^(alpha a)) are
    PadicNum values.  The sum, C(s, j) from one int recurrence included,
    is qeuler.binomial_series, on ints mod p^A: it claims what
    multiplying and adding the terms as PadicNum values claims, and a
    p-adic s at another prime fails there.
    """
    if a < 1 or n_mod < 1 or alpha < 1:
        raise PreconditionError(f"need a >= 1, N >= 1, alpha >= 1, got a={a} N={n_mod} alpha={alpha}")
    if j_trunc < 1:
        raise PreconditionError(f"truncation order must be >= 1, got {j_trunc}")
    if gcd(a, cfg.p) != 1:
        raise PreconditionError(f"a = {a} must be a unit mod p = {cfg.p}")
    # only a nonnegative integer s <= J, or an exact zero, ends the series by J
    exact = s if not isinstance(s, PadicNum) else 0 if s.is_exact_zero else None
    terminates = exact is not None and Fraction(exact).denominator == 1 and 0 <= exact <= j_trunc
    if not terminates and n_mod % cfg.p != 0:
        raise ConvergenceError(
            f"series at s = {s} needs p = {cfg.p} dividing N = {n_mod} to converge"
        )
    mode = PadicMode(q, cfg)
    one = mode.from_rational(1)
    head = teichmuller_inverse(a, cfg) * q_pow(normalized_bracket(a, q, alpha, cfg), s, cfg)
    ratio = (one - mode.q_power(alpha * n_mod)) / (one - mode.q_power(alpha * a))

    value = head * binomial_series(BaseLifted(mode, n_mod), alpha, s, j_trunc, alpha * a, ratio)
    if not terminates:
        value = value + PadicNum.approx_zero(cfg.p, (j_trunc + 1) * int(ratio.valuation))
    return value


def bracket_weighted_sum(m: int, h: int, k: int, alpha: int, variant: str, mode, p: int = None):
    """sum_{M=1}^{k-1} (-1)^(M-1) [M] interp_value(m, hM, k, variant), unchecked.

    The variant is the reading each term uses; the interpolated
    readings need p.  The sum is qeuler.weighted_scaled_sum, over the one
    denominator its terms share, not a sum of interp_value calls, and
    interp_value's interpolated readings are its one-term case.  Both
    check their parameters with one helper, before any term is formed:
    every residue before p.
    """
    if k <= 1:
        return mode.from_rational(0)
    firsts, seconds = _residues(variant, m, k, alpha, [h * big_m for big_m in range(1, k)], p)
    return weighted_scaled_sum(m, alpha, k, firsts, seconds, p, variant == "interpolated", mode)


def padic_dc_sum(m: int, h: int, k: int, alpha: int, p: int, mode, variant: str = "interpolated"):
    """Interpolated Dedekind-type sum: bracket-weighted interp values.

    Runs under the interpolation constraints (p odd, p does not divide
    k, m + 1 divisible by p - 1).  The variant selects the reading each
    term uses.
    """
    params = DCParams(h=h, k=k, m=m, alpha=alpha, l=k, p=p)
    params.require_interpolation_domain()
    return bracket_weighted_sum(m, h, k, alpha, variant, mode, p)
