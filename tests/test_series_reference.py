"""interp_series against a term-by-term PadicNum reference.

The reference below is the series sum written one PadicNum operation at
a time: every term C(s,j) q^(alpha a j) E_j ratio^j is a product of
PadicNum values and the terms are added one by one, each addition
keeping the smaller absolute precision.  interp_series sums the same
terms on ints and wraps once; the two must agree digit for digit and in
the precision they claim, and raise the same errors.

The golden file pins alpha = 1 and q = 1 + p only.  Here p, alpha, q's
distance from 1 and q's precision vary, with s an int inside and past
the truncation, a negative int, a Fraction and a p-adic number known to
many or few digits.
"""

from fractions import Fraction
from itertools import islice
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qde.dedekind import interp_series
from qde.errors import ConvergenceError, PreconditionError
from qde.padic import PadicConfig, PadicNum, normalized_bracket, q_pow, teichmuller_inverse
from qde.qeuler import BaseLifted, PadicMode, qeuler_numbers


def binomial_coeffs(x):
    """C(x, 0), C(x, 1), ... in x's own arithmetic, ending before the first exact zero."""
    c = Fraction(1)
    j = 0
    while True:
        yield c
        j += 1
        c = c * (x - (j - 1)) / j
        if c.is_exact_zero if isinstance(c, PadicNum) else c == 0:
            return


def reference_interp_series(s, a, n_mod, j_trunc, alpha, q, cfg):
    """head * sum_j C(s,j) q^(alpha a j) E_j ratio^j, summed term by term in PadicNum arithmetic."""
    if a < 1 or n_mod < 1 or alpha < 1:
        raise PreconditionError(f"need a >= 1, N >= 1, alpha >= 1, got a={a} N={n_mod} alpha={alpha}")
    if j_trunc < 1:
        raise PreconditionError(f"truncation order must be >= 1, got {j_trunc}")
    if gcd(a, cfg.p) != 1:
        raise PreconditionError(f"a = {a} must be a unit mod p = {cfg.p}")
    coeffs = list(islice(binomial_coeffs(s), j_trunc + 2))
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


def outcome(f, *args):
    """repr of the value, or the exception's type and message."""
    try:
        return repr(f(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@st.composite
def series_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    prec = draw(st.sampled_from([6, 12, 32]))
    t = draw(st.sampled_from([1, 2, p]))
    # q's precision below, at and above K; two or three digits can leave 1 - q^alpha an approximate zero
    q_prec = draw(st.sampled_from([2, 3, prec // 2, prec - 1, prec, prec + 1, 2 * prec]))
    # p | N for every s; p prime to N only where s terminates, and there the ratio is a unit
    n_mod = draw(st.sampled_from([p, 2 * p, p * p, p + 1]))
    j_trunc = draw(st.integers(1, 12))
    a = draw(st.integers(1, 3 * p * p).filter(lambda a: a % p))
    alpha = draw(st.sampled_from([1, 2, 3]))
    s = draw(st.one_of(
        st.integers(0, j_trunc),
        st.integers(j_trunc + 1, 40),
        st.integers(-40, -1),
        st.builds(
            lambda f, k: f * p**k,
            st.fractions(-30, 30, max_denominator=20).filter(lambda f: f.denominator > 1 and f.denominator % p),
            st.integers(0, 3),
        ),
        st.builds(
            lambda x, digits: PadicNum.from_rational(x, p, digits),
            st.fractions(-30, 30, max_denominator=8).filter(lambda f: f.denominator % p),
            st.sampled_from([1, 2, 3, prec]),
        ),
    ))
    return s, a, n_mod, j_trunc, alpha, PadicNum.from_rational(1 + p * t, p, q_prec), PadicConfig(p, prec)


def case_at(s, a, n_mod, j_trunc, alpha, q, q_prec, p, prec):
    return s, a, n_mod, j_trunc, alpha, PadicNum.from_rational(q, p, q_prec), PadicConfig(p, prec)


@settings(max_examples=400)
@given(series_cases())
# q known to fewer digits than K: C(s, 0) q^0 claims q's digits, not K; with v_3(s) = 2 the head
# and the later terms claim more, so term 0 sets the precision
@example(case_at(Fraction(9, 2), 2, 3, 12, 1, 4, 3, 3, 6))
# 3 does not divide N, so the ratio is a unit and the sum 1 + q^2 E_1 ratio is divisible by 3:
# the ratio's relative precision sets the precision of term 1
@example(case_at(1, 2, 4, 2, 1, 4, 3, 3, 6))
def test_series_is_the_term_by_term_sum(case):
    assert outcome(interp_series, *case) == outcome(reference_interp_series, *case)
