"""The q-Euler kernels written term by term in the mode's own arithmetic.

Each reference below is the kernel's formula evaluated one mode value at
a time: every power of q comes from mode.q_power and every sum, product
and quotient is Fraction, RatFunc or PadicNum arithmetic.  The kernels
in qde.qeuler put each formula over one denominator instead and build
the value once: on ints at a fixed rational or p-adic q, and in symbolic
mode on packed polynomials, each one int, its value at 2^(8w) with w
bytes per coefficient.  w comes from the formula's L1 bounds (P = prod
(1 + Q^e) has 2^#factors, each quotient P / (1 + Q^e) 2^(#factors-1),
the closed form's numerator 2 sum |c_i| 2^n 2^(#factors-1), a table
entry N[l] 2^(top-l) times its own numerator's), and the exact quotient
by 1 + Q^k is the balanced residue of a (1 - Y)(1 + Y^2)...(1 +
Y^(2^(t-1))) = q (1 - Y^(2^t)) mod Y^(2^t), Y = Q^k.

The two must agree: as rational functions with the same to_json() in
symbolic mode, as Fractions at a rational q, and digit for digit, in
valuation, unit and claimed precision, at a p-adic q.  The references form the powers of q in the formula's order, so an
unrepresentable power or a pole raises here what the kernel raises, in
type and message.  The property tests that hold the kernels to these
references are TestFixedDenominator, TestFixedRational and
TestFixedModulus in test_qeuler.py, and test_residue_reference.py.

The one place the two differ on purpose is the degree limit: a symbolic
kernel raises ResourceLimitError when a polynomial it would form passes
MAX_DEGREE, while a reference may still answer, because RatFunc redoes
an operation in lowest terms where its unreduced degree would pass it.
"""

from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import comb
from operator import mul

import pytest

from qde import catalog, dedekind, qeuler
from qde.errors import PoleError, PreconditionError
from qde.qeuler import BaseLifted, _check_n_alpha, root_mode


def alternating_sum(mode, terms):
    """sum_i (-1)^i t_i, each t_i a tuple of factors multiplied left to right, term by term."""
    acc = mode.from_rational(0)
    for i, factors in enumerate(terms):
        t = reduce(mul, factors)
        acc = acc + t if i % 2 == 0 else acc - t
    return acc


def reference_q_int(x, alpha, mode):
    """1 + q^alpha + ... + q^(alpha(x-1)), summed term by term."""
    if x < 0:
        raise PreconditionError(f"q_int needs a nonnegative integer, got {x}")
    acc = mode.from_rational(0)
    for i in range(x):
        acc = acc + mode.q_power(alpha * i)
    return acc


def reference_qeuler_poly(n, alpha, x, mode, outer=None):
    """(1+q)/(1-q^alpha)^n * sum_l C(n,l) (-1)^l q^(alpha l x) / (1 + q^(alpha l + 1)), term by term.

    With outer, the mode at q of a mode at base q^B, it is the same sum
    over outer's (1 - q^alpha)^n: [B]^n E_n(x; q^B), since [B]^n / (1 -
    q^(alpha B))^n = 1 / (1 - q^alpha)^n.  E_n's own division is made
    first, so that where it fails this raises what E_n raises.
    """
    _check_n_alpha(n, alpha)
    x = Fraction(x)
    if x.denominator == 1:
        x = x.numerator
    one, acc = mode.from_rational(1), mode.from_rational(0)
    try:
        for l in range(n + 1):
            c = comb(n, l) if l % 2 == 0 else -comb(n, l)
            num = c if x == 0 else c * mode.q_power(alpha * l * x)
            acc = acc + num / (one + mode.q_power(alpha * l + 1))
        value = (one + mode.q_power(1)) * acc
        e_n = value / (one - mode.q_power(alpha)) ** n
        return e_n if outer is None else value / (one - outer.q_power(alpha)) ** n
    except ZeroDivisionError:
        raise PoleError("pole in q-Euler polynomial (a denominator vanishes at this q)") from None


def reference_scaled(n, alpha, x, base, mode):
    """[base]^n E_n(x; q^base), with [base] the weight-alpha q-integer, term by term.

    In symbolic and rational mode it is that product, E_n first.  At a
    p-adic q it is E_n's sum over (1 - q^alpha)^n, which keeps the n
    v_p(base) digits that dividing by (1 - q^(alpha base))^n and
    multiplying by [base]^n lose.
    """
    inner = BaseLifted(mode, base)
    if root_mode(mode).kind == "padic":
        return reference_qeuler_poly(n, alpha, x, inner, mode)
    return reference_qeuler_poly(n, alpha, x, inner) * reference_q_int(base, alpha, mode) ** n


def reference_scaled_qeuler(n, alpha, y, d, mode):
    """[d]^n E_n(y/d; q^d), term by term (reference_scaled)."""
    _check_n_alpha(n, alpha)
    return reference_scaled(n, alpha, Fraction(y) / d, d, mode)


def reference_qeuler_numbers(top, alpha, mode):
    """E_0..E_top from E_n = -q/(1 + q^(alpha n + 1)) * sum_{l<n} C(n,l) q^(alpha l) E_l, term by term."""
    _check_n_alpha(top, alpha)
    one = mode.from_rational(1)
    q = mode.q_power(1)
    numbers = [one]
    # weighted[l] = q^(alpha l) E_l, the factor every later E_n sums over
    weighted = [one]
    for n in range(1, top + 1):
        acc = weighted[0]
        for l in range(1, n):
            acc = acc + comb(n, l) * weighted[l]
        try:
            e_n = -q * acc / (one + mode.q_power(alpha * n + 1))
        except ZeroDivisionError:
            raise PoleError(f"pole in q-Euler numbers (1 + q^{alpha * n + 1} vanishes at this q)") from None
        numbers.append(e_n)
        weighted.append(mode.q_power(alpha * n) * e_n)
    return numbers


def reference_qeuler_poly_additive(n, alpha, x, mode):
    """sum_l C(n,l) q^(alpha l x) E_l [x]^(n-l), term by term."""
    _check_n_alpha(n, alpha)
    if not isinstance(x, int) or x < 0:
        raise PreconditionError(f"additive form needs a nonnegative integer x, got {x}")
    bracket = reference_q_int(x, alpha, mode)
    numbers = reference_qeuler_numbers(n, alpha, mode)
    acc = mode.from_rational(0)
    # [x]^(n-l) as a running product: no power of an exact zero is formed
    power = mode.from_rational(1)
    for l in range(n, -1, -1):
        acc = acc + comb(n, l) * mode.q_power(alpha * l * x) * numbers[l] * power
        power = power * bracket
    return acc


def reference_residue_split(mode, base, n, alpha, xs, step, corrected, factor=None):
    """(1+q^step)/(1+q^(step count)) * sum_i (-1)^i [factor] w_i [base]^n E_n(x_i; q^base), term by term."""

    def factors(i, x):
        t = (reference_scaled(n, alpha, x, base, mode),)
        if factor is not None:
            t = (factor,) + t
        return t + (mode.q_power(step * i),) if corrected else t

    acc = alternating_sum(mode, (factors(i, x) for i, x in enumerate(xs)))
    one = mode.from_rational(1)
    try:
        ratio = (one + mode.q_power(step)) / (one + mode.q_power(step * len(xs)))
    except ZeroDivisionError:
        raise PoleError(f"pole in the residue split (1 + q^{step * len(xs)} vanishes at this q)") from None
    return ratio * acc


def reference_weighted_euler_sum(m, alpha, xs, base, mode):
    """(1/[k]) sum_M (-1)^(M-1) [M] E_m(x_M; q^base), k = len(xs) + 1, term by term: q_dc_sum's sum as it was written."""
    _check_n_alpha(m, alpha)
    lifted = BaseLifted(mode, base)
    acc = alternating_sum(mode, (
        (reference_q_int(big_m, alpha, mode), reference_qeuler_poly(m, alpha, x, lifted))
        for big_m, x in enumerate(xs, 1)
    ))
    return acc / reference_q_int(len(xs) + 1, alpha, mode)


def reference_interp_term(m, alpha, k, y, z, p, corrected, mode):
    """S(m, y, k) - T, term by term: interp_value's value at the residue y, its p-inverted residue z.

    T = 0 with no z (naive), else S(m, z p, kp) (printed) or the product
    [k]^(m-1) [kp] E_m(z/k; q^(kp)) (corrected), as interp_value wrote it.
    """
    first = reference_scaled_qeuler(m, alpha, y, k, mode)
    if z is None:
        return first
    if not corrected:
        return first - reference_scaled_qeuler(m, alpha, z * p, k * p, mode)
    inner = reference_qeuler_poly(m, alpha, Fraction(z, k), BaseLifted(mode, k * p))
    try:
        second = reference_q_int(k, alpha, mode) ** (m - 1) * reference_q_int(k * p, alpha, mode) * inner
    except ZeroDivisionError:
        raise PoleError(f"pole in the interpolated value ([{k}] vanishes at this q)") from None
    return first - second


def reference_weighted_scaled_sum(m, alpha, k, firsts, seconds, p, corrected, mode):
    """sum_M (-1)^(M-1) [M] (S(m, a_M, k) - T_M), term by term: bracket_weighted_sum's sum over interp_value's terms."""
    _check_n_alpha(m, alpha)
    return alternating_sum(mode, (
        (reference_q_int(big_m, alpha, mode),
         reference_interp_term(m, alpha, k, y, None if seconds is None else seconds[big_m - 1], p, corrected, mode))
        for big_m, y in enumerate(firsts, 1)
    ))


# by the name of the kernel in qde.qeuler
REFERENCES = {
    "q_int": reference_q_int,
    "qeuler_poly": reference_qeuler_poly,
    "qeuler_numbers": reference_qeuler_numbers,
    "qeuler_poly_additive": reference_qeuler_poly_additive,
    "residue_split": reference_residue_split,
    "scaled_qeuler": reference_scaled_qeuler,
    "weighted_euler_sum": reference_weighted_euler_sum,
    "weighted_scaled_sum": reference_weighted_scaled_sum,
}


@contextmanager
def reference_kernels():
    """Run catalog checks and Dedekind-type sums on the references, in the modes' own arithmetic.

    The references take the place of the kernels qde.catalog and
    qde.dedekind import, and qeuler._ints gives no int view.
    """
    with pytest.MonkeyPatch.context() as mp:
        for module in (catalog, dedekind):
            for name, ref in REFERENCES.items():
                if hasattr(module, name):
                    mp.setattr(module, name, ref)
        mp.setattr(qeuler, "_ints", lambda mode, capped=True: None)
        yield
