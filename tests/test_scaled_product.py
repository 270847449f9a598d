"""scaled_qeuler against the product it replaced.

S(n, y, d) = [d]^n E_n(y/d; q^d) is formed by scaled_qeuler over
(1 - q^alpha)^n, with no product, since [d]^n / (1 - q^(alpha d))^n =
1 / (1 - q^alpha)^n.  The catalog and interp_value used to form it as
q_int(d)^n * qeuler_poly(n, alpha, y/d, BaseLifted(mode, d)), and that
product is kept here as a reference.  The two must be equal rational
functions in symbolic mode and equal Fractions at a rational q.  At a
p-adic q the product divides by (1 - q^(alpha d))^n and multiplies [d]^n
back in, which loses n v_p(d) digits, so S must agree with it to the
product's claimed precision and claim no fewer digits.  Errors must
agree in type and message: S keeps E_n(y/d; q^d)'s own poles and its
1 - q^(alpha d) that is zero to working precision.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qde.catalog import check
from qde.errors import PreconditionError
from qde.padic import PadicConfig, PadicNum
from qde.qeuler import (
    BaseLifted, PadicMode, RationalMode, SymbolicMode, compare_values, q_int, qeuler_poly, scaled_qeuler,
)


def outcome(run):
    """The value with its type, or the error's type and message."""
    try:
        v = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return type(v), v


def both(n, alpha, y, d, mode):
    """(S, the product) as outcome gives them."""
    s = outcome(lambda: scaled_qeuler(n, alpha, y, d, mode))
    product = outcome(lambda: q_int(d, alpha, mode) ** n * qeuler_poly(n, alpha, Fraction(y) / d, BaseLifted(mode, d)))
    return s, product


def _args(draw, dens):
    """n, alpha, y, d; y integral, fractional or negative."""
    y = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(dens)))
    return draw(st.integers(0, 3)), draw(st.integers(1, 2)), y, draw(st.integers(1, 4))


@st.composite
def symbolic_cases(draw):
    scale = draw(st.integers(1, 3))
    # denominators the scale can represent, and some it cannot
    return _args(draw, (1, scale, 2, 3)) + (SymbolicMode(scale),)


@st.composite
def rational_cases(draw):
    q0 = draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), 4, -2)))
    return _args(draw, (1, 1, 2)) + (RationalMode(q0),)


@st.composite
def padic_cases(draw):
    p, prec = draw(st.sampled_from((3, 5))), draw(st.sampled_from((8, 16, 32)))
    # q known to fewer digits than K, to K, and to more; 1 + p^(K+4) is 1 to K digits
    q_prec = prec + draw(st.sampled_from((-3, 0, 5)))
    q0 = 1 + p * draw(st.sampled_from((-1, 1, 2, p, p ** (prec + 3))))
    # a denominator divisible by p is not a p-adic exponent
    return _args(draw, (1, 1, 2, p)) + (PadicMode(PadicNum.from_rational(q0, p, q_prec), PadicConfig(p, prec)),)


@settings(max_examples=200, deadline=None)
@given(symbolic_cases())
# d = 1 is qeuler_poly itself; q^(1/3) is not representable at scale 2
@example((3, 2, Fraction(-5), 1, SymbolicMode(1)))
@example((2, 1, Fraction(1, 3), 3, SymbolicMode(2)))
def test_symbolic_s_is_the_product(case):
    s, product = both(*case)
    assert s == product
    if not isinstance(s[0], str):
        assert s[1].to_json() == product[1].to_json()


@settings(max_examples=200, deadline=None)
@given(rational_cases())
# 1 - q^2 vanishes at q = -1 though 1 - q does not, and 1 - q at q = 1; n = 0 divides by neither
@example((2, 1, Fraction(1), 2, RationalMode(-1)))
@example((0, 1, Fraction(1), 2, RationalMode(-1)))
@example((1, 2, Fraction(3), 3, RationalMode(1)))
# 1 + q^((alpha l + 1) d) vanishes at q = -1 for odd d
@example((2, 2, Fraction(1), 3, RationalMode(-1)))
def test_rational_s_is_the_product(case):
    s, product = both(*case)
    assert s == product


@settings(max_examples=300, deadline=None)
@given(padic_cases())
# q = 1 + 3^15 at K = 16: 1 - q^6 is zero to 16 digits and 1 - q is not, yet S raises E_n's PrecisionError
@example((2, 1, Fraction(1), 6, PadicMode(PadicNum.from_rational(1 + 3**15, 3, 16), PadicConfig(3, 16))))
# n = 0: the product's [d]^0 is 1 to the relative precision of [d]
@example((0, 1, Fraction(1), 3, PadicMode(PadicNum.from_rational(4, 3, 32), PadicConfig(3, 32))))
def test_padic_s_agrees_with_the_product_and_claims_no_fewer_digits(case):
    s, product = both(*case)
    if isinstance(s[0], str) or isinstance(product[0], str):
        assert s == product
        return
    s, product = s[1], product[1]
    assert isinstance(s, PadicNum)
    assert (s - product).is_zero
    assert s.abs_prec >= product.abs_prec


def test_recursion_gains_the_digits_the_product_lost():
    # recursion at m = 1, a = 1, N = 3, p = 3 and q = 4: [3] and [9] have valuations 1 and 2, so the products
    # [3] E_1(1/3; q^3) and [9] (1 + q^3)/(1 + q^9) sum_i (-1)^i q^(3i) E_1((1 + 3i)/9; q^9) lose 1 and 2 digits
    # and agree to 29 of K = 32; the scaled values lose only the 1 of 1 - q
    mode = PadicMode(PadicNum.from_rational(4, 3, 32), PadicConfig(3, 32))
    q = mode.q_power
    lhs = q_int(3, 1, mode) * qeuler_poly(1, 1, Fraction(1, 3), BaseLifted(mode, 3))
    terms = [(-1) ** i * q(3 * i) * qeuler_poly(1, 1, Fraction(1 + 3 * i, 9), BaseLifted(mode, 9)) for i in range(3)]
    rhs = q_int(9, 1, mode) * (1 + q(3)) / (1 + q(9)) * sum(terms)
    assert compare_values(mode, lhs, rhs) == {"padic_agreement": 29, "precision": 32}
    report = check("recursion", "corrected", {"m": 1, "a": 1, "N": 3, "p": 3, "alpha": 1}, mode)
    assert report.status == {"padic_agreement": 31, "precision": 32}


@pytest.mark.parametrize("mode", [
    SymbolicMode(), RationalMode(Fraction(1, 2)), PadicMode(PadicNum.from_rational(4, 3, 32), PadicConfig(3, 32)),
], ids=["symbolic", "rational", "padic"])
@pytest.mark.parametrize("d", [0, -1])
def test_a_base_exponent_below_one_is_a_precondition_error(mode, d):
    # checked before y / d is formed, so d = 0 is no ZeroDivisionError
    with pytest.raises(PreconditionError, match=f"base exponent must be positive, got {d}$"):
        scaled_qeuler(1, 1, 1, d, mode)
