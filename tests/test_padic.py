import random
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import inf
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qde.errors import ConvergenceError, PrecisionError, PreconditionError
from qde.padic import (
    DEFAULT_PRECISION,
    PadicConfig,
    PadicNum,
    _one_unit_pow,
    agreement_valuation,
    normalized_bracket,
    q_pow,
    rational_valuation,
    teichmuller,
    teichmuller_inverse,
)
import test_root_lift
from test_series_reference import binomial_coeffs

CFG3 = PadicConfig(3, 32)


def pn(x, p=3, prec=32):
    return PadicNum.from_rational(Fraction(x), p, prec)


def binomial_series(t: PadicNum, x, cfg: PadicConfig) -> PadicNum:
    """Reference for _one_unit_pow: the summed series of C(x,j) t^j, v_p(t) >= 1.

    Stops once every remaining term provably exceeds the accumulated
    sum's absolute precision.  The bound uses v_p(C(x,j) t^j) >=
    j*v1 - (j-1)/(p-1), increasing in j because v1 >= 1 > 1/(p-1).
    """
    p = cfg.p
    acc = power = PadicNum.from_rational(1, p, cfg.prec)
    if t.is_exact_zero:
        return acc
    for j, c in enumerate(islice(binomial_coeffs(x), 1, None), 1):
        # tail bound: min valuation over all terms with index >= j
        if Fraction(j) * t.val - Fraction(j - 1, p - 1) > acc.abs_prec:
            break
        power = power * t
        acc = acc + power * c
    return acc


@st.composite
def one_unit_pow_cases(draw):
    """(b, x, cfg) with b a 1-unit at a precision below, at or above K, x a p-adic integer."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    k = draw(st.integers(1, 64))
    bprec = draw(st.sampled_from([max(k - draw(st.integers(1, 8)), 1), k, k + draw(st.integers(1, 8))]))
    # v_p(b - 1) >= bprec makes b - 1 an approximate zero
    tval = draw(st.integers(1, bprec + 1))
    b = PadicNum(p, 0, 1 + p**tval * draw(st.integers(0, p**bprec)), bprec)
    kind = draw(st.sampled_from(["int", "fraction", "padic", "approx_zero", "zero"]))
    if kind == "int":
        x = draw(st.integers(-200, 200))
    elif kind == "fraction":
        den = draw(st.integers(1, 60).filter(lambda d: d % p))
        x = Fraction(draw(st.integers(-500, 500)), den)
    elif kind == "padic":
        x = PadicNum(p, draw(st.integers(0, 4)), draw(st.integers(1, p**70)), draw(st.integers(1, k + 6)))
    elif kind == "approx_zero":
        x = PadicNum.approx_zero(p, draw(st.integers(0, k + 6)))
    else:
        x = PadicNum.zero(p)
    return b, x, PadicConfig(p, k)


@st.composite
def padic_values(draw):
    """Any PadicNum: a unit times a power of p at some precision, or a zero of either kind."""
    p = draw(st.sampled_from([3, 5, 7, 11]))
    kind = draw(st.sampled_from(["value", "value", "value", "approx_zero", "zero"]))
    if kind == "approx_zero":
        return PadicNum.approx_zero(p, draw(st.integers(-3, 10)))
    if kind == "zero":
        return PadicNum.zero(p)
    unit = draw(st.integers(1, p**40).filter(lambda u: u % p))
    return PadicNum(p, draw(st.integers(-3, 3)), unit, draw(st.integers(1, 40)))


@st.composite
def scalar_cases(draw):
    """(x, c): x a unit, a non-unit, of negative valuation, or a zero of either kind, at p = 3, 5, 7;
    c an int, a Fraction, zero, or carrying a power of p in its numerator or denominator."""
    p = draw(st.sampled_from([3, 5, 7]))
    kind = draw(st.sampled_from(["unit", "non_unit", "negative", "approx_zero", "zero"]))
    if kind == "approx_zero":
        x = PadicNum.approx_zero(p, draw(st.integers(-4, 10)))
    elif kind == "zero":
        x = PadicNum.zero(p)
    else:
        val = {"unit": 0, "non_unit": draw(st.integers(1, 4)), "negative": draw(st.integers(-4, -1))}[kind]
        prec = draw(st.integers(1, 40))
        x = PadicNum(p, val, draw(st.integers(1, p**prec).filter(lambda u: u % p)), prec)
    nonzero = st.integers(-999, 999).filter(bool)
    ckind = draw(st.sampled_from(["int", "fraction", "zero", "p_numerator", "p_denominator"]))
    if ckind == "int":
        c = draw(nonzero)
    elif ckind == "fraction":
        c = Fraction(draw(nonzero), draw(st.integers(2, 999)))
    elif ckind == "zero":
        c = draw(st.sampled_from([0, Fraction(0)]))
    elif ckind == "p_numerator":
        c = Fraction(p ** draw(st.integers(1, 6)) * draw(nonzero), draw(st.integers(1, 99)))
    else:
        c = Fraction(draw(nonzero), p ** draw(st.integers(1, 6)) * draw(st.integers(1, 99)))
    return x, c


SCALAR_OPS = {
    "x+c": lambda x, c: x + c,
    "c+x": lambda x, c: c + x,
    "x-c": lambda x, c: x - c,
    "c-x": lambda x, c: c - x,
    "x*c": lambda x, c: x * c,
    "c*x": lambda x, c: c * x,
    "x/c": lambda x, c: x / c,
    "c/x": lambda x, c: c / x,
}


def outcome(op, x, c):
    """op(x, c), or the class of the arithmetic error it raises."""
    try:
        return op(x, c)
    except (ZeroDivisionError, PrecisionError) as exc:
        return type(exc)


class TestConfig:
    @pytest.mark.parametrize("p", [2, 4, 9, 1, -3])
    def test_rejects_non_odd_primes(self, p):
        with pytest.raises(PreconditionError):
            PadicConfig(p)

    @pytest.mark.parametrize("prec", [0, -2])
    def test_rejects_bad_precision(self, prec):
        # a nonzero value from PadicNum.from_rational or the constructor needs a digit too, and says so as
        # PadicConfig does
        for build in (PadicConfig, lambda p, prec: PadicNum.from_rational(1, p, prec),
                      lambda p, prec: PadicNum(p, 0, 1, prec)):
            with pytest.raises(PreconditionError, match=rf"^precision must be >= 1, got {prec}$"):
                build(3, prec)
        assert PadicNum.from_rational(0, 3, prec) == PadicNum.zero(3)


class TestConstruction:
    def test_from_rational_unit(self):
        x = pn(4)
        assert x.valuation == 0
        assert x.lift(2) == 4
        assert x.to_json()["digits"][:3] == [1, 1, 0]

    def test_from_rational_with_valuation(self):
        x = PadicNum.from_rational(Fraction(9, 2), 3, 4)
        assert x.valuation == 2
        # 1/2 = (3^4+1)/2 = 41 mod 3^4
        assert x.unit == 41

    def test_from_rational_negative_valuation(self):
        x = PadicNum.from_rational(Fraction(1, 3), 3, 8)
        assert x.valuation == -1

    def test_denominator_divisible_by_p_is_fine_only_via_valuation(self):
        # 1/6 = (1/2) * 3^{-1}
        x = PadicNum.from_rational(Fraction(1, 6), 3, 4)
        assert x.valuation == -1
        assert (x * pn(6, prec=4)).lift(3) == 1

    def test_exact_zero(self):
        z = PadicNum.zero(3)
        assert z.is_exact_zero and z.is_zero
        assert z.valuation == inf
        assert z.abs_prec == inf

    def test_approx_zero(self):
        z = PadicNum.approx_zero(3, 7)
        assert z.is_zero and not z.is_exact_zero
        assert z.valuation == 7
        assert z.abs_prec == 7

    def test_rational_valuation(self):
        assert rational_valuation(Fraction(9, 2), 3) == 2
        assert rational_valuation(Fraction(2, 27), 3) == -3
        assert rational_valuation(0, 3) == inf

    @pytest.mark.parametrize("p", [-1, 0, 1])
    def test_bases_below_two_are_rejected(self, p):
        # the valuation loop never ends at p = 1 or -1 and divides by zero at p = 0
        with pytest.raises(PreconditionError, match=f"p must be at least 2, got {p}"):
            PadicNum.from_rational(6, p)
        with pytest.raises(PreconditionError, match=f"p must be at least 2, got {p}"):
            rational_valuation(6, p)

    def test_two_is_a_base(self):
        # the symbolic measure and the oracle take p = 2
        assert PadicNum.from_rational(6, 2, 4) == PadicNum(2, 1, 3, 4)
        assert rational_valuation(Fraction(12, 5), 2) == 2


class TestArithmetic:
    def test_add_exact(self):
        assert (pn(5) + pn(7)).lift(3) == 12

    def test_add_caps_absolute_precision(self):
        a = PadicNum(3, 0, 1, 4)      # known mod 3^4
        b = PadicNum(3, 0, 1, 10)
        assert (a + b).abs_prec == 4

    def test_below_precision_shift_is_invisible(self):
        a = pn(Fraction(1, 2), prec=8)
        d = (a + 3**30) - a
        assert d.is_zero and d.valuation == 8

    def test_cancellation_gives_approx_zero(self):
        a = PadicNum(3, 0, 5, 4)
        b = PadicNum(3, 0, 5 + 81, 4)  # same value mod 3^4
        d = a - b
        assert d.is_zero and not d.is_exact_zero
        assert d.valuation == 4

    def test_mul_keeps_relative_precision(self):
        a = PadicNum(3, 1, 2, 5)
        b = PadicNum(3, 2, 1, 9)
        c = a * b
        assert c.valuation == 3
        assert c.prec == 5

    def test_div_fixture(self):
        q = pn(7) / pn(2)
        assert (q * pn(2)).lift(5) == 7

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            pn(1) / PadicNum.zero(3)

    def test_div_by_approx_zero_is_precision_error(self):
        # O(3^6) may be any multiple of 3^6: out of digits, not a pole
        with pytest.raises(PrecisionError):
            pn(1) / PadicNum.approx_zero(3, 6)
        with pytest.raises(PrecisionError):
            1 / PadicNum.approx_zero(3, 6)

    def test_reflected_division(self):
        x = PadicNum.from_rational(Fraction(2, 3), 3, 8)
        assert 1 / x == PadicNum.from_rational(Fraction(3, 2), 3, 8)
        assert Fraction(1, 2) / x == PadicNum.from_rational(Fraction(3, 4), 3, 8)
        # a float is refused like in every other operator, not recursed on
        for op in (lambda: 1.5 / x, lambda: 1.5 * x, lambda: x - 1.5):
            with pytest.raises(TypeError):
                op()

    def test_scalar_coercion_does_not_cap(self):
        x = PadicNum(3, 0, 2, 30)
        assert (x + 1).abs_prec == 30
        assert (Fraction(1, 2) * x).prec == 30

    def test_scalar_divisible_by_p_does_not_cap(self):
        # a scalar c gets max(prec, abs_prec - v_p(c) + 2) digits, so a
        # power of p in it costs the product or quotient no digit
        x = PadicNum.from_rational(Fraction(2, 3), 3, 32)
        for c in (27, 243, Fraction(27, 2), Fraction(1, 27)):
            assert (x * c).prec == 32
            assert (c * x).prec == 32
            assert (x / c).prec == 32
            assert (c / x).prec == 32

    @settings(deadline=None, max_examples=300)
    @given(scalar_cases())
    def test_scalar_is_from_rational_at_the_documented_precision(self, case):
        # an exact c meets x as PadicNum.from_rational(c, p, P) with
        # P = max(x.prec, A - v_p(c) + 2, 1), A = x.abs_prec, or
        # DEFAULT_PRECISION when x is the exact zero; zero is the exact zero
        x, c = case
        if c == 0:
            scalar = PadicNum.zero(x.p)
        else:
            top = DEFAULT_PRECISION if x.is_exact_zero else x.abs_prec
            prec = max(x.prec, top - rational_valuation(c, x.p) + 2, 1)
            scalar = PadicNum.from_rational(c, x.p, prec)
        for name, op in SCALAR_OPS.items():
            assert outcome(op, x, c) == outcome(op, x, scalar), name

    def test_pow(self):
        assert (pn(2) ** 5).lift(4) == 32
        assert (pn(5) ** 0).lift(1) == 1
        inv = pn(2) ** -1
        assert (inv * pn(2)).lift(6) == 1

    @settings(deadline=None)
    @given(padic_values(), st.integers(-9, 9).filter(bool))
    def test_pow_is_repeated_multiplication(self, x, e):
        # structural equality: valuation, unit and claimed precision all match
        if e > 0:
            assert x**e == reduce(mul, [x] * e)
        elif x.is_exact_zero:
            with pytest.raises(ZeroDivisionError):
                x**e
        elif x.is_zero:
            with pytest.raises(PrecisionError):
                x**e
        else:
            inv = PadicNum(x.p, 0, 1, x.prec) / x
            assert x**e == reduce(mul, [inv] * -e)

    def test_mixed_primes_rejected(self):
        with pytest.raises(PreconditionError):
            pn(1, p=3) + pn(1, p=5)

    @given(st.fractions(max_denominator=50), st.fractions(max_denominator=50))
    def test_matches_rational_arithmetic(self, a, b):
        pa, pb = pn(a, prec=20), pn(b, prec=20)
        s = pn(a + b, prec=20)
        assert agreement_valuation(pa + pb, s) >= 15


class TestLiftAndJson:
    def test_lift_requires_precision(self):
        x = PadicNum(3, 0, 1, 4)
        with pytest.raises(PreconditionError):
            x.lift(5)

    def test_lift_negative_valuation_rejected(self):
        x = PadicNum.from_rational(Fraction(1, 3), 3, 8)
        with pytest.raises(PreconditionError):
            x.lift(2)

    def test_json_roundtrip(self):
        # the digits are the unit's base-p digits, lowest first, one per digit of precision
        # 1 + p has 126 zero digits at K = 128, -1 none
        cases = (pn(Fraction(7, 2)), pn(Fraction(5, 9), prec=6), PadicNum.zero(3), PadicNum.approx_zero(3, 5),
                 pn(4, prec=128), pn(-1, prec=10))
        for x in cases:
            j = x.to_json()
            assert j["p"] == 3
            assert j["valuation"] == (None if x.is_exact_zero else x.valuation)
            assert j["precision"] == x.prec == len(j["digits"])
            assert all(0 <= d < 3 for d in j["digits"])
            assert sum(d * 3**i for i, d in enumerate(j["digits"])) == x.unit

    def test_exact_zero_serializes_null_valuation(self):
        assert PadicNum.zero(5).to_json()["valuation"] is None


class TestTeichmuller:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_root_of_unity_congruent_to_seed(self, p):
        cfg = PadicConfig(p, 24)
        for a in range(1, p):
            w = teichmuller(a, cfg)
            assert w.lift(1) == a
            assert (w ** (p - 1)).lift(24) == 1

    def test_multiplicative(self):
        cfg = PadicConfig(7, 20)
        for a in range(1, 7):
            for b in range(1, 7):
                lhs = teichmuller(a, cfg) * teichmuller(b, cfg)
                rhs = teichmuller(a * b, cfg)
                assert agreement_valuation(lhs, rhs) >= 20

    def test_inverse(self):
        cfg = PadicConfig(5, 16)
        for a in (1, 2, 3, 4, 7):
            prod = teichmuller(a, cfg) * teichmuller_inverse(a, cfg)
            assert prod.lift(16) == 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("prec", [1, 2, 16, 32, 128])
    def test_inverse_is_the_unit_inverse(self, p, prec):
        cfg = PadicConfig(p, prec)
        m = p**prec
        for a in range(-2 * p, 3 * p):
            if a % p:
                want = PadicNum(p, 0, pow(teichmuller(a, cfg).unit, -1, m), prec)
                assert teichmuller_inverse(a, cfg) == want

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("prec", [1, 2, 3, 8, 16, 32, 64, 128])
    def test_is_the_frobenius_fixed_point(self, p, prec):
        m = p**prec
        for a in range(-3 * p, 4 * p):
            if a % p:
                w = a % m
                while pow(w, p, m) != w:
                    w = pow(w, p, m)
                assert teichmuller(a, PadicConfig(p, prec)) == PadicNum(p, 0, w, prec)

    def test_non_unit_rejected(self):
        with pytest.raises(PreconditionError):
            teichmuller(6, PadicConfig(3, 8))
        with pytest.raises(PreconditionError):
            teichmuller_inverse(6, PadicConfig(3, 8))


class TestQPow:
    def test_integer_exponent_agrees_with_pow(self):
        # the 1-unit power itself, which q_pow skips for integer exponents
        q = pn(4)  # v_3(1-4) = 1
        for n in (0, 1, 2, 5):
            assert agreement_valuation(_one_unit_pow(q, n, CFG3), q**n) >= 28

    def test_negative_integer_exponent(self):
        q = pn(4)
        assert agreement_valuation(_one_unit_pow(q, -2, CFG3), q**-2) >= 28

    @settings(deadline=None, max_examples=300)
    @given(one_unit_pow_cases())
    def test_one_unit_pow_is_the_series(self, case):
        # structural equality: value, valuation and claimed precision all match
        b, x, cfg = case
        assert _one_unit_pow(b, x, cfg) == binomial_series(b - 1, x, cfg)

    def test_one_unit_pow_precision_rule(self):
        # N = min(K, abs_prec(t) + v_p(x), v_p(t) + abs_prec(x)) with t = b - 1
        b = PadicNum(3, 0, 1 + 9, 10)  # v(t) = 2, abs_prec(t) = 10
        assert _one_unit_pow(b, Fraction(9, 2), CFG3).abs_prec == 12
        assert _one_unit_pow(b, PadicNum(3, 0, 1, 5), CFG3).abs_prec == 7
        assert _one_unit_pow(b, Fraction(81, 2), PadicConfig(3, 11)).abs_prec == 11

    def test_one_unit_pow_rejects_non_integer_exponent_types(self):
        with pytest.raises(TypeError):
            _one_unit_pow(pn(4), 0.5, CFG3)

    def test_padic_exponent_with_negative_valuation_rejected(self):
        with pytest.raises(PreconditionError):
            q_pow(pn(4), pn(Fraction(1, 3)), CFG3)

    def test_integer_exponent_is_plain_power(self):
        # any unit, not only one in 1 + pZ_p, and a Fraction with denominator 1 alike
        for q in (pn(4), pn(2), pn(Fraction(5, 7))):
            for n in (0, 1, 3, -2):
                assert q_pow(q, n, CFG3) == q**n
                assert q_pow(q, Fraction(n), CFG3) == q**n

    def test_half_exponent_squares_back(self):
        q = pn(4)
        r = q_pow(q, Fraction(1, 2), CFG3)
        assert agreement_valuation(r * r, q) >= 28

    def test_homomorphism_small(self):
        q = pn(10)
        rng = random.Random(20260818)
        for _ in range(10):
            x = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
            y = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
            lhs = q_pow(q, x, CFG3) * q_pow(q, y, CFG3)
            rhs = q_pow(q, x + y, CFG3)
            assert agreement_valuation(lhs, rhs) >= 28

    def test_needs_q_close_to_one(self):
        q = pn(2)  # v_3(1-2) = 0
        with pytest.raises(ConvergenceError):
            q_pow(q, Fraction(1, 2), CFG3)

    def test_exponent_denominator_coprime_to_p(self):
        q = pn(4)
        with pytest.raises(PreconditionError):
            q_pow(q, Fraction(1, 3), CFG3)

    def test_padic_exponent(self):
        q = pn(4)
        s = pn(2)
        assert agreement_valuation(q_pow(q, s, CFG3), q * q) >= 28


class TestNormalizedBracket:
    def test_x_one_is_one(self):
        q = pn(4)
        b = normalized_bracket(1, q, 1, CFG3)
        assert b.lift(30) == 1

    def test_lands_in_one_plus_p(self):
        q = pn(4)
        for x in (1, 2, 5, 7):
            for alpha in (1, 2):
                b = normalized_bracket(x, q, alpha, CFG3)
                assert b.lift(1) == 1

    def test_q_pow_consistency(self):
        q = pn(4)
        b = normalized_bracket(2, q, 1, CFG3)
        sq = q_pow(b, 2, CFG3)
        assert agreement_valuation(sq, b * b) >= 28
        root = q_pow(b, Fraction(1, 2), CFG3)
        assert agreement_valuation(root * root, b) >= 28

    def test_non_unit_argument_rejected(self):
        with pytest.raises(PreconditionError):
            normalized_bracket(3, pn(4), 1, CFG3)

    @staticmethod
    def accepts(q, cfg) -> bool:
        """Whether normalized_bracket gets past its v_p(1 - q) >= 1 test; a later error may still end it."""
        try:
            normalized_bracket(2, q, 1, cfg)
        except ConvergenceError as exc:
            assert str(exc) == f"normalized_bracket needs v_{cfg.p}(1 - q) >= 1"
            return False
        except PrecisionError:
            # 1 - q^alpha is zero to the digits q is known to
            pass
        return True

    @pytest.mark.parametrize("prec", [1, 16])
    @pytest.mark.parametrize("q, accepted", test_root_lift.TestModeAcceptsExactlyTheOneUnits.GRID)
    def test_accepts_exactly_the_one_units(self, q, accepted, prec):
        assert self.accepts(q, PadicConfig(q.p, prec)) is accepted

    @given(st.sampled_from(test_root_lift.PRIMES), st.integers(-3, 3), st.integers(0, 10**6), st.integers(0, 6),
           st.sampled_from([1, 2, 8]))
    def test_matches_the_subtraction(self, p, val, unit, prec, kdigits):
        # the rule as a PadicNum subtraction states it, against a one known to K digits
        q = PadicNum(p, val, unit, prec) if unit and prec else PadicNum.approx_zero(p, val)
        diff = q - PadicNum.from_rational(1, p, kdigits)
        assert self.accepts(q, PadicConfig(p, kdigits)) is not (diff.is_exact_zero or diff.val < 1)
