"""Newton-lifted roots and Teichmuller representatives against full-width modular powers.

padic._root lifts a root of x^b = u from one p-adic digit to all of them.
The references below are the formulas it replaces, each one builtin pow
to an exponent of about K log2 p bits that never goes through _root:

- the root r_b = q^(1/b) mod p^A as u^(b^-1 mod p^A);
- the Teichmuller representative of a mod p^K as a^(p^(K-1));
- b^x for a 1-unit b and an exact p-adic integer x as b^X mod p^N, X = x
  mod p^N, at the precision N that _one_unit_pow states.

The kernel references in test_kernel_reference.py form their powers with
mode.q_power, which goes through _root, so these are the tests that hold
the lift to an independent formula.
"""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qde import qeuler
from qde.errors import PreconditionError
from qde.padic import PadicConfig, PadicNum, _one_unit_pow, _vp, q_pow, rational_valuation, teichmuller
from qde.qeuler import BaseLifted, PadicMode

PRIMES = [3, 5, 7, 11]
PRECISIONS = [1, 2, 16, 32, 127, 128, 200]


def full_width_root(u: int, b: int, p: int, n: int) -> int:
    m = p**n
    return pow(u, pow(b, -1, m), m)


def full_width_teichmuller(a: int, p: int, n: int) -> int:
    return pow(a, p ** (n - 1), p**n)


def full_width_one_unit_pow(b: PadicNum, x: Fraction, cfg: PadicConfig) -> PadicNum:
    p = cfg.p
    n = min(cfg.prec, (b - 1).abs_prec + rational_valuation(x, p))
    m = p**n
    return PadicNum(p, 0, pow(b.unit, x.numerator * pow(x.denominator, -1, m) % m, m), n)


@st.composite
def one_units(draw):
    """(q, K): a 1-unit q known to fewer digits than K, to K or to more, or the exact-looking 1 + p^20."""
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.sampled_from(PRECISIONS))
    prec = draw(st.sampled_from([max(k - draw(st.integers(1, 40)), 1), k, k + draw(st.integers(1, 8))]))
    if draw(st.booleans()):
        q = PadicNum.from_rational(1 + p**20, p, prec)
    else:
        q = PadicNum(p, 0, 1 + p * draw(st.integers(0, p**prec)), prec)
    return q, PadicConfig(p, k)


def exponents(p: int, fractional: bool = False):
    """Lists of p-adic integers a/b, b even or odd, a negative or p^j c; no integers where fractional."""
    den = st.integers(1, 60).filter(lambda b: b % p)
    num = st.builds(lambda j, c: p**j * c, st.sampled_from([0, 0, 1, 3, 25]), st.integers(-300, 300))
    x = st.builds(Fraction, num, den)
    return st.lists(x.filter(lambda x: x.denominator > 1) if fractional else x, min_size=1, max_size=6)


class TestRootOfQ:
    @given(one_units(), st.integers(1, 6), st.data())
    def test_int_view_power(self, case, base, data):
        q, cfg = case
        p = cfg.p
        mode = BaseLifted(PadicMode(q, cfg), base)
        for view in (qeuler._ints(mode), qeuler._ints(mode, capped=False)):
            m = view.m
            for x in data.draw(exponents(p)):
                e = x * base
                assert view.power(x) == (pow(q.unit, e.numerator * pow(e.denominator, -1, m) % m, m), 1)

    @given(one_units(), st.data())
    def test_mode_q_power_at_fractional_exponents(self, case, data):
        q, cfg = case
        mode = PadicMode(q, cfg)
        for x in data.draw(exponents(cfg.p, fractional=True)):
            assert mode.q_power(x) == full_width_one_unit_pow(q, x, cfg)

    @pytest.mark.parametrize("b", [2, 3, 4, 7, 8, 13])
    def test_fixed_roots_at_k_128(self, b):
        # r_b at the benchmark's precision, for even and odd b and the deep q = 1 + p^20
        for p in (3, 5):
            if b % p == 0:
                continue
            for q0 in (1 + p, 1 + p**20, 1 - 7 * p):
                mode = PadicMode(PadicNum.from_rational(q0, p, 128), PadicConfig(p, 128))
                view = qeuler._ints(mode)
                assert view.power(Fraction(1, b)) == (full_width_root(view.red(q0), b, p, 128), 1)


class TestTeichmuller:
    @pytest.mark.parametrize("K", PRECISIONS)
    @pytest.mark.parametrize("p", PRIMES)
    def test_every_unit_residue(self, p, K):
        for a in range(1, p):
            want = PadicNum(p, 0, full_width_teichmuller(a, p, K), K)
            # any integer in a's residue class, negative ones too, has the same lift
            for seed in (a, a + 7 * p, a - 3 * p):
                assert teichmuller(seed, PadicConfig(p, K)) == want


class TestQPow:
    @given(one_units(), st.data())
    def test_fraction_exponents(self, case, data):
        b, cfg = case
        for x in data.draw(exponents(cfg.p, fractional=True)):
            want = full_width_one_unit_pow(b, x, cfg)
            assert q_pow(b, x, cfg) == want
            assert _one_unit_pow(b, x, cfg) == want

    @pytest.mark.parametrize("p", PRIMES)
    def test_p_in_the_numerator_claims_past_the_base(self, p):
        # b is known to 10 digits; p^3 in x's numerator raises the claim to 13, which the root is lifted to
        b = PadicNum(p, 0, 1 + p * 2, 10)
        cfg = PadicConfig(p, 128)
        for x in (Fraction(p**3, 2), Fraction(-(p**3), 4), Fraction(2 * p**3, 13)):
            got = q_pow(b, x, cfg)
            assert got.abs_prec == 13 > b.abs_prec
            assert got == full_width_one_unit_pow(b, x, cfg)


class TestModeAcceptsExactlyTheOneUnits:
    # (q, accepted): the exact zero, O(p^0), O(p^2), negative and positive valuations, 1 + O(p),
    # deeper 1-units and units that are not 1 mod p
    GRID = [
        (PadicNum.zero(3), False),
        (PadicNum.approx_zero(3, 0), False),
        (PadicNum.approx_zero(3, 2), False),
        (PadicNum.approx_zero(3, -1), False),
        (PadicNum(3, -2, 4, 10), False),
        (PadicNum(3, -1, 1, 1), False),
        (PadicNum(3, 1, 1, 10), False),
        (PadicNum(3, 2, 4, 5), False),
        (PadicNum(3, 0, 1, 1), True),
        (PadicNum(3, 0, 4, 1), True),
        (PadicNum(3, 0, 1, 16), True),
        (PadicNum(3, 0, 1 + 3**15, 16), True),
        (PadicNum(3, 0, 4, 16), True),
        (PadicNum(3, 0, 2, 16), False),
        (PadicNum(3, 0, 2, 1), False),
        (PadicNum(5, 0, 6, 8), True),
        (PadicNum(5, 0, 3, 8), False),
        (PadicNum(5, 0, 4, 8), False),
    ]

    @pytest.mark.parametrize("q, accepted", GRID)
    def test_grid(self, q, accepted):
        # the rule is v_p(q - 1) >= 1, as the PadicNum subtraction states it
        assert ((q - 1).valuation >= 1) is accepted
        cfg = PadicConfig(q.p, 16)
        if accepted:
            assert PadicMode(q, cfg).q is q
        else:
            with pytest.raises(PreconditionError, match=rf"^padic mode needs v_{q.p}\(1 - q\) >= 1$"):
                PadicMode(q, cfg)

    @given(st.sampled_from(PRIMES), st.integers(-3, 3), st.integers(0, 10**6), st.integers(0, 6))
    def test_matches_the_subtraction(self, p, val, unit, prec):
        q = PadicNum(p, val, unit, prec) if unit and prec else PadicNum.approx_zero(p, val)
        try:
            PadicMode(q, PadicConfig(p, 8))
            accepted = True
        except PreconditionError:
            accepted = False
        assert accepted is ((q - 1).valuation >= 1)


class TestValuation:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_counts_every_digit(self, p):
        cofactors = [c for c in (1, -1, 2, -2, 11, -13, 10**40 + 1, -(10**40) - 3) if c % p]
        for v in range(301):
            for c in cofactors:
                n = c * p**v
                assert _vp(n, p) == v

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_zero_has_no_finite_valuation(self, p):
        with pytest.raises(ValueError, match="valuation of 0"):
            _vp(0, p)
        assert rational_valuation(0, p) == inf
