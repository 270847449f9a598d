"""residue_split against a term-by-term reference.

The reference, test_kernel_reference.reference_residue_split, is the
residue sum written one finished value per term: each [base]^n
E_n(x_i; q^base) comes from reference_scaled, term by term in the mode's
own arithmetic (in symbolic and rational mode the product of [base]^n
and reference_qeuler_poly, at a p-adic q E_n's sum divided by (1 -
q^alpha)^n), is weighted by q^(step i) in the corrected reading, and the
terms are added by alternating_sum, then multiplied by the ratio
(1 + q^step)/(1 + q^(step count)).  residue_split sums the terms'
numerators over their one denominator and finishes the sum once.  The
two must agree: as rational functions in symbolic mode, as Fractions at
a rational q, and digit for digit, in valuation, unit and claimed
precision, at a p-adic q.  Errors must agree in type and message.

The cases mix integral, fractional and negative x_i, so within one sum
the terms' strides g_i (every exponent of term i is a multiple of Q^g_i)
differ, and so do their shifts (a negative x_i moves q^(alpha l x_i)
into the denominator, so term i is over Q^s_i D).  A common factor, a
bracket of positive valuation to a power, multiplies the finished sum
at a p-adic q; the reference multiplies every term by it instead, and
the two must agree too.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qde import qeuler, ratfunc
from qde.catalog import check
from qde.errors import ExponentError, PoleError, PrecisionError, PreconditionError, ResourceLimitError
from qde.padic import PadicConfig, PadicNum
from qde.qeuler import BaseLifted, PadicMode, RationalMode, SymbolicMode, q_int, residue_split
from test_kernel_reference import reference_residue_split


def outcome(run):
    """The value with its type, so that an int never passes for a Fraction, or the error's type and message."""
    try:
        v = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return type(v), v


def assert_matches(mode, base, n, alpha, xs, step, corrected):
    got = outcome(lambda: residue_split(mode, base, n, alpha, xs, step, corrected))
    assert got == outcome(lambda: reference_residue_split(mode, base, n, alpha, xs, step, corrected))


def _lifted(mode, base):
    return mode if base == 1 else BaseLifted(mode, base)


def _split_args(draw, dens):
    """base, n, alpha, xs, step, corrected; each x_i integral, fractional or negative."""
    count = draw(st.integers(1, 5))
    xs = [Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from(dens))) for _ in range(count)]
    return (draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 2)), xs,
            draw(st.integers(1, 3)), draw(st.booleans()))


@st.composite
def symbolic_cases(draw):
    scale = draw(st.integers(1, 3))
    mode = _lifted(SymbolicMode(scale), draw(st.sampled_from((1, 2))))
    # denominators the scale can represent, and some it cannot
    return (mode,) + _split_args(draw, (1, 1, scale, 2, 3))


@st.composite
def rational_cases(draw):
    mode = _lifted(RationalMode(draw(st.sampled_from((Fraction(1, 2), Fraction(-2, 3), 4, -2)))),
                   draw(st.sampled_from((1, 2))))
    return (mode,) + _split_args(draw, (1, 1, 1, 2))


@st.composite
def padic_cases(draw):
    p = draw(st.sampled_from((3, 5)))
    prec = draw(st.sampled_from((8, 16, 32)))
    # q known to fewer digits than K, to K, and to more; 1 + p^(K+5) is 1 to K digits
    q_prec = prec + draw(st.sampled_from((-3, 0, 5)))
    q0 = 1 + p * draw(st.sampled_from((-1, 1, 2, p, p ** (prec + 4))))
    mode = PadicMode(PadicNum.from_rational(q0, p, q_prec), PadicConfig(p, prec))
    # a denominator divisible by p is not a p-adic exponent
    args = _split_args(draw, (1, 1, 2, p))
    # a bracket with a positive valuation, to a power
    factor = q_int(p * draw(st.integers(1, 2)), args[2], mode) ** draw(st.integers(0, 2))
    return (_lifted(mode, draw(st.sampled_from((1, 2)))),) + args + (factor,)


@settings(max_examples=300, deadline=None)
@given(symbolic_cases())
# strides 2, 1 and 1 and shifts 0, 0 and 6 in Q, with the weights Q^0, Q^2, Q^4
@example((SymbolicMode(2), 1, 2, 1, [Fraction(0), Fraction(1, 2), Fraction(-3, 2)], 1, True))
# every term negative, each with its own shift; scale 3 at base 3
@example((SymbolicMode(3), 3, 3, 2, [Fraction(-1, 3), Fraction(-2), Fraction(-5, 3)], 2, False))
# the first term is representable and the second is not: the split fails at the second term's q^(1/3)
@example((SymbolicMode(1), 1, 2, 1, [Fraction(0), Fraction(1, 3)], 1, True))
# the first term's q^(2 x) passes the degree limit before the second term's q^(1/3) is formed
@example((SymbolicMode(1), 1, 2, 1, [Fraction(60000), Fraction(1, 3)], 1, False))
# eq7's d = 7 shape from a negative start, x_i = (a - 3)/7 at base 7: strides 49 at x_i = 0 and 7 elsewhere, and
# three negative x_i, each with its own shift
@example((SymbolicMode(7), 7, 3, 2, [Fraction(a - 3, 7) for a in range(7)], 1, True))
def test_symbolic_sum_is_the_term_by_term_sum(case):
    assert_matches(*case)


@settings(max_examples=300, deadline=None)
@given(rational_cases())
@example((RationalMode(-2), 1, 2, 1, [Fraction(-1), Fraction(0), Fraction(1)], 1, True))
def test_rational_sum_is_the_term_by_term_sum(case):
    assert_matches(*case)


PADIC_4 = PadicMode(PadicNum.from_rational(4, 3, 16), PadicConfig(3, 16))


@settings(max_examples=300, deadline=None)
@given(padic_cases())
# the one finish's claims at q = 4, where 1 - q = -3 (v = 1): a one-term split, which is qeuler_poly times its ratio
@example((PADIC_4, 1, 2, 1, [Fraction(1, 2)], 1, True, q_int(3, 1, PADIC_4)))
# n = 0 in the printed reading: the two terms cancel, and both sides give O(3^15), A - v digits
@example((PADIC_4, 1, 0, 1, [Fraction(0), Fraction(0)], 1, False, q_int(3, 1, PADIC_4)))
# term numerators of valuations 3 and 1, so A - v + 3 and A - v + 1 claimed digits, capped at A
@example((PADIC_4, 1, 1, 1, [Fraction(-4), Fraction(-2)], 1, True, q_int(3, 1, PADIC_4)))
def test_padic_sum_is_the_term_by_term_sum(case):
    *args, factor = case
    assert_matches(*args)
    # the common factor multiplies the finished sum once, or every term
    mode, base, n, alpha, xs, step, corrected = args
    got = outcome(lambda: factor * residue_split(mode, base, n, alpha, xs, step, corrected))
    assert got == outcome(lambda: reference_residue_split(mode, base, n, alpha, xs, step, corrected, factor))


def test_the_term_invariant_exponents_are_formed_once_per_split(monkeypatch):
    # q^((alpha l + 1) B), q^(alpha B) and the outer q^alpha do not depend on x_i: a split of five terms at
    # base B maps them once, and each term's shifts q^(alpha l x_i B) = (q^(alpha x_i B))^l from one
    # exponent; the mode sees each exponent times its base, and no two exponents below coincide
    calls, exponent = [], SymbolicMode._exponent
    monkeypatch.setattr(SymbolicMode, "_exponent", lambda mode, e: calls.append(e) or exponent(mode, e))
    n, alpha, base, xs, step = 3, 2, 3, [Fraction(x) for x in (-2, -1, 3, 4, 5)], 4
    residue_split(SymbolicMode(), base, n, alpha, xs, step, True)
    assert [calls.count((alpha * l + 1) * base) for l in range(n + 1)] == [1] * (n + 1)
    assert calls.count(alpha * base) == 1
    assert calls.count(alpha) == 1
    inner = [alpha * base] + [(alpha * l + 1) * base for l in range(n + 1)] + [alpha * x * base for x in xs]
    assert sorted(calls) == sorted([step, alpha] + inner)


def test_the_example_terms_differ_in_stride_and_shift():
    # the first symbolic example above: alone, term i is num / (Q^shift D) in Q^g, D with constant term 1
    mode = SymbolicMode(2)
    fd = qeuler._fixed_denominator(mode)
    xs = [Fraction(0), Fraction(1, 2), Fraction(-3, 2)]
    forms = [qeuler._closed_form_ints(2, 1, [x], fd, fd) for x in xs]
    assert [_stride_and_shift(*form) for form in forms] == [(2, 0), (1, 0), (1, 6)]
    # together, over the least stride and the largest shift
    weights = [((-1) ** i, fd(1) * i) for i in range(len(xs))]
    assert _stride_and_shift(*qeuler._closed_form_ints(2, 1, xs, fd, fd, weights, strides=(fd(1),))) == (1, 6)


def _stride_and_shift(g, l1, form):
    """The stride g and the power of Q that the denominator's lowest term carries, from the packed form."""
    bits = 8 * ratfunc._width(l1[1])
    _, den = form(g, bits)
    return g, ratfunc._unpack(*den, bits // 8).index(1) * g


class TestErrors:
    """The errors residue_split raises, in the order the term-by-term sum raises them."""

    def test_the_first_terms_pole_comes_before_any_later_term(self, monkeypatch):
        formed, closed_form_at = [], qeuler._closed_form_at

        def recorded(n, alpha, x, iv):
            formed.append(x)
            return closed_form_at(n, alpha, x, iv)

        monkeypatch.setattr(qeuler, "_closed_form_at", recorded)
        # at q = -1, 1 + q^3 vanishes in the first term at base 3, and in the ratio
        xs = [Fraction(a, 3) for a in range(3)]
        with pytest.raises(PoleError, match=r"^pole in q-Euler polynomial \(a denominator vanishes at this q\)$"):
            residue_split(RationalMode(-1), 3, 2, 1, xs, 1, True)
        assert formed == [0]
        assert_matches(RationalMode(-1), 3, 2, 1, xs, 1, True)

    def test_the_first_terms_finish_comes_before_the_next_terms_exponent(self):
        # 1 - q^alpha vanishes at q = 1, and to K digits at q = 1 + 3^20; x = 1/3 is representable at neither
        xs = [Fraction(0), Fraction(1, 3)]
        with pytest.raises(PoleError, match="pole in q-Euler polynomial"):
            residue_split(RationalMode(1), 1, 1, 1, xs, 1, False)
        padic = PadicMode(PadicNum.from_rational(1 + 3**20, 3, 20), PadicConfig(3, 16))
        with pytest.raises(PrecisionError, match="zero at working precision"):
            residue_split(padic, 1, 1, 1, xs, 1, True)
        for mode in (RationalMode(1), padic):
            for corrected in (False, True):
                assert_matches(mode, 1, 1, 1, xs, 1, corrected)

    @pytest.mark.parametrize("mode", [RationalMode(2), SymbolicMode(), PadicMode(PadicNum.from_rational(4, 3, 16),
                                                                             PadicConfig(3, 16))])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_an_empty_split_is_a_precondition_error(self, monkeypatch, mode, corrected):
        # raised before any power of q is formed, in every mode
        for name in ("_fixed_denominator", "_ints", "BaseLifted"):
            monkeypatch.setattr(qeuler, name, lambda *a, **k: pytest.fail("a power of q was formed"))
        with pytest.raises(PreconditionError, match="^a residue split needs at least one term$"):
            residue_split(mode, 1, 2, 1, [], 1, corrected)

    def test_printed_eq5_at_a_rational_q_is_an_exponent_error(self):
        # the printed inner values stay at base q, so the second term needs q^(1/3)
        with pytest.raises(ExponentError, match=r"q\^\(1/3\) is not representable at a fixed rational q"):
            check("eq5", "printed", {"n": 1, "alpha": 1, "d": 3, "x": 0}, RationalMode(4))

    @pytest.mark.parametrize("scale, xs, step", [
        (3, [0], 1),  # the first term's D = (1 + Q^3)(1 + Q^90003)(1 - Q^90000) passes the limit
        (2, [0], 40000),  # so does D = (1 + Q^2)(1 + Q^60002)(1 - Q^60000)
        (2, [0, 1, 2], 20000),  # and every term's
    ])
    def test_past_the_degree_guard_the_split_raises(self, scale, xs, step):
        # the term-by-term reference answers the first two: RatFunc redoes a step past the limit in lowest terms
        for corrected in (False, True):
            with pytest.raises(ResourceLimitError, match="exceeds limit 100000"):
                residue_split(SymbolicMode(scale), 1, 1, 30000, [Fraction(x) for x in xs], step, corrected)

    @pytest.mark.parametrize("n, xs, degree", [
        (3, [0, 40000], 160000),  # q^(l x) = Q^(80000 l) passes the limit first at l = 2
        (4, [1, 25000, 12500], 150000),  # Q^(50000 l), first past it at l = 3
        (5, [0, 1, -20000], 120000),  # a negative shift: Q^(-40000 l), l = 3
        (2, [0, 1, 40000, 50001], 160000),  # of two later terms past the limit, the first names its degree
    ])
    def test_a_later_terms_power_names_the_first_degree_past_the_limit(self, n, xs, degree):
        # every term after the first forms only its shifts q^(alpha l x); they raise as term-by-term powers do
        with pytest.raises(ResourceLimitError, match=f"^polynomial degree {degree} exceeds limit 100000$"):
            residue_split(SymbolicMode(2), 1, n, 1, [Fraction(x) for x in xs], 1, False)
