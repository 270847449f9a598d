"""The Dedekind-type sums' kernels against their term-by-term references.

q_dc_sum runs qeuler.weighted_euler_sum and bracket_weighted_sum runs
qeuler.weighted_scaled_sum, each summing its terms' numerators over one
known denominator and finishing once.  The references in
test_kernel_reference are the sums as they were written term by term:
alternating_sum over q-integers times finished q-Euler or scaled values,
in the mode's own arithmetic.  The two must agree:

- in symbolic mode, as rational functions with the same to_json();
- at a rational q, as equal Fractions;
- at a p-adic q, to the reference's claimed precision, with a claim at
  least the reference's;
- where a pole, an unrepresentable exponent or exhausted precision
  appears, in error type and message.

The cases include eq6's points, p | k, where [k] is not a unit, and
bases l that leave the inner exponents fractional.

interp_value's interpolated readings are weighted_scaled_sum's one-term
case.  Each of its three readings must equal the term-by-term product
exactly: the same value, the same claimed precision at a p-adic q, and
the same error type and message.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qde import dedekind
from qde.catalog import check
from qde.dedekind import bracket_weighted_sum, interp_value, q_dc_sum
from qde.errors import PreconditionError, QdeError
from qde.padic import PadicConfig, PadicNum, is_odd_prime
from qde.qeuler import PadicMode, RationalMode, SymbolicMode, q_int, weighted_euler_sum, weighted_scaled_sum
from qde.ratfunc import RatFunc
from test_kernel_reference import reference_interp_term, reference_kernels

RATIONAL_QS = (4, Fraction(1, 2), -2, Fraction(-2, 3))


def outcome(run):
    """The value, or the error's type and message; a ZeroDivisionError counts as an error here too."""
    try:
        return run()
    except (QdeError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def assert_agrees(fast, slow):
    """fast is slow, as the issue's contract states it for each kind of value."""
    if isinstance(slow, tuple) or isinstance(fast, tuple):
        assert fast == slow
    elif isinstance(slow, PadicNum):
        assert isinstance(fast, PadicNum)
        assert (fast - slow).is_zero, (fast, slow)
        assert fast.abs_prec >= slow.abs_prec, (fast, slow)
    elif isinstance(slow, RatFunc):
        assert fast == slow and fast.to_json() == slow.to_json()
    else:
        assert (type(fast), fast) == (type(slow), slow)


def against_reference(run, mode):
    """run(mode) on the kernels against run(mode) on the references; a p-adic value must also be honest.

    Honest means it agrees, to its own claim, with the same sum at 24 more
    digits of the same exact q.
    """
    fast = outcome(lambda: run(mode))
    with reference_kernels():
        slow = outcome(lambda: run(mode))
    assert_agrees(fast, slow)
    if isinstance(fast, PadicNum):
        q, wide = mode.q, PadicConfig(mode.cfg.p, mode.cfg.prec + 24)
        more = run(PadicMode(PadicNum.from_rational(q.unit * q.p**q.val, q.p, wide.prec), wide))
        assert (fast - more).is_zero, (fast, more)
    return fast


@st.composite
def modes(draw, p=None):
    kind = draw(st.sampled_from(("symbolic", "rational", "padic")))
    if kind == "symbolic":
        return SymbolicMode(draw(st.sampled_from((1, 2))))
    if kind == "rational":
        return RationalMode(draw(st.sampled_from(RATIONAL_QS)))
    p = p or draw(st.sampled_from((3, 5)))
    prec = draw(st.sampled_from((16, 32, 128)))
    q = 1 + p * draw(st.sampled_from((1, 2, p)))
    return PadicMode(PadicNum.from_rational(q, p, prec), PadicConfig(p, prec))


@st.composite
def sums(draw):
    p = draw(st.sampled_from((3, 5)))
    # p | k at eq6's points, where [k] is not a unit
    k = draw(st.sampled_from((1, 2, 3, 4, 5, p, 2 * p)))
    h = draw(st.sampled_from([h for h in range(1, 7) if gcd(h, k) == 1]))
    m, alpha = draw(st.integers(0, 4)), draw(st.integers(1, 2))
    return p, k, h, m, alpha, draw(modes(p))


class TestKernelsAgainstReferences:
    @settings(max_examples=120, deadline=None)
    @given(sums(), st.data())
    def test_q_dc_sum(self, case, data):
        p, k, h, m, alpha, mode = case
        # the inner base: k and pk as in theorem1, 1 for fractional exponents
        base = data.draw(st.sampled_from((1, k, p * k)))
        against_reference(lambda mode: q_dc_sum(m, h, k, alpha, base, mode), mode)

    @settings(max_examples=120, deadline=None)
    @given(sums(), st.sampled_from(("naive", "interpolated", "interpolated_printed")))
    def test_bracket_weighted_sum(self, case, variant):
        p, k, h, m, alpha, mode = case
        against_reference(lambda mode: bracket_weighted_sum(m, h, k, alpha, variant, mode, p), mode)

    @pytest.mark.parametrize("identity,variant,point,mode,error", [
        ("theorem1", "corrected", {"m": 1, "h": 1, "k": 2, "alpha": 1, "p": 3}, RationalMode(-1),
         "pole in q-Euler polynomial"),
        ("theorem1", "printed", {"m": 1, "h": 1, "k": 2, "alpha": 1, "p": 3}, RationalMode(-1),
         "pole in q-Euler polynomial"),
        ("theorem1", "corrected", {"m": 3, "h": 2, "k": 5, "alpha": 1, "p": 3},
         PadicMode(PadicNum.from_rational(14348908, 3, 16), PadicConfig(3, 16)), "precision exhausted"),
        ("eq6", "printed", {"m": 1, "h": 1, "k": 3, "alpha": 1, "p": 3}, RationalMode(-1),
         "pole in q-Euler polynomial"),
    ])
    def test_poles_and_exhausted_precision_keep_their_errors(self, identity, variant, point, mode, error):
        fast = against_reference(lambda mode: check(identity, variant, point, mode).comparison_payload(), mode)
        assert fast[1].startswith(error)

    def test_m_zero_with_a_vanishing_k(self):
        # [2] = 0 at q = -1: at m = 0 only the interpolated reading divides by it
        for variant in ("interpolated", "interpolated_printed", "naive"):
            against_reference(lambda mode: bracket_weighted_sum(0, 1, 2, 1, variant, mode, 3), RationalMode(-1))
        assert outcome(lambda: bracket_weighted_sum(0, 1, 2, 1, "interpolated", RationalMode(-1), 3))[1] == (
            "pole in the interpolated value ([2] vanishes at this q)")
        # q_dc_sum at m = 0 and an even base: the sum is finite, and dividing it by [2] = 0 raises
        fast = against_reference(lambda mode: q_dc_sum(0, 1, 2, 1, 2, mode), RationalMode(-1))
        assert fast[0] is ZeroDivisionError

    @pytest.mark.parametrize("variant", ["naive", "interpolated", "interpolated_printed"])
    @pytest.mark.parametrize("h,k,p,big_m", [(2, 4, 3, 2), (4, 4, 3, 1), (3, 6, 5, 2), (2, 4, 9, 2), (2, 4, None, 2)])
    def test_a_vanishing_residue_is_checked_before_p(self, variant, h, k, p, big_m):
        # gcd(h, k) > 1: term big_m's residue h big_m vanishes mod k, and every residue is checked before p
        error = outcome(lambda: bracket_weighted_sum(2, h, k, 1, variant, RationalMode(2), p))
        assert error == (PreconditionError, f"residue a = {h * big_m} vanishes mod N = {k}")
        # the same error where the term-by-term references take the kernels' place
        assert error == against_reference(lambda mode: bracket_weighted_sum(2, h, k, 1, variant, mode, p),
                                          RationalMode(2))

    @pytest.mark.parametrize("k,base", [(3, 3), (6, 3), (9, 9), (3, 9)])
    def test_a_non_unit_k_caps_what_its_digits_allow(self, k, base):
        # q = 1 to K = 16 digits: at m = 0 the terms claim all 16, and [k] = p^v d, d known to 16 - v
        # relative digits, sets the relative precision of q_dc_sum, as dividing by it does
        mode = PadicMode(PadicNum.from_rational(1 + 3**20, 3, 16), PadicConfig(3, 16))
        fast = q_dc_sum(0, 1, k, 1, base, mode)
        with reference_kernels():
            assert fast == q_dc_sum(0, 1, k, 1, base, mode)
        assert fast.prec == {3: 15, 6: 15, 9: 14}[k]

    @pytest.mark.parametrize("prec", [16, 32, 128])
    def test_theorem1_at_the_benchmark_points(self, prec):
        mode = PadicMode(PadicNum.from_rational(4, 3, prec), PadicConfig(3, prec))
        for point in ({"m": 3, "h": 2, "k": 5, "alpha": 1, "p": 3}, {"m": 5, "h": 1, "k": 7, "alpha": 2, "p": 3}):
            for variant in ("corrected", "printed"):
                report = against_reference(lambda mode: check("theorem1", variant, point, mode).comparison_payload(),
                                           mode)
                assert "fail" not in report["status"] or variant == "printed"

    def test_the_kernels_take_no_gcd(self, monkeypatch):
        from qde import ratfunc

        def forbidden(*args):
            raise AssertionError("GCDHEU called")

        monkeypatch.setattr(ratfunc, "_heu_gcd", forbidden)
        # passing checks only: a failing one reduces its values to serialize them
        theorem1 = {"m": 5, "h": 2, "k": 7, "alpha": 2, "p": 3}
        assert check("theorem1", "corrected", theorem1, SymbolicMode()).comparison_payload()["status"] == "exact"
        eq6 = {"m": 3, "h": 2, "k": 5, "alpha": 1, "p": 5}
        assert check("eq6", "printed", eq6, SymbolicMode()).comparison_payload()["status"] == "exact"


def reference_interp_value(m, a, n_mod, variant, mode, alpha, p):
    """interp_value written out: its checks in their documented order, then the term-by-term product."""
    if variant not in ("naive", "interpolated", "interpolated_printed"):
        raise PreconditionError(f"unknown variant {variant!r}")
    if m < 0 or n_mod < 1 or alpha < 1:
        raise PreconditionError(f"need m >= 0, N >= 1, alpha >= 1, got m={m} N={n_mod} alpha={alpha}")
    if not a % n_mod:
        raise PreconditionError(f"residue a = {a} vanishes mod N = {n_mod}")
    z = None
    if variant != "naive":
        if p is None or not is_odd_prime(p):
            raise PreconditionError(f"interpolated variants need an odd prime p, got {p}")
        if gcd(p, n_mod) != 1:
            raise PreconditionError(f"p = {p} must be invertible mod N = {n_mod}")
        z = pow(p, -1, n_mod) * a % n_mod
    return reference_interp_term(m, alpha, n_mod, a % n_mod, z, p, variant == "interpolated", mode)


def reading(run):
    """The value as its type and to_json() (precision and digits at a p-adic q), or the error's type and message."""
    v = outcome(run)
    return v if isinstance(v, tuple) else (type(v), v if isinstance(v, Fraction) else v.to_json())


@st.composite
def interp_cases(draw):
    kind = draw(st.sampled_from(("symbolic", "rational", "padic")))
    if kind == "symbolic":
        mode = SymbolicMode(draw(st.sampled_from((1, 2))))
    elif kind == "rational":
        mode = RationalMode(draw(st.sampled_from((Fraction(1, 2), 4, Fraction(-2, 3), -1, 0))))
    else:
        prime, prec = draw(st.sampled_from((3, 5))), draw(st.sampled_from((8, 16, 32)))
        # q known to fewer digits than K, and q = 1 + p^(K+4), 1 to more digits than K
        q0, q_prec = draw(st.sampled_from(((1 + prime, prec - 3), (1 + 2 * prime, prec),
                                           (1 + prime ** (prec + 4), prec + 8))))
        mode = PadicMode(PadicNum.from_rational(q0, prime, q_prec), PadicConfig(prime, prec))
    variant = draw(st.sampled_from(("naive", "interpolated", "interpolated_printed")))
    # now and then a residue that vanishes, N = 1, a p that divides N, or no odd prime p
    n_mod = draw(st.sampled_from((2, 3, 4, 5, 7, 2, 4, 7, 1)))
    a = draw(st.integers(-3, 12).filter(lambda a: a % n_mod) | st.integers(-3, 12))
    p = draw(st.sampled_from((3, 5, 3, 5, 3, 5, None, 9)))
    return draw(st.integers(0, 4)), a, n_mod, variant, mode, draw(st.integers(1, 2)), p


# p = 3 is not invertible mod N = 3, and at q = -1 the first term's 1 + q^3 vanishes: p is checked before any term
# is formed, as in bracket_weighted_sum, so the p error is the one raised
PRECEDENCE = (1, 1, 3, "interpolated", RationalMode(-1), 1, 3)


class TestInterpValueAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(interp_cases())
    @example(PRECEDENCE)
    # the corrected reading at m = 0 divides by [2], which vanishes at q = -1
    @example((0, 1, 2, "interpolated", RationalMode(-1), 1, 3))
    def test_every_reading_is_the_term_by_term_product(self, case):
        m, a, n_mod, variant, mode, alpha, p = case
        got = reading(lambda: interp_value(m, a, n_mod, variant, mode, alpha=alpha, p=p))
        assert got == reading(lambda: reference_interp_value(m, a, n_mod, variant, mode, alpha, p))
        if case == PRECEDENCE:
            assert got == (PreconditionError, "p = 3 must be invertible mod N = 3")


def _first_term_plus(kernel):
    """weighted_scaled_sum with [M + 1] in place of [M]: the one-term sum of a dummy, minus the sum led by it.

    Prepending a term moves every term M to place M + 1, with the sign
    flipped; the dummy's own term, [1] times its value, is added back.
    """
    def planted(m, alpha, k, firsts, seconds, p, corrected, mode):
        head = [firsts[0]], None if seconds is None else [seconds[0]]
        led = [firsts[0]] + firsts, None if seconds is None else [seconds[0]] + seconds
        return kernel(m, alpha, k, *head, p, corrected, mode) - kernel(m, alpha, k, *led, p, corrected, mode)

    return planted


class TestEq6WitnessesBothKernels:
    """eq6 compares q_dc_sum's kernel with bracket_weighted_sum's: a defect in either one alone fails it."""

    POINTS = [{"m": 1, "h": 1, "k": 3, "alpha": 1, "p": 3}, {"m": 1, "h": 2, "k": 3, "alpha": 1, "p": 3},
              {"m": 3, "h": 2, "k": 5, "alpha": 1, "p": 5}]

    def statuses(self, q):
        return [check("eq6", "printed", pt, RationalMode(q)).comparison_payload()["status"] for pt in self.POINTS]

    @pytest.mark.parametrize("q", [2, Fraction(1, 2), Fraction(-2, 3)])
    def test_each_planted_defect_fails_eq6(self, monkeypatch, q):
        assert self.statuses(q) == ["exact"] * len(self.POINTS)
        with monkeypatch.context() as mp:
            # a wrong divisor: [k + 1] for [k], k = len(xs) + 1
            mp.setattr(dedekind, "weighted_euler_sum", lambda m, alpha, xs, base, mode: (
                weighted_euler_sum(m, alpha, xs, base, mode) * q_int(len(xs) + 1, alpha, mode)
                / q_int(len(xs) + 2, alpha, mode)))
            assert all("fail" in status for status in self.statuses(q))
        with monkeypatch.context() as mp:
            mp.setattr(dedekind, "weighted_scaled_sum", _first_term_plus(weighted_scaled_sum))
            assert all("fail" in status for status in self.statuses(q))
        assert self.statuses(q) == ["exact"] * len(self.POINTS)
