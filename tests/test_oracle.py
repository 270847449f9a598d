from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qde import oracle, qeuler
from qde.errors import ExponentError, PoleError, PreconditionError, QdeError, ResourceLimitError
from qde.oracle import LEVEL_GUARD, IntegrandSpec, _level_sums, closed_form, convergence_profile, riemann_level
from qde.padic import PadicConfig, PadicNum, agreement_valuation, rational_valuation
from qde.qeuler import BaseLifted, PadicMode, RationalMode, SymbolicMode, qeuler_poly
from qde.ratfunc import Poly, RatFunc

SYM = SymbolicMode()
RAT4 = RationalMode(4)


def profile_vals(f, levels, mode, p=None):
    return [row["valuation"] for row in convergence_profile(f, levels, mode, p)]


class TestSpec:
    def test_constructors(self):
        b = IntegrandSpec.bracket_power(2, alpha=1, x=Fraction(1, 3), l=3)
        assert (b.kind, b.n, b.x, b.base_exponent) == ("bracket_power", 2, Fraction(1, 3), 3)
        q = IntegrandSpec.q_power(2)
        assert (q.kind, q.e) == ("q_power", 2)

    def test_describe(self):
        assert IntegrandSpec.q_power(2, l=3).describe() == {"kind": "q_power", "e": 2, "l": 3}
        d = IntegrandSpec.bracket_power(1, x=Fraction(1, 2)).describe()
        assert d == {"kind": "bracket_power", "n": 1, "alpha": 1, "x": "1/2", "l": 1}

    def test_validation(self):
        with pytest.raises(PreconditionError):
            IntegrandSpec(kind="mystery")
        with pytest.raises(PreconditionError):
            IntegrandSpec.bracket_power(-1)
        with pytest.raises(PreconditionError):
            IntegrandSpec.q_power(1, l=0)


class TestRiemannLevel:
    def test_constant_has_unit_mass(self):
        one = IntegrandSpec.q_power(0)
        for level in (1, 2, 3):
            assert riemann_level(one, level, SYM, 3).value == RatFunc.one()

    def test_q_power_symbolic_fixture(self):
        # level-1 alternating sum of q^(2a) at p = 3
        v = riemann_level(IntegrandSpec.q_power(2), 1, SYM, 3).value
        want = RatFunc(Poly((1, 0, 0, -1, 0, 0, 1)), Poly((1, -1, 1)))
        assert v == want

    def test_q_power_levels_match_geometric_law(self):
        # the level-n sum collapses to (1+q)(1+q^((e+1) p^n)) over
        # (1+q^(e+1))(1+q^(p^n)) by geometric pairing
        for e in (1, 2):
            for n in (1, 2):
                got = riemann_level(IntegrandSpec.q_power(e), n, SYM, 3).value
                pn = 3**n
                one = RatFunc.one()
                want = (
                    (one + SYM.q_power(1))
                    * (one + SYM.q_power((e + 1) * pn))
                    / ((one + SYM.q_power(e + 1)) * (one + SYM.q_power(pn)))
                )
                assert got == want

    @pytest.mark.parametrize("e,p,degree", [(33333, 5, 100002), (60000, 3, 120000)])
    def test_degree_limit_names_the_first_degree_over_it(self, e, p, degree):
        # residue a forms q^a, then q^(e a), then their product q^((1 + e) a)
        with pytest.raises(ResourceLimitError) as info:
            riemann_level(IntegrandSpec.q_power(e), 1, SYM, p)
        assert str(info.value) == f"polynomial degree {degree} exceeds limit 100000"

    def test_bracket_where_q_alpha_is_one(self):
        # at q = 1 the measure of a + 9 Z_3 is (-1)^a and [x + a] = x + a
        for x in (1, Fraction(1, 2)):
            f = IntegrandSpec.bracket_power(2, alpha=2, x=x)
            want = sum((-1) ** a * (x + a) ** 2 for a in range(9))
            assert riemann_level(f, 2, RationalMode(1), 3).value == want
        # a fractional exponent still has no value at a rational q
        with pytest.raises(ExponentError, match=r"q\^\(1/3\) is not representable"):
            riemann_level(IntegrandSpec.bracket_power(1, x=Fraction(1, 3)), 1, RationalMode(1), 3)

    def test_bracket_pole_where_q_alpha_is_one(self):
        # at q = -1, alpha = 2: [1/2] = (1 - q)/(1 - q^2) = 1/(1 + q), a pole before the measure's
        f = IntegrandSpec.bracket_power(1, alpha=2, x=Fraction(1, 2))
        with pytest.raises(PoleError, match=r"\[1/2\] has a pole at this q \(q\^alpha = 1 but q\^\(alpha y\) = -1\)"):
            riemann_level(f, 1, RationalMode(-1), 3)
        # at alpha = 4, q^(alpha y) = 1 and the bracket is 1/2; the measure then fails
        with pytest.raises(PoleError, match="measure undefined"):
            riemann_level(IntegrandSpec.bracket_power(1, alpha=4, x=Fraction(1, 2)), 1, RationalMode(-1), 3)

    def test_level_zero_rejected(self):
        with pytest.raises(PreconditionError):
            riemann_level(IntegrandSpec.q_power(0), 0, SYM, 3)

    def test_guardrail(self):
        with pytest.raises(ResourceLimitError):
            riemann_level(IntegrandSpec.q_power(0), 20, SYM, 7)
        assert 7**20 > LEVEL_GUARD


class TestClosedForm:
    def test_q_power(self):
        v = closed_form(IntegrandSpec.q_power(2), SYM)
        assert v == (RatFunc.one() + SYM.q_power(1)) / (RatFunc.one() + SYM.q_power(3))

    def test_bracket_power_is_qeuler(self):
        f = IntegrandSpec.bracket_power(2, alpha=1, x=0)
        assert closed_form(f, SYM) == qeuler_poly(2, 1, 0, SYM)

    def test_lifted_base(self):
        f = IntegrandSpec.q_power(0, l=5)
        assert closed_form(f, SYM) == RatFunc.one()

    @pytest.mark.parametrize("e", [0, 2, 4])
    def test_zero_over_zero_is_a_pole(self, e):
        # (1 + q)/(1 + q^(e+1)) at q = -1, as measure and qeuler_poly raise it
        with pytest.raises(PoleError, match="closed form undefined"):
            closed_form(IntegrandSpec.q_power(e), RationalMode(-1))
        assert closed_form(IntegrandSpec.q_power(e, l=2), RationalMode(-1)) == 1


PINNED = [
    (IntegrandSpec.q_power(0), [1, 2, 3, 4], [None, None, None, None]),
    (IntegrandSpec.bracket_power(1), [1, 2, 3, 4], [1, 2, 3, 4]),
    (IntegrandSpec.bracket_power(2), [1, 2, 3, 4], [1, 2, 3, 4]),
    (IntegrandSpec.q_power(2), [1, 2, 3, 4], [2, 3, 4, 5]),
    (IntegrandSpec.bracket_power(2, alpha=1, x=Fraction(1, 3), l=3), [1, 2, 3], [0, 1, 2]),
]


class TestConvergenceProfile:
    @pytest.mark.parametrize("f,levels,want", PINNED)
    def test_pinned_rational_profiles(self, f, levels, want):
        assert profile_vals(f, levels, RAT4, 3) == want

    def test_padic_mode_cross_check(self):
        cfg = PadicConfig(3, 32)
        mode = PadicMode(PadicNum.from_rational(Fraction(4), 3, 32), cfg)
        f = IntegrandSpec.bracket_power(2)
        assert profile_vals(f, [1, 2, 3], mode) == [1, 2, 3]

    def test_profiles_climb(self):
        vals = profile_vals(IntegrandSpec.bracket_power(3), [1, 2, 3, 4], RAT4, 3)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("kind", ["rational", "padic"])
    @pytest.mark.parametrize("levels", [(3, 1, 2), (2, 2, 1), (1, 2, 3)])
    def test_one_pass_matches_level_by_level(self, p, kind, levels):
        # the one-pass profile reads, in the order asked, what each
        # level's own Riemann sum minus the closed form gives
        if kind == "rational":
            mode = RationalMode(1 + p)
        else:
            mode = PadicMode(PadicNum.from_rational(1 + p, p, 32), PadicConfig(p, 32))
        for f in (IntegrandSpec.bracket_power(2), IntegrandSpec.bracket_power(3, alpha=2),
                  IntegrandSpec.q_power(2, l=2), IntegrandSpec.bracket_power(2, x=Fraction(1, 2), l=2)):
            limit = closed_form(f, mode)
            want = []
            for n in levels:
                diff = riemann_level(f, n, mode, p).value - limit
                if isinstance(diff, PadicNum):
                    v = None if diff.is_exact_zero else int(diff.valuation)
                else:
                    v = None if diff == 0 else int(rational_valuation(diff, p))
                want.append({"level": n, "valuation": v})
            assert convergence_profile(f, levels, mode, p) == want

    def test_symbolic_mode_rejected(self):
        f = IntegrandSpec.bracket_power(1)
        with pytest.raises(PreconditionError):
            convergence_profile(f, [1], SYM, 3)

    def test_guard_trips_before_any_work(self):
        # level 8 at p = 7 is over the guardrail; level 7 under it is
        # expensive, so the pre-check must fire without computing it
        f = IntegrandSpec.q_power(0)
        with pytest.raises(ResourceLimitError):
            convergence_profile(f, [7, 8], RationalMode(8), 7)


@st.composite
def level_sum_cases(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # the generic loop at 7^3 residues takes about half a second
    level = draw(st.integers(1, 3 if p < 7 else 2))
    mode = SymbolicMode(draw(st.sampled_from((1, 2, 3))))
    base = draw(st.sampled_from((1, 2, 3)))
    if base > 1:
        mode = BaseLifted(mode, base)
    return IntegrandSpec.q_power(draw(st.integers(-3, 8))), level, mode, p


def _outcome(run):
    """run()'s value and its JSON, or the type and message of the QdeError it raised."""
    try:
        v = run()
    except QdeError as exc:
        return type(exc), str(exc)
    return v, [t.to_json() for _, t in v] if isinstance(v, list) else v.to_json()


class TestIntListLevelSums:
    """Symbolic q-power level sums on one int list against the generic loop."""

    @settings(max_examples=60)
    @given(level_sum_cases())
    def test_matches_the_generic_loop(self, case):
        f, level, mode, p = case
        for run in (lambda: riemann_level(*case).value, lambda: list(_level_sums(f, [level, 1], mode, p))):
            fast = _outcome(run)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qeuler, "_fixed_denominator", lambda mode: None)
                mp.setattr(oracle, "_fixed_denominator", lambda mode: None)
                slow = _outcome(run)
            assert fast == slow


RATIONAL_QS = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 4)


@st.composite
def rational_level_sum_cases(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    level = draw(st.integers(1, 3))
    q0 = draw(st.sampled_from(RATIONAL_QS) | st.fractions(min_value=-5, max_value=5, max_denominator=7))
    mode = RationalMode(q0)
    if draw(st.booleans()):
        mode = BaseLifted(mode, draw(st.sampled_from((2, 3))))
    l = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        return IntegrandSpec.q_power(draw(st.integers(-3, 6)), l=l), level, mode, p
    # x integral, negative or fractional: only an integral x >= 0 runs on ints
    x = Fraction(draw(st.integers(-3, 4)), draw(st.sampled_from((1, 1, 2))))
    n, alpha = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    return IntegrandSpec.bracket_power(n, alpha=alpha, x=x, l=l), level, mode, p


def _typed_outcome(run):
    """run()'s value with its type, or the type and message of the QdeError it raised."""
    try:
        v = run()
    except QdeError as exc:
        return type(exc), str(exc)
    return [(type(t), t) for t in v] if isinstance(v, list) else (type(v), v)


class TestIntRationalLevelSums:
    """Rational level sums on ints against the generic Fraction loop."""

    @staticmethod
    def assert_same(run):
        fast = _typed_outcome(run)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qeuler, "_ints", lambda mode, capped=True: None)
            mp.setattr(oracle, "_ints", lambda mode, capped=True: None)
            slow = _typed_outcome(run)
        assert fast == slow

    @settings(max_examples=150)
    @given(rational_level_sum_cases())
    def test_matches_the_generic_loop(self, case):
        f, level, mode, p = case
        self.assert_same(lambda: riemann_level(*case).value)
        self.assert_same(lambda: [t for _, t in _level_sums(f, [level, 1], mode, p)])
        self.assert_same(lambda: [row["valuation"] for row in convergence_profile(f, [1, level], mode, p)])

    @pytest.mark.parametrize("q0", RATIONAL_QS)
    @pytest.mark.parametrize("e", [-2, -1, 0, 2])
    def test_q_powers_at_fixed_points(self, q0, e):
        # at q = 0 and e < 0 the generic loop raises at a = 1, after q^a
        for l in (1, 2):
            f = IntegrandSpec.q_power(e, l=l)
            self.assert_same(lambda: [t for _, t in _level_sums(f, [1, 2], RationalMode(q0), 3)])
            self.assert_same(lambda: convergence_profile(f, [1, 2], RationalMode(q0), 5))

    @pytest.mark.parametrize("f", [IntegrandSpec.q_power(3, l=2), IntegrandSpec.bracket_power(2, alpha=2, x=1)])
    def test_powers_are_formed_per_level_not_per_residue(self, monkeypatch, f):
        calls = []
        q_power = RationalMode.q_power
        monkeypatch.setattr(RationalMode, "q_power", lambda self, e: calls.append(e) or q_power(self, e))
        riemann_level(f, 4, RationalMode(Fraction(1, 2)), 3)
        # the measure's three powers and the bracket's 1 - q^alpha, against 2 * 81 in the generic loop
        assert len(calls) <= 4

    def test_q_zero_negative_exponent_is_a_pole(self):
        with pytest.raises(PoleError, match="negative power of q = 0"):
            riemann_level(IntegrandSpec.q_power(-1), 2, RationalMode(0), 3)

    def test_pole_at_minus_one_is_the_measure_pole(self):
        # the closed form's pole comes first in a profile, the measure's in a level sum
        for f in (IntegrandSpec.q_power(2), IntegrandSpec.bracket_power(2, x=3)):
            with pytest.raises(PoleError, match="measure undefined"):
                riemann_level(f, 2, RationalMode(-1), 3)
            self.assert_same(lambda: riemann_level(f, 2, RationalMode(-1), 3).value)
