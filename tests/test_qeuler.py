from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qde import qeuler, ratfunc
from qde.catalog import CATALOG, check
from qde.dedekind import bracket_weighted_sum, q_dc_sum
from qde.errors import ExponentError, PoleError, PrecisionError, PreconditionError, QdeError, ResourceLimitError
from qde.padic import PadicConfig, PadicNum, agreement_valuation, rational_valuation
from qde.qeuler import (
    BaseLifted,
    PadicMode,
    QEulerValue,
    RationalMode,
    SymbolicMode,
    compare_values,
    euler_classical,
    measure,
    periodic_euler,
    q_int,
    qeuler_numbers,
    qeuler_poly,
    qeuler_poly_additive,
    root_mode,
    serialize_value,
)
from qde.ratfunc import Poly, RatFunc, _prod

SYM = SymbolicMode()
CFG3 = PadicConfig(3, 32)


def padic_mode(q0=4, p=3, prec=32):
    cfg = PadicConfig(p, prec)
    return PadicMode(PadicNum.from_rational(Fraction(q0), p, prec), cfg)


class TestModes:
    def test_rational_rejects_fractional_exponent(self):
        with pytest.raises(ExponentError):
            RationalMode(2).q_power(Fraction(1, 2))

    def test_symbolic_scale(self):
        m = SymbolicMode(2)
        assert m.q_power(Fraction(1, 2)) == RatFunc.from_poly(Poly.monomial(1))
        with pytest.raises(ExponentError):
            SymbolicMode(2).q_power(Fraction(1, 3))

    def test_symbolic_negative_exponent(self):
        f = SYM.q_power(-2)
        assert f == RatFunc(Poly.one(), Poly.monomial(2))
        assert SymbolicMode(3).q_power(-2) == RatFunc(Poly.one(), Poly.monomial(6))
        assert SymbolicMode(2).q_power(Fraction(-3, 2)) == RatFunc(Poly.one(), Poly.monomial(3))
        assert SymbolicMode(2).q_power(Fraction(4, 2)) == RatFunc.from_poly(Poly.monomial(4))

    def test_symbolic_limit_at_one(self):
        assert SYM.limit_at_one(SYM.q_power(5)) == 1

    def test_padic_rejects_far_q(self):
        cfg = PadicConfig(3, 16)
        q = PadicNum.from_rational(Fraction(2), 3, 16)
        with pytest.raises(PreconditionError):
            PadicMode(q, cfg)
        # a q known to no digit says nothing about v_p(1 - q)
        with pytest.raises(PreconditionError):
            PadicMode(PadicNum.approx_zero(3, 0), cfg)
        PadicMode(PadicNum.from_rational(1, 3, 1), cfg)

    def test_padic_p_divisible_denominator_is_an_exponent_error(self):
        # q^(1/3) at p = 3 has no meaning, so the mode cannot represent it
        mode = padic_mode()
        for run in (lambda: mode.q_power(Fraction(1, 3)), lambda: qeuler_poly(2, 1, Fraction(1, 3), mode)):
            with pytest.raises(ExponentError, match=r"^exponent 1/3 is not a 3-adic integer$"):
                run()

    def test_padic_mismatched_prime(self):
        q = PadicNum.from_rational(Fraction(4), 3, 16)
        with pytest.raises(PreconditionError):
            PadicMode(q, PadicConfig(5, 16))

    def test_base_lifted_collapses(self):
        m = BaseLifted(BaseLifted(SYM, 2), 3)
        assert m.base == 6
        assert root_mode(m) is SYM
        assert m.q_power(1) == SYM.q_power(6)

    def test_base_lifted_fractional_resolution(self):
        # the lift can clear a denominator the inner scale cannot
        m = BaseLifted(SYM, 2)
        assert m.q_power(Fraction(1, 2)) == SYM.q_power(1)


class TestCompareValues:
    def test_exact_and_fail_shapes(self):
        assert compare_values(SYM, SYM.q_power(1), SYM.q_power(1)) == "exact"
        st = compare_values(SYM, SYM.q_power(1), SYM.q_power(2))
        assert set(st["fail"]) == {"lhs", "rhs"}

    def test_padic_shapes(self):
        m = padic_mode(4, 3, 8)
        a = m.from_rational(Fraction(1, 2))
        st = compare_values(m, a, a + 3**30)
        assert st == {"padic_agreement": 8, "precision": 8}
        st = compare_values(m, a, a + 1)
        assert st["fail"]["difference_valuation"] == 0

    def test_serialization(self):
        assert serialize_value(Fraction(1, 2)) == "1/2"
        assert serialize_value(RatFunc.from_poly(Poly((0, 1)))) == {"num": ["0", "1"], "den": ["1"]}
        assert serialize_value(PadicNum.from_rational(Fraction(1, 2), 3, 2)) == {
            "p": 3, "valuation": 0, "digits": [2, 1], "precision": 2,
        }
        with pytest.raises(TypeError):
            serialize_value(1.5)


class TestQInt:
    def test_fixtures(self):
        assert q_int(0, 1, SYM) == RatFunc.zero()
        assert q_int(3, 1, SYM) == RatFunc.from_poly(Poly((1, 1, 1)))
        assert q_int(2, 2, SYM) == RatFunc.from_poly(Poly((1, 0, 1)))
        assert q_int(4, 1, RationalMode(2)) == 15

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            q_int(-1, 1, SYM)

    def test_padic(self):
        mode = padic_mode(4, 3, 16)
        assert q_int(0, 1, mode).is_exact_zero
        # [3] = 1 + 4 + 16 = 21 = 3 * 7: valuation 1, the other 15 digits kept
        assert q_int(3, 1, mode) == PadicNum.from_rational(21, 3, 15)
        assert q_int(3, 1, mode).abs_prec == 16
        # only q enters the sum, so a q given to 40 digits keeps 40 at K = 16
        long_q = PadicMode(PadicNum.from_rational(4, 3, 40), PadicConfig(3, 16))
        assert q_int(3, 1, long_q) == PadicNum.from_rational(21, 3, 39)
        assert q_int(5, 2, long_q) == PadicNum.from_rational(1 + 16 + 16**2 + 16**3 + 16**4, 3, 40)


class TestMeasure:
    def test_symbolic_fixtures(self):
        m0 = measure(0, 1, SYM, 3).value
        m1 = measure(1, 1, SYM, 3).value
        assert m0 == RatFunc(Poly.one(), Poly((1, -1, 1)))
        assert m1 == RatFunc(Poly((0, -1)), Poly((1, -1, 1)))

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("level", [1, 2])
    def test_total_mass_is_one(self, p, level):
        total = sum(measure(a, level, SYM, p).value for a in range(p**level))
        assert total == RatFunc.one()

    @pytest.mark.parametrize("p", [3, 5])
    def test_additivity_under_refinement(self, p):
        for a in range(p):
            parts = sum(measure(a + j * p, 2, SYM, p).value for j in range(p))
            assert parts == measure(a, 1, SYM, p).value

    def test_limit_at_one_is_alternating_sign(self):
        for a in range(9):
            lim = SYM.limit_at_one(measure(a, 2, SYM, 3).value)
            assert lim == (1 if a % 2 == 0 else -1)

    def test_pole_at_minus_one(self):
        with pytest.raises(PoleError):
            measure(0, 1, RationalMode(-1), 3)

    def test_range_checks(self):
        with pytest.raises(PreconditionError):
            measure(3, 1, SYM, 3)
        with pytest.raises(PreconditionError):
            measure(-1, 1, SYM, 3)
        with pytest.raises(PreconditionError):
            measure(0, 0, SYM, 3)

    @pytest.mark.parametrize("a,degree", [(100000, 100001), (5, 177147)])
    def test_degree_limit_names_the_first_degree_over_it(self, a, degree):
        # q^a (1 + q) is formed before q^(p^level) = q^177147
        with pytest.raises(ResourceLimitError) as info:
            measure(a, 11, SYM, 3)
        assert str(info.value) == f"polynomial degree {degree} exceeds limit 100000"

    def test_prime_must_come_from_somewhere(self):
        with pytest.raises(PreconditionError):
            measure(0, 1, SYM)
        # padic mode carries its own prime and rejects a conflicting one
        with pytest.raises(PreconditionError):
            measure(0, 1, padic_mode(), 5)


class TestClassicalEuler:
    def test_first_four(self):
        assert euler_classical(0) == Poly((1,))
        assert euler_classical(1) == Poly((Fraction(-1, 2), 1))
        assert euler_classical(2) == Poly((0, -1, 1))
        assert euler_classical(3) == Poly((Fraction(1, 4), 0, Fraction(-3, 2), 1))

    def test_defining_recurrence(self):
        # E_n(x+1) + E_n(x) = 2 x^n
        for n in range(8):
            e = euler_classical(n)
            for x in (Fraction(0), Fraction(1, 2), Fraction(-2, 3), Fraction(3)):
                assert e(x + 1) + e(x) == 2 * x**n

    def test_negative_rejected(self):
        with pytest.raises(PreconditionError):
            euler_classical(-1)

    @given(st.integers(min_value=0, max_value=6), st.fractions(max_denominator=12))
    def test_periodic_extension_antiperiodic(self, m, x):
        assert periodic_euler(m, x + 1) == -periodic_euler(m, x)

    def test_periodic_fixtures(self):
        assert periodic_euler(1, Fraction(1, 2)) == 0
        assert periodic_euler(1, 0) == Fraction(-1, 2)
        assert periodic_euler(1, 1) == Fraction(1, 2)
        assert periodic_euler(2, Fraction(7, 2)) == Fraction(1, 4)


class TestQEulerNumber:
    # the q-Euler numbers are the polynomials at x = 0
    def test_symbolic_fixtures(self):
        assert qeuler_poly(1, 1, 0, SYM).render() == "(-q)/(1+q^2)"
        e2 = qeuler_poly(2, 1, 0, SYM)
        assert e2 == RatFunc(Poly((0, -1, 1)), Poly((1, -1, 2, -1, 1)))
        e3 = qeuler_poly(3, 1, 0, SYM)
        assert e3 == RatFunc(
            Poly((0, -1, 1, 1, 1, -1)), Poly((1, -1, 2, -1, 2, -1, 2, -1, 1))
        )

    def test_rational_fixture(self):
        assert qeuler_poly(2, 1, 0, RationalMode(4)) == Fraction(12, 221)

    def test_limit_at_one_is_classical(self):
        for n in range(7):
            lim = SYM.limit_at_one(qeuler_poly(n, 1, 0, SYM))
            assert lim == euler_classical(n)(0)

    def test_padic_agrees_with_rational(self):
        m = padic_mode(4)
        v = qeuler_poly(2, 1, 0, m)
        want = PadicNum.from_rational(Fraction(12, 221), 3, 32)
        assert agreement_valuation(v, want) >= 28

    def test_pole(self):
        with pytest.raises(PoleError):
            qeuler_poly(1, 1, 0, RationalMode(-1))

    def test_bad_arguments(self):
        with pytest.raises(PreconditionError):
            qeuler_poly(-1, 1, 0, SYM)
        with pytest.raises(PreconditionError):
            qeuler_poly(1, 0, 0, SYM)


class TestQEulerNumbers:
    # the fermionic recurrence against the closed form qeuler_poly(n, alpha, 0)
    def test_recurrence_equals_closed_form(self):
        for mode in (SYM, RationalMode(4), RationalMode(Fraction(-2, 3)), BaseLifted(RationalMode(4), 3)):
            for alpha in (1, 2, 3):
                table = qeuler_numbers(7, alpha, mode)
                assert len(table) == 8
                for n, e_n in enumerate(table):
                    assert e_n == qeuler_poly(n, alpha, 0, mode)

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda q: abs(q) != 1),
    )
    def test_recurrence_equals_closed_form_at_rational_q(self, n, alpha, q0):
        # q0 = +-1 is left out: the closed form divides by 1 + q or by
        # 1 - q^alpha there, the recurrence only by 1 + q^(alpha n + 1)
        mode = RationalMode(q0)
        assert qeuler_numbers(n, alpha, mode)[n] == qeuler_poly(n, alpha, 0, mode)

    def test_pole_only_where_a_divisor_vanishes(self):
        # at q = -1, 1 + q^(alpha n + 1) vanishes exactly when alpha n is even
        assert qeuler_numbers(1, 1, RationalMode(-1)) == [1, Fraction(1, 2)]
        with pytest.raises(PoleError):
            qeuler_numbers(2, 1, RationalMode(-1))
        with pytest.raises(PoleError):
            qeuler_numbers(1, 2, RationalMode(-1))

    def test_bad_arguments(self):
        with pytest.raises(PreconditionError):
            qeuler_numbers(-1, 1, SYM)
        with pytest.raises(PreconditionError):
            qeuler_numbers(1, 0, SYM)

    @pytest.mark.parametrize("prec", [16, 32, 64, 128])
    def test_padic_matches_rational_at_every_precision(self, prec):
        # rational E_n at q = 4, embedded in Q_3, against p-adic mode at the
        # same q.  The recurrence divides only by units 1 + q^(alpha n + 1), so
        # it keeps all K digits.  The closed form divides a K-digit sum S by
        # (1 - q^alpha)^n: S has valuation v(E_n) + n v, with
        # v = v_3(1 - q^alpha) = v_3(q - 1) + v_3(alpha) (lifting the
        # exponent), so it is known to K - v(E_n) - n v relative digits and
        # E_n to K - n v absolute ones.  The loss n v is the same at every K.
        # (At n = 0 the closed form loses v digits too: x ** 0 keeps the
        # relative precision of x = 1 - q^alpha.)
        mode = padic_mode(4, 3, prec)
        for alpha in (1, 2, 3):
            v = rational_valuation(Fraction(4 - 1), 3) + rational_valuation(Fraction(alpha), 3)
            exact = qeuler_numbers(6, alpha, RationalMode(4))
            table = qeuler_numbers(6, alpha, mode)
            for n in range(7):
                want = PadicNum.from_rational(exact[n], 3, prec)
                assert agreement_valuation(table[n], want) >= prec
                if n > 0:
                    closed = qeuler_poly(n, alpha, 0, mode)
                    assert prec - agreement_valuation(closed, want) == n * v

    def test_catalog_entry(self):
        for n in range(4):
            for mode in (SYM, RationalMode(4)):
                assert check("numbers", "printed", {"n": n, "alpha": 2}, mode).status == "exact"
        # alpha = 3, n = 6 at q = 4: the closed form loses 6 v_3(1 - 4^3) = 12 digits
        status = check("numbers", "printed", {"n": 6, "alpha": 3}, padic_mode(4, 3, 32)).status
        assert status == {"padic_agreement": 20, "precision": 32}


class TestQEulerPoly:
    def test_x_zero_is_the_number(self):
        # x = 0 skips the factor q^(alpha l x) = 1; the value, precision
        # included, must be what the full formula gives
        for mode in (SYM, RationalMode(4), padic_mode(4), BaseLifted(padic_mode(4), 3)):
            one = mode.from_rational(1)
            for n in range(5):
                for alpha in (1, 2):
                    acc = mode.from_rational(0)
                    for l in range(n + 1):
                        c = (-1) ** l * comb(n, l)
                        acc = acc + c * mode.q_power(0) / (one + mode.q_power(alpha * l + 1))
                    want = (one + mode.q_power(1)) * acc / (one - mode.q_power(alpha)) ** n
                    assert qeuler_poly(n, alpha, 0, mode) == want

    def test_limit_at_one_is_classical(self):
        for n in range(6):
            for x in (0, 1, Fraction(1, 2), Fraction(2, 3)):
                mode = SymbolicMode(Fraction(x).denominator)
                lim = mode.limit_at_one(qeuler_poly(n, 1, x, mode))
                assert lim == euler_classical(n)(Fraction(x))

    def test_fractional_x_needs_matching_scale(self):
        with pytest.raises(ExponentError):
            qeuler_poly(1, 1, Fraction(1, 2), SYM)
        qeuler_poly(1, 1, Fraction(1, 2), SymbolicMode(2))

    def test_fractional_x_padic(self):
        # denominator prime to p goes through the binomial series
        m = padic_mode(4)
        v = qeuler_poly(1, 1, Fraction(1, 2), m)
        assert not v.is_zero

    def test_additive_form_agrees(self):
        for n in range(5):
            for alpha in (1, 2):
                for x in (0, 1, 2):
                    a = qeuler_poly(n, alpha, x, SYM)
                    b = qeuler_poly_additive(n, alpha, x, SYM)
                    assert a == b

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=-2, max_value=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(lambda q: abs(q) != 1),
    )
    @example(1, 1, -1, Fraction(0))  # q^(-1) at q = 0: a pole in both modes
    def test_symbolic_value_at_q0_matches_rational_mode(self, n, alpha, x, q0):
        # q0 = +-1 is left out: the reduced symbolic form is finite at roots
        # of unity where the rational computation divides by zero
        def outcome(compute):
            try:
                return compute()
            except PoleError:
                return PoleError

        sym = outcome(lambda: qeuler_poly(n, alpha, x, SYM).eval_at(q0))
        rat = outcome(lambda: qeuler_poly(n, alpha, x, RationalMode(q0)))
        assert sym == rat

    @pytest.mark.parametrize("n,alpha,x,degree", [(1, 1, 200000, 200000), (2, 50001, 1, 100002)])
    def test_degree_limit_names_the_first_exponent_over_it(self, n, alpha, x, degree):
        # the sum forms q^(alpha l x) and then q^(alpha l + 1) for l = 0..n,
        # and the first of them over the limit is the degree the error names
        with pytest.raises(ResourceLimitError) as info:
            qeuler_poly(n, alpha, x, SYM)
        assert str(info.value) == f"polynomial degree {degree} exceeds limit 100000"

    def test_additive_form_rejects_non_integers(self):
        with pytest.raises(PreconditionError):
            qeuler_poly_additive(1, 1, Fraction(1, 2), SymbolicMode(2))
        with pytest.raises(PreconditionError):
            qeuler_poly_additive(1, 1, -1, SYM)


class TestDistribution:
    def test_modulus_one_is_trivial(self):
        for variant in ("printed", "corrected"):
            r = check("eq5", variant, {"n": 2, "alpha": 1, "x": 0, "d": 1}, SYM)
            assert r.status == "exact"

    def test_corrected_exact_printed_fails(self):
        mode = SymbolicMode(3)
        point = {"n": 1, "alpha": 1, "x": 0, "d": 3}
        good = check("eq5", "corrected", point, mode)
        bad = check("eq5", "printed", point, mode)
        assert good.status == "exact"
        assert "fail" in bad.status

    def test_even_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            check("eq5", "corrected", {"n": 1, "alpha": 1, "x": 0, "d": 2}, SYM)

    def test_unknown_variant_rejected(self):
        with pytest.raises(PreconditionError):
            check("eq5", "sideways", {"n": 1, "alpha": 1, "x": 0, "d": 3}, SYM)


class TestReports:
    def test_additive_report_shape(self):
        r = check("eq4", "printed", {"n": 2, "alpha": 1, "x": 1}, SYM)
        assert r.identity == "eq4" and r.variant == "printed"
        assert r.passed
        assert r.params["mode"] == {"mode": "symbolic", "scale": 1}
        assert isinstance(r.elapsed_ms, int)

    def test_padic_agreement_on_default_grid_at_k128(self):
        # at x = 0, [0]^(n-l) is an exact zero for l < n; no power of it may
        # stand in for the l = n term at the default precision of 32 digits
        mode = padic_mode(4, 3, 128)
        grid = CATALOG["eq4"].defaults
        worst = min(
            check("eq4", "printed", {"n": n, "alpha": alpha, "x": x}, mode).status["padic_agreement"]
            for n in grid["n"] for alpha in grid["alpha"] for x in grid["x"]
        )
        assert worst >= 116

    def test_padic_report_counts_as_passing(self):
        r = check("eq4", "printed", {"n": 2, "alpha": 1, "x": 1}, padic_mode(4))
        assert r.passed
        if r.status != "exact":
            assert r.status["padic_agreement"] >= 28


def _outcome(run):
    """run()'s value, or the type and message of the QdeError it raised."""
    try:
        return run()
    except QdeError as exc:
        return type(exc), str(exc)


@st.composite
def fixed_modulus_cases(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    prec = draw(st.sampled_from((1, 2, 16, 32, 128)))
    # q given to fewer digits than K, to K, and to more
    q_prec = max(1, prec + draw(st.sampled_from((-5, -1, 0, 1, 9))))
    # q = 1 makes the closed form's 1 - q^alpha a zero to working precision
    q0 = 1 + p * draw(st.sampled_from((-2, -1, 0, 1, 2, p)))
    mode = PadicMode(PadicNum.from_rational(q0, p, q_prec), PadicConfig(p, prec))
    base = draw(st.sampled_from((1, 2, p, 2 * p)))
    if base > 1:
        mode = BaseLifted(mode, base)
    # x integral, fractional, or with p in its denominator
    x = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 4, p, 2 * p))))
    return mode, draw(st.integers(1, 3)), draw(st.integers(0, 7)), x, draw(st.integers(0, 2 * p))


@st.composite
def fixed_modulus_identity_cases(draw):
    """(identity, variant, point, mode) for the p-adic identities whose sums run on ints."""
    p = draw(st.sampled_from((3, 5, 7)))
    prec = draw(st.sampled_from((2, 5, 16, 33)))
    # q given to fewer digits than K, to K, and to more
    q_prec = max(1, prec + draw(st.sampled_from((-3, -1, 0, 4))))
    q0 = 1 + p * draw(st.sampled_from((-1, 1, 2, p)))
    mode = PadicMode(PadicNum.from_rational(q0, p, q_prec), PadicConfig(p, prec))
    # theorem1 twice: its points take the two sums and both readings
    identity = draw(st.sampled_from(("eq5", "eq7", "eq8", "recursion", "theorem1", "theorem1")))
    alpha = draw(st.integers(1, 2))
    if identity in ("eq5", "eq7"):
        x = Fraction(draw(st.integers(-3, 4)), draw(st.sampled_from((1, 2, p))))
        point = {"n": draw(st.integers(0, 3)), "alpha": alpha, "d": draw(st.sampled_from((1, 3, 5))), "x": x}
    elif identity in ("eq8", "recursion"):
        big_n = draw(st.sampled_from((1, 2, 3) if identity == "eq8" else (p, 2 * p)))
        point = {"m": draw(st.integers(0, 2)), "a": draw(st.integers(1, 2 * p)), "N": big_n, "p": p, "alpha": alpha}
    else:
        # m + 1 divisible by p - 1, k up to 5 with h coprime to it
        k = draw(st.integers(1, 5))
        h = draw(st.sampled_from([h for h in range(1, 6) if gcd(h, k) == 1]))
        point = {"m": draw(st.sampled_from((1, 3) if p == 3 else (p - 2,))), "h": h, "k": k, "alpha": alpha, "p": p}
    return identity, draw(st.sampled_from(CATALOG[identity].variants)), point, mode


class TestFixedModulus:
    """The p-adic kernels on ints mod p^A against the PadicNum path.

    Equal means equal unit, valuation and precision, or the same error.
    """

    @staticmethod
    def assert_same(run):
        fast = _outcome(run)
        with pytest.MonkeyPatch.context() as mp:
            # every int kernel, the sums' included, asks _ints first
            mp.setattr(qeuler, "_ints", lambda mode, capped=True: None)
            slow = _outcome(run)
        assert fast == slow

    @settings(max_examples=200, deadline=None)
    @given(fixed_modulus_identity_cases())
    def test_identity_reports_match_the_padic_path(self, case):
        identity, variant, point, mode = case
        self.assert_same(lambda: check(identity, variant, point, mode).comparison_payload())

    @settings(max_examples=200)
    @given(fixed_modulus_cases(), st.sampled_from((1, 2, 3, 5)), st.booleans())
    def test_sums_match_the_padic_path(self, case, count, corrected):
        # the sums' own valuation and precision, before a report's comparison caps them
        mode, alpha, n, x, _ = case
        inner = BaseLifted(mode, count)
        self.assert_same(lambda: qeuler.residue_split(
            mode, count, 1 + alpha, corrected,
            lambda i: (q_int(i + 1, alpha, mode), qeuler_poly(n, alpha, (x + i) / count, inner)),
        ))
        k = count + 1
        self.assert_same(lambda: q_dc_sum(n, 1, k, alpha, 2, mode))
        self.assert_same(lambda: bracket_weighted_sum(n, k - 1, k, alpha, "naive", mode))

    def test_terms_known_past_q_are_capped(self):
        # more relative digits than q's 12: the weights q^i and the ratio cap
        # them; corrected, 4/9 - q/9 + 3 q^2 cancels down to valuation 1
        mode = PadicMode(PadicNum.from_rational(4, 3, 12), PadicConfig(3, 16))
        terms = [PadicNum.from_rational(t, 3, 40) for t in (Fraction(4, 9), Fraction(1, 9), 3)]
        for corrected in (False, True):
            self.assert_same(lambda: qeuler.residue_split(mode, 3, 1, corrected, lambda i: (terms[i],)))
        assert qeuler.residue_split(mode, 1, 1, False, lambda i: (PadicNum.from_rational(1, 3, 40),)).prec == 12

    @pytest.mark.parametrize("q_prec", [13, 16, 20])
    def test_sums_at_the_benchmark_points(self, q_prec):
        # theorem1's sums and both residue splits, with q short of, at and past K = 16
        mode = PadicMode(PadicNum.from_rational(4, 3, q_prec), PadicConfig(3, 16))
        points = [("theorem1", {"m": 3, "h": 2, "k": 5, "alpha": 1, "p": 3}),
                  ("eq5", {"n": 3, "alpha": 2, "d": 5, "x": Fraction(1, 2)}),
                  ("eq8", {"m": 2, "a": 2, "N": 3, "p": 3, "alpha": 1}),
                  ("recursion", {"m": 2, "a": 4, "N": 6, "p": 3, "alpha": 2})]
        for identity, point in points:
            for variant in CATALOG[identity].variants:
                self.assert_same(lambda: check(identity, variant, point, mode).comparison_payload())

    def test_a_zero_one_minus_q_alpha_keeps_its_error_text(self):
        # q = 1 to K digits: E_n with n >= 1 divides by O(p^(n K)); E_0 gets DEFAULT_PRECISION digits
        mode = PadicMode(PadicNum.from_rational(1 + 3**20, 3, 20), PadicConfig(3, 16))
        for n in (0, 1, 3):
            self.assert_same(lambda: qeuler_poly(n, 2, Fraction(1, 2), mode))
        with pytest.raises(PrecisionError, match=r"division by PadicNum\(O\(3\^48\)\)"):
            qeuler_poly(3, 2, 0, mode)

    @settings(max_examples=300)
    @given(fixed_modulus_cases())
    def test_kernels_match_the_padic_path(self, case):
        mode, alpha, n, x, x_int = case
        self.assert_same(lambda: qeuler_poly(n, alpha, x, mode))
        self.assert_same(lambda: qeuler_numbers(n, alpha, mode))
        self.assert_same(lambda: qeuler_poly_additive(n, alpha, x_int, mode))
        self.assert_same(lambda: q_int(x_int, alpha, mode))

    @pytest.mark.parametrize("p,top", [(3, 27), (5, 25)])
    def test_numbers_at_powers_of_p_with_a_short_q(self, p, top):
        # at n = p^k every C(n, l) with 0 < l < n is divisible by p, so only
        # E_n = -1/2 mod p keeps the PadicNum path's E_n at q's 20 digits
        mode = PadicMode(PadicNum.from_rational(1 + p, p, 20), PadicConfig(p, 32))
        for alpha in (1, 2):
            self.assert_same(lambda: qeuler_numbers(top, alpha, mode))
        assert all(e.abs_prec == 20 for e in qeuler_numbers(top, 1, mode)[1:])


@st.composite
def fixed_denominator_cases(draw):
    scale, base = draw(st.sampled_from((1, 2, 3, 6, 15))), draw(st.sampled_from((1, 2, 3, 5)))
    mode = SymbolicMode(scale) if base == 1 else BaseLifted(SymbolicMode(scale), base)
    # x integral, negative, fractional, or with a denominator the scale cannot take
    x = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 5, 15))))
    # the generic loops slow down with the stride scale * base; from 6 on,
    # n <= 3 keeps the test near 2 s
    n = draw(st.integers(0, 7 if scale * base < 6 else 3))
    return mode, draw(st.integers(1, 3)), n, x, draw(st.integers(0, 6))


def _json(outcome):
    if isinstance(outcome, list):
        return [v.to_json() for v in outcome]
    return outcome.to_json() if isinstance(outcome, RatFunc) else outcome


class TestFixedDenominator:
    """The symbolic kernels over a known denominator against the generic loops.

    Equal means an equal RatFunc with the same to_json(), or the same
    error type and message.
    """

    @staticmethod
    def assert_same(run):
        fast = _outcome(run)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qeuler, "_fixed_denominator", lambda mode: None)
            slow = _outcome(run)
        assert fast == slow
        assert _json(fast) == _json(slow)

    @settings(max_examples=300)
    @given(fixed_denominator_cases())
    def test_kernels_match_the_generic_loops(self, case):
        mode, alpha, n, x, x_int = case
        self.assert_same(lambda: qeuler_poly(n, alpha, x, mode))
        self.assert_same(lambda: qeuler_numbers(n, alpha, mode))
        self.assert_same(lambda: qeuler_poly_additive(n, alpha, x_int, mode))
        self.assert_same(lambda: q_int(x_int, alpha, mode))

    def test_past_the_unreduced_bound_the_generic_loops_answer(self):
        # over D = (1 + q^30001)(1 + q^60001) the recurrence's lists would pass
        # the degree limit; the generic loop's reduced values stay below it
        assert qeuler_numbers(2, 30000, SYM)[2].den.degree == 90002
        assert qeuler_poly_additive(2, 30000, 0, SYM).den.degree == 90002


@st.composite
def measure_cases(draw):
    p, level = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 3))
    mode = SymbolicMode(draw(st.sampled_from((1, 2, 3))))
    base = draw(st.sampled_from((1, 2, 3)))
    if base > 1:
        mode = BaseLifted(mode, base)
    return draw(st.integers(0, p**level - 1)), level, mode, p


class TestReducedMeasure:
    """Symbolic measure built reduced against the generic formula."""

    @settings(max_examples=150)
    @given(measure_cases())
    def test_matches_the_generic_formula(self, case):
        TestFixedDenominator.assert_same(lambda: measure(*case).value)

    def test_no_gcd(self, monkeypatch):
        calls = []
        heu_gcd = ratfunc._heu_gcd
        monkeypatch.setattr(ratfunc, "_heu_gcd", lambda a, b: calls.append(1) or heu_gcd(a, b))
        for p in (3, 5):
            for level in (1, 2, 3):
                for a in range(p**level):
                    measure(a, level, SYM, p)
        assert not calls


@st.composite
def binomial_multiples(draw):
    q = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=12).filter(lambda c: c[-1]))
    k = draw(st.integers(1, 9))
    return q, k, _prod(q, qeuler._stretch([1, 1], k))


class TestQuoBinomial:
    @given(binomial_multiples())
    def test_exact_quotient(self, case):
        q, k, a = case
        assert qeuler._quo_binomial(a, k) == q

    @given(binomial_multiples(), st.data())
    def test_nonzero_remainder_is_rejected(self, case, data):
        q, k, a = case
        # a remainder r with deg r < k, r != 0
        j = data.draw(st.integers(0, k - 1))
        a = a[:j] + [a[j] + data.draw(st.sampled_from((-2, -1, 1, 3)))] + a[j + 1:]
        assert qeuler._quo_binomial(a, k) is None

    @given(binomial_multiples())
    def test_shift_add_is_the_product_the_quotient_inverts(self, case):
        q, k, a = case
        for c in (q, a):
            product = qeuler._times_binomial(c, k)
            assert product == _prod(c, qeuler._stretch([1, 1], k))
            assert qeuler._quo_binomial(product, k) == c


@st.composite
def table_sequences(draw):
    """A scale and qeuler_poly calls (n, alpha, base, x), several x per (n, alpha, base)."""
    scale = draw(st.sampled_from((1, 2, 3, 6)))
    xs = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    keys = st.tuples(st.integers(0, 5), st.integers(1, 3), st.sampled_from((1, 2, 3)))
    calls = []
    for n, alpha, base in draw(st.lists(keys, min_size=1, max_size=4)):
        calls += [(n, alpha, base, x) for x in draw(st.lists(xs, min_size=2, max_size=4))]
    return scale, draw(st.permutations(calls))


def _lifted(mode, base):
    return mode if base == 1 else BaseLifted(mode, base)


class TestBinomialTable:
    """qeuler_poly's per-mode table of binomial products: a warm mode answers as a fresh one does."""

    @settings(max_examples=100)
    @given(table_sequences())
    def test_a_warm_mode_matches_a_cold_one(self, case):
        scale, calls = case
        mode = SymbolicMode(scale)
        # the second round reads only entries the first made, so a changed list shows there
        for _ in range(2):
            for n, alpha, base, x in calls:
                warm = _outcome(lambda: qeuler_poly(n, alpha, x, _lifted(mode, base)))
                cold = _outcome(lambda: qeuler_poly(n, alpha, x, _lifted(SymbolicMode(scale), base)))
                assert _json(warm) == _json(cold)

    def test_modes_do_not_share_a_table_and_wrappers_of_one_root_do(self):
        mode, other = SymbolicMode(2), SymbolicMode(2)
        qeuler_poly(3, 2, 0, BaseLifted(mode, 2))
        # at x = 0 every exponent is a multiple of fd(1), so every base has the key (n, alpha, 1)
        entry = mode._binomials[3, 2, 1]
        for lifted in (mode, BaseLifted(mode, 3), BaseLifted(BaseLifted(mode, 2), 5)):
            qeuler_poly(3, 2, 0, lifted)
            assert list(mode._binomials) == [(3, 2, 1)]
            assert mode._binomials[3, 2, 1] is entry
        assert other._binomials == {}

    def test_the_guard_and_the_exponents_come_before_the_table(self):
        mode = SymbolicMode()
        fd = qeuler._fixed_denominator(mode)
        # the alpha = 30000 case of TestFixedDenominator, and a shift q^(alpha l x) alone past the limit
        for alpha, x in ((30000, 0), (1, 50000)):
            with pytest.raises(ResourceLimitError, match="exceeds limit"):
                qeuler._closed_form_ints(2, alpha, x, fd, mode._binomials)
            assert mode._binomials == {}
        with pytest.raises(ExponentError, match="multiple of 3"):
            qeuler_poly(2, 1, Fraction(1, 3), mode)
        assert mode._binomials == {}


RATIONAL_QS = (0, 1, -1, Fraction(1, 2), Fraction(-2, 3), 4)


@st.composite
def fixed_rational_cases(draw):
    q0 = draw(st.sampled_from(RATIONAL_QS) | st.fractions(min_value=-5, max_value=5, max_denominator=7))
    base = draw(st.sampled_from((1, 2, 3)))
    mode = RationalMode(q0) if base == 1 else BaseLifted(RationalMode(q0), base)
    # x integral, negative, or fractional: q^(alpha l x) may not be rational
    x = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 1, 2, 3))))
    return mode, draw(st.integers(1, 3)), draw(st.integers(0, 7)), x, draw(st.integers(0, 6))


def _typed(outcome):
    """An outcome with the type of every value, so that an int never passes for a Fraction."""
    if isinstance(outcome, list):
        return [(type(v), v) for v in outcome]
    return type(outcome), outcome


class TestFixedRational:
    """The rational kernels on ints against the generic Fraction loops.

    Equal means the same Fraction, or the same error type and message.
    """

    @staticmethod
    def assert_same(run):
        fast = _typed(_outcome(run))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qeuler, "_ints", lambda mode, capped=True: None)
            slow = _typed(_outcome(run))
        assert fast == slow

    @settings(max_examples=300)
    @given(fixed_rational_cases())
    def test_kernels_match_the_generic_loops(self, case):
        mode, alpha, n, x, x_int = case
        self.assert_same(lambda: qeuler_poly(n, alpha, x, mode))
        self.assert_same(lambda: qeuler_numbers(n, alpha, mode))
        self.assert_same(lambda: qeuler_poly_additive(n, alpha, x_int, mode))
        self.assert_same(lambda: q_int(x_int, alpha, mode))

    @pytest.mark.parametrize("q0", RATIONAL_QS)
    @pytest.mark.parametrize("base", [1, 2])
    def test_fixed_points(self, q0, base):
        mode = RationalMode(q0) if base == 1 else BaseLifted(RationalMode(q0), base)
        for n in range(5):
            for alpha in (1, 2):
                for x in (0, 2, -1, Fraction(1, 2), Fraction(-3, 2)):
                    self.assert_same(lambda: qeuler_poly(n, alpha, x, mode))
                self.assert_same(lambda: qeuler_numbers(n, alpha, mode))
                self.assert_same(lambda: qeuler_poly_additive(n, alpha, 3, mode))
        # a negative weight forms a negative power of q from x = 2 on
        for x in range(4):
            self.assert_same(lambda: q_int(x, -1, mode))

    @pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-2, 3), 4, -2])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_residue_split_matches_the_generic_ratio(self, q0, corrected):
        # the ratio (1 + q^step)/(1 + q^(step count)) from the int view, against Fractions
        for base in (1, 2):
            mode = RationalMode(q0) if base == 1 else BaseLifted(RationalMode(q0), base)
            for count, step, n in [(1, 1, 2), (3, 1, 3), (5, 2, 1), (3, 4, 2), (2, 3, 0)]:
                inner = BaseLifted(mode, count * step)
                self.assert_same(lambda: qeuler.residue_split(
                    mode, count, step, corrected,
                    lambda i: (q_int(i + 1, 2, mode), qeuler_poly(n, 1, Fraction(i + 1, count), inner)),
                ))

    @pytest.mark.parametrize("base, count, step", [(1, 3, 1), (1, 1, 1), (1, 5, 3), (3, 3, 1)])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_residue_split_where_the_ratio_has_a_pole(self, base, count, step, corrected):
        # at q = -1, 1 + q^(step count) vanishes for odd base step count; with count = 1 the ratio is 0/0
        mode = RationalMode(-1) if base == 1 else BaseLifted(RationalMode(-1), base)
        with pytest.raises(PoleError, match=rf"1 \+ q\^{step * count} vanishes"):
            qeuler.residue_split(mode, count, step, corrected, lambda i: (mode.from_rational(1),))

    def test_poles_and_exponent_errors(self):
        # 1 + q^(alpha l + 1) = 0 at l = 0, before q^(1/3) fails at l = 1
        with pytest.raises(PoleError, match="q-Euler polynomial"):
            qeuler_poly(2, 2, Fraction(1, 3), RationalMode(-1))
        with pytest.raises(ExponentError, match=r"q\^\(2/3\)"):
            qeuler_poly(2, 2, Fraction(1, 3), RationalMode(Fraction(1, 2)))
        with pytest.raises(PoleError, match=r"1 \+ q\^3 vanishes"):
            qeuler_numbers(2, 2, RationalMode(-1))
        with pytest.raises(PoleError, match="negative power of q = 0"):
            qeuler_poly(1, 1, -1, RationalMode(0))
        with pytest.raises(PoleError, match="negative power of q = 0"):
            q_int(2, -1, RationalMode(0))
        assert q_int(1, -1, RationalMode(0)) == 1

    def test_kernels_form_no_fraction_power(self, monkeypatch):
        monkeypatch.setattr(RationalMode, "q_power", lambda self, e: pytest.fail(f"q^{e} formed as a Fraction"))
        mode = BaseLifted(RationalMode(Fraction(-2, 3)), 2)
        assert qeuler_poly(4, 2, -3, mode) != qeuler_poly_additive(4, 2, 3, mode)
        assert len(qeuler_numbers(5, 2, mode)) == 6
        assert q_int(4, 2, mode) == sum(Fraction(-2, 3) ** (4 * i) for i in range(4))


class TestIntView:
    """_ints builds the int view of q^e once per root mode, base and precision."""

    @pytest.mark.parametrize("mode", [RationalMode(Fraction(-2, 3)), padic_mode(4, 3, 16)])
    def test_lifted_wrappers_share_one_cached_view(self, mode):
        view = qeuler._ints(BaseLifted(mode, 3))
        assert view is not None and qeuler._ints(BaseLifted(mode, 3)) is view
        assert qeuler._ints(BaseLifted(BaseLifted(mode, 3), 1)) is view
        assert qeuler._ints(BaseLifted(mode, 2)) is not view
        assert qeuler._ints(mode) is qeuler._ints(mode) is not view
        # q^e at base 3 is the lifted mode's q^e, exactly or as its residue mod p^A
        lifted = BaseLifted(mode, 3)
        if view.m is None:
            assert Fraction(*view.power(-2)) == lifted.q_power(-2)
        else:
            assert view.power(Fraction(2, 5)) == (lifted.q_power(Fraction(2, 5)).unit % view.m, 1)

    def test_a_symbolic_mode_has_none(self):
        assert qeuler._ints(SYM) is None
        assert qeuler._ints(BaseLifted(SymbolicMode(2), 3)) is None

    @pytest.mark.parametrize("extra", [-3, 0, 4])
    @pytest.mark.parametrize("K", [1, 2, 16, 128])
    @pytest.mark.parametrize("p", [3, 5, 7])
    @settings(max_examples=8)
    @given(st.integers(1, 10**9), st.integers(1, 5),
           st.lists(st.tuples(st.integers(-20, 20), st.integers(1, 30)), min_size=1, max_size=8))
    def test_fractional_power_is_one_modular_power(self, p, K, extra, k, base, exps):
        # q known to K - 3, K or K + 4 digits; q^(a/b) at base B is one power u^(a' b'^-1) mod p^A with
        # a'/b' = a B / b in lowest terms, whatever root it went through
        q = PadicNum.from_rational(1 + p * k, p, max(1, K + extra))
        mode = BaseLifted(PadicMode(q, PadicConfig(p, K)), base)
        roots = root_mode(mode)._roots
        for view in (qeuler._ints(mode), qeuler._ints(mode, capped=False)):
            m = view.m
            for a, b in exps:
                e = Fraction(a, b) * base
                if e.denominator % p == 0:
                    before = dict(roots)
                    with pytest.raises(ExponentError, match=f"is not a {p}-adic integer"):
                        view.power(Fraction(a, b))
                    assert roots == before
                else:
                    assert view.power(Fraction(a, b)) == (pow(q.unit, e.numerator * pow(e.denominator, -1, m), m), 1)

    def test_lifted_bases_share_one_root_per_denominator(self):
        mode = padic_mode(4, 3, 128)
        # q^(2/7) at base 1, q^(4/7) at base 2 and q^(-12/7) at base 6 all come from q^(1/7)
        for base, e in ((1, Fraction(2, 7)), (2, Fraction(2, 7)), (6, Fraction(-2, 7))):
            qeuler._ints(BaseLifted(mode, base)).power(e)
        assert list(mode._roots) == [(128, 7)]

    def test_a_capped_q_has_one_view_per_precision(self):
        # q known to at most K digits: the capped and uncapped views are one view
        for q_prec in (12, 16):
            mode = PadicMode(PadicNum.from_rational(4, 3, q_prec), PadicConfig(3, 16))
            assert qeuler._ints(mode, capped=False) is qeuler._ints(mode)
            assert qeuler._ints(mode).m == 3**q_prec
        # known to more, the kernels that add the K-digit one work mod p^K and the others mod p^abs_prec(q)
        mode = PadicMode(PadicNum.from_rational(4, 3, 20), PadicConfig(3, 16))
        capped, uncapped = qeuler._ints(mode), qeuler._ints(mode, capped=False)
        assert capped is not uncapped
        assert (capped.m, uncapped.m) == (3**16, 3**20)

    def test_the_recurrence_makes_one_modular_inverse(self, monkeypatch):
        # finish divides each E_n by N[0] = 1; inverting 1 is no work, so only the other inverses count
        inverses = []

        def counting_pow(x, e, m=None):
            if e == -1 and x % m != 1:
                inverses.append(x)
            return pow(x, e, m)

        monkeypatch.setattr(qeuler, "pow", counting_pow, raising=False)
        qeuler_numbers(8, 2, padic_mode(4, 3, 128))
        assert len(inverses) == 1

    @pytest.mark.parametrize("K", [1, 2, 128])
    def test_one_inverse_gives_the_per_step_table(self, K, monkeypatch):
        table = qeuler_numbers(8, 2, padic_mode(4, 3, K))
        # one pow(d_n, -1, p^A) per step, as the recurrence divided before
        monkeypatch.setattr(qeuler, "_inverses", lambda xs, m: [pow(x, -1, m) for x in xs])
        assert table == qeuler_numbers(8, 2, padic_mode(4, 3, K))
