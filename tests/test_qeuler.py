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
    residue_split,
    root_mode,
    serialize_value,
)
from qde.ratfunc import Poly, RatFunc
from test_kernel_reference import REFERENCES, reference_kernels

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
        with pytest.raises(PreconditionError, match=r"^modulus must be odd and positive, got 2$"):
            check("eq5", "corrected", {"n": 1, "alpha": 1, "x": 0, "d": 2}, SYM)

    def test_modulus_comes_before_the_left_side(self):
        # q^(1/2) has no value at q = 2, so building E_1(1/2) first would raise ExponentError
        with pytest.raises(PreconditionError, match=r"^modulus must be odd and positive, got 2$"):
            check("eq5", "corrected", {"n": 1, "alpha": 1, "x": Fraction(1, 2), "d": 2}, RationalMode(2))

    def test_unknown_variant_rejected(self):
        with pytest.raises(PreconditionError, match=r"^identity eq5 has no 'sideways' form$"):
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


def _against_reference(kernel, args):
    """(kernel(*args), its reference's outcome) as _outcome gives them.

    A kernel of qde.qeuler runs against its reference; any other
    function runs against itself on the reference kernels.
    """
    fast = _outcome(lambda: kernel(*args))
    with reference_kernels():
        slow = _outcome(lambda: REFERENCES.get(kernel.__name__, kernel)(*args))
    return fast, slow


class TestFixedModulus:
    """The p-adic kernels on ints mod p^A against the PadicNum references.

    Equal means equal unit, valuation and precision, or the same error.
    """

    @staticmethod
    def assert_same(kernel, *args):
        fast, slow = _against_reference(kernel, args)
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
        xs = [(x + i) / count for i in range(count)]
        self.assert_same(qeuler.residue_split, mode, count, n, alpha, xs, 1 + alpha, corrected)
        k = count + 1
        self.assert_same(q_dc_sum, n, 1, k, alpha, 2, mode)
        self.assert_same(bracket_weighted_sum, n, k - 1, k, alpha, "naive", mode)

    def test_terms_known_past_q_are_capped(self):
        # K = 16 digits past q's 12: the terms, the weights q^i and the ratio keep q's 12
        mode = PadicMode(PadicNum.from_rational(4, 3, 12), PadicConfig(3, 16))
        xs = [Fraction(4, 5), Fraction(1, 2), Fraction(3)]
        for corrected in (False, True):
            self.assert_same(qeuler.residue_split, mode, 3, 2, 1, xs, 1, corrected)
        self.assert_same(qeuler.residue_split, mode, 1, 0, 1, [Fraction(1)], 1, False)
        assert qeuler.residue_split(mode, 1, 0, 1, [Fraction(1)], 1, False).abs_prec <= 12

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
            self.assert_same(qeuler_poly, n, 2, Fraction(1, 2), mode)
        with pytest.raises(PrecisionError, match=r"division by PadicNum\(O\(3\^48\)\)"):
            qeuler_poly(3, 2, 0, mode)

    @settings(max_examples=300)
    @given(fixed_modulus_cases())
    def test_kernels_match_the_padic_path(self, case):
        mode, alpha, n, x, x_int = case
        self.assert_same(qeuler_poly, n, alpha, x, mode)
        self.assert_same(qeuler_numbers, n, alpha, mode)
        self.assert_same(qeuler_poly_additive, n, alpha, x_int, mode)
        self.assert_same(q_int, x_int, alpha, mode)

    @pytest.mark.parametrize("p,top", [(3, 27), (5, 25)])
    def test_numbers_at_powers_of_p_with_a_short_q(self, p, top):
        # at n = p^k every C(n, l) with 0 < l < n is divisible by p, so only
        # E_n = -1/2 mod p keeps the PadicNum path's E_n at q's 20 digits
        mode = PadicMode(PadicNum.from_rational(1 + p, p, 20), PadicConfig(p, 32))
        for alpha in (1, 2):
            self.assert_same(qeuler_numbers, top, alpha, mode)
        assert all(e.abs_prec == 20 for e in qeuler_numbers(top, 1, mode)[1:])


@st.composite
def fixed_denominator_cases(draw):
    scale, base = draw(st.sampled_from((1, 2, 3, 6, 15))), draw(st.sampled_from((1, 2, 3, 5)))
    mode = SymbolicMode(scale) if base == 1 else BaseLifted(SymbolicMode(scale), base)
    # x integral, negative, fractional, or with a denominator the scale cannot take
    x = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from((1, 2, 3, 5, 15))))
    # the references slow down with the stride scale * base; from 6 on,
    # n <= 3 keeps the test near 2 s
    n = draw(st.integers(0, 7 if scale * base < 6 else 3))
    # q_int takes any integer weight, a negative one moving its powers into the denominator
    return mode, draw(st.integers(1, 3)), n, x, draw(st.integers(0, 6)), draw(st.integers(-3, 3))


def _json(outcome):
    if isinstance(outcome, list):
        return [v.to_json() for v in outcome]
    return outcome.to_json() if isinstance(outcome, RatFunc) else outcome


def split_mode_last(*args):
    """residue_split with the mode last, as the other kernels take it."""
    *args, mode = args
    return residue_split(mode, *args)


class TestFixedDenominator:
    """The symbolic kernels over a known denominator against the RatFunc references.

    Equal means an equal RatFunc with the same to_json(), or the same
    error type and message.
    """

    @staticmethod
    def assert_same(kernel, *args):
        fast, slow = _against_reference(kernel, args)
        assert fast == slow
        assert _json(fast) == _json(slow)

    @settings(max_examples=300)
    @given(fixed_denominator_cases())
    def test_kernels_match_the_generic_loops(self, case):
        mode, alpha, n, x, x_int, weight = case
        self.assert_same(qeuler_poly, n, alpha, x, mode)
        self.assert_same(qeuler_numbers, n, alpha, mode)
        self.assert_same(qeuler_poly_additive, n, alpha, x_int, mode)
        self.assert_same(q_int, x_int, weight, mode)

    def test_q_int_at_a_negative_weight_keeps_its_negative_powers(self):
        # 1 + q^-1 + q^-2 = (1 + Q + Q^2)/Q^2, and at scale 2, 1 + q^-2 = 1 + Q^-4
        one, monomial = RatFunc.const(1), RatFunc.monomial
        assert q_int(3, -1, SYM) == one + monomial(-1) + monomial(-2)
        assert q_int(2, -2, SymbolicMode(2)) == one + monomial(-4)
        self.assert_same(q_int, 3, -1, SYM)
        self.assert_same(q_int, 2, -2, SymbolicMode(2))

    def test_the_int_lists_answer_up_to_their_longest_list(self):
        # over D = (1 + q^30001)(1 + q^60001) the longest list has degree 90,002, under the limit
        assert qeuler_numbers(2, 30000, SYM)[2].den.degree == 90002
        assert qeuler_poly_additive(2, 30000, 0, SYM).den.degree == 90002
        # a split's top = 60,000 is its one term's own shift, and its lists reach 60,014 (not read: reducing takes seconds)
        assert isinstance(residue_split(SYM, 1, 3, 1, [Fraction(-20000)], 1, True), RatFunc)

    @pytest.mark.parametrize("kernel, args", [
        (qeuler_numbers, (5, 2)),
        (qeuler_numbers, (0, 3)),
        (qeuler_poly_additive, (4, 2, 0)),
        (qeuler_poly_additive, (4, 2, 1)),
        (qeuler_poly_additive, (3, 1, 5)),
        (qeuler_poly_additive, (0, 3, 4)),
        # residue_split's ratio and weights included: a negative x moves its shift into the denominator, and
        # with weights q^(step i) the numerator can be the longest list
        (split_mode_last, (1, 3, 1, [Fraction(-2)], 1, True)),
        (split_mode_last, (2, 2, 1, [Fraction(0), Fraction(1, 2), Fraction(3)], 3, True)),
        (split_mode_last, (1, 2, 2, [Fraction(-1), Fraction(5), Fraction(0)], 2, False)),
    ])
    @pytest.mark.parametrize("mode", [SYM, SymbolicMode(3), BaseLifted(SymbolicMode(2), 3)])
    def test_the_degree_guard_is_the_longest_list(self, monkeypatch, kernel, args, mode):
        guards, packed, lists, strides = [], [], [], []
        guard = qeuler._guard_degree
        monkeypatch.setattr(qeuler, "_guard_degree", lambda d: guards.append(d) or guard(d))

        def recorded(helper, length, into):
            return lambda *a: into.append(length(out := helper(*a)) - 1) or out

        # every polynomial formed: packed ones, (value, length) in the Q^g they are packed in, and the lists
        # their value's parts are read back to, in Q, with g the stride each is stretched by
        for name in ("_times_packed", "_axpy_packed", "_mul_packed", "_quo_packed"):
            monkeypatch.setattr(qeuler, name, recorded(getattr(qeuler, name), lambda out: out[1], packed))
        stretch = recorded(ratfunc._stretch, len, lists)
        monkeypatch.setattr(ratfunc, "_stretch", lambda a, g: strides.append(g) or stretch(a, g))
        read_back(kernel(*args, mode))
        # a kernel packs every polynomial in one Q^g
        assert len(set(strides)) == (len(packed) > 0)
        # the kernel's own guard comes last, after fd(1)'s
        assert guards[-1] == max([d * strides[0] for d in packed] + lists, default=0)

    def test_the_additive_form_guards_its_bracket_in_q(self):
        # [x] has degree 39,999 in q = Q^3, so 119,997 in Q: past the limit, as 100,001 is at scale 1
        with pytest.raises(ResourceLimitError, match="polynomial degree 119997 exceeds limit 100000"):
            qeuler_poly_additive(0, 1, 40000, SymbolicMode(3))
        with pytest.raises(ResourceLimitError, match="polynomial degree 100001 exceeds limit 100000"):
            qeuler_poly_additive(0, 1, 100002, SYM)

    def test_past_the_limit_a_kernel_names_its_degree(self):
        # the closed form's denominator (1 + Q)(1 + Q^50001)(1 - Q^50000) has degree 100,002;
        # reduced, the value's has degree 50,001
        with pytest.raises(ResourceLimitError, match="polynomial degree 100002 exceeds limit 100000"):
            qeuler_poly(1, 50000, 0, SymbolicMode())


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
        fast = _outcome(lambda: measure(*case).value)
        with pytest.MonkeyPatch.context() as mp:
            # the formula measure uses at a fixed q
            mp.setattr(qeuler, "_fixed_denominator", lambda mode: None)
            slow = _outcome(lambda: measure(*case).value)
        assert fast == slow
        assert _json(fast) == _json(slow)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1, 2, 3])
    @pytest.mark.parametrize("base", [1, 2])
    def test_every_odd_prime_level_and_scale(self, p, level, scale, base):
        mode = SymbolicMode(scale) if base == 1 else BaseLifted(SymbolicMode(scale), base)
        n, k = p**level, scale * base
        dens = set()
        for a in sorted({0, 1, n // 2, n - 1}):
            fast = measure(a, level, mode, p).value
            # both parts packed in Q^k, one byte a digit, every digit 0 or +-1: +-Y^a over (Y^n + 1)/(Y + 1)
            assert [part._packed[1:] + (part._h,) for part in (fast._n, fast._d)] == [(a + 1, k, 8, 1), (n, k, 8, 1)]
            dens.add(fast._d._packed[0])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(qeuler, "_fixed_denominator", lambda mode: None)
                slow = measure(a, level, mode, p).value
            assert fast == slow and slow == fast
            assert fast.to_json() == slow.to_json()
        # one level, one denominator
        assert dens == {((1 << 8 * n) + 1) // 257}

    @pytest.mark.parametrize("p, top", [(3, 3), (5, 3)])
    def test_the_mass_and_cell_laws_read_no_list_back(self, monkeypatch, p, top):
        monkeypatch.setattr(ratfunc, "_unpack", lambda *a: pytest.fail("a list was read back"))
        for level in range(1, top + 1):
            masses = [measure(a, level, SYM, p).value for a in range(p**level)]
            total = RatFunc.zero()
            for m in masses:
                total = total + m
            assert total == RatFunc.one() and total == 1
            if level > 1:
                for a in range(p ** (level - 1)):
                    cell = RatFunc.zero()
                    for j in range(p):
                        cell = cell + masses[a + j * p ** (level - 1)]
                    assert cell == measure(a, level - 1, SYM, p).value
                    assert cell != measure((a + 1) % p ** (level - 1), level - 1, SYM, p).value

    def test_no_gcd(self, monkeypatch):
        calls = []
        heu_gcd = ratfunc._heu_gcd
        monkeypatch.setattr(ratfunc, "_heu_gcd", lambda a, b: calls.append(1) or heu_gcd(a, b))
        for p in (3, 5):
            for level in (1, 2, 3):
                for a in range(p**level):
                    measure(a, level, SYM, p)
        assert not calls


def times_list(a: list, k: int, sign: int = 1) -> list:
    """a (1 + sign Q^k) on an int list."""
    c = a + [0] * k
    for i, x in enumerate(a):
        c[i + k] += sign * x
    return c


def quo_list(a: list, k: int):
    """a / (1 + Q^k) on an int list by q_i = a_i - q_(i-k), or None where 1 + Q^k leaves a remainder."""
    n = len(a) - k
    q = a[:n]
    for i in range(k, n):
        q[i] -= q[i - k]
    # the top k coefficients are the remainder's: a_j = q_(j-k) there
    return q if n > 0 and ([0] * k + q)[n:] == a[n:] else None


def packed(a: list, bits: int) -> tuple:
    return ratfunc._pack(a, bits // 8), len(a)


def unpacked(a: tuple, bits: int) -> list:
    return ratfunc._unpack(*a, bits // 8)


def numbers_lists(top: int, alpha: int) -> list:
    """qeuler's table N[l] on int lists, step by step as the recurrence states it."""
    nums = [[1]]
    for n in range(1, top + 1):
        nums[0] = times_list(nums[0], alpha * n + 1)
    for n in range(1, top + 1):
        acc = [0] * len(nums[0])
        for l in range(n):
            for i, c in enumerate(nums[l]):
                acc[alpha * l + i] += comb(n, l) * c
        nums.append([0] + [-c for c in quo_list(acc, alpha * n + 1)])
    return nums


# coefficients past 2^64 and shifts past 10,000
wide_coefficients = st.integers(-(2**70), 2**70)
shifts = st.one_of(st.integers(1, 9), st.integers(10_000, 12_000))


@st.composite
def binomial_multiples(draw):
    coefficients = st.one_of(st.integers(-9, 9), wide_coefficients)
    q = draw(st.lists(coefficients, min_size=1, max_size=12).filter(lambda c: c[-1]))
    k = draw(shifts)
    a = times_list(q, k)
    # a width that holds every coefficient of q and of a
    return q, k, a, 8 * ratfunc._width(2 * max(map(abs, q)))


class TestPackedHelpers:
    """The packed polynomial helpers against int-list references."""

    @given(binomial_multiples())
    def test_exact_quotient(self, case):
        q, k, a, bits = case
        assert unpacked(qeuler._quo_packed(packed(a, bits), k, bits), bits) == q

    @given(binomial_multiples(), st.data())
    def test_nonzero_remainder_is_rejected(self, case, data):
        q, k, a, bits = case
        # a remainder r with deg r < k, r != 0
        j = data.draw(st.integers(0, min(k, len(a)) - 1))
        a = a[:j] + [a[j] + data.draw(st.sampled_from((-2, -1, 1, 3)))] + a[j + 1:]
        assert quo_list(a, k) is None
        assert qeuler._quo_packed(packed(a, bits), k, bits) is None

    @given(binomial_multiples(), st.sampled_from((1, -1)))
    def test_shift_add_is_the_product_the_quotient_inverts(self, case, sign):
        q, k, a, bits = case
        assert unpacked(qeuler._times_packed(packed(q, bits), k, bits), bits) == a
        product = qeuler._times_packed(packed(q, bits), k, bits, sign)
        assert unpacked(product, bits) == times_list(q, k, sign)
        if sign == 1:
            assert unpacked(qeuler._quo_packed(product, k, bits), bits) == q

    @given(st.lists(wide_coefficients, min_size=1, max_size=12), st.lists(wide_coefficients, min_size=1, max_size=12),
           st.integers(-(2**40), 2**40), st.one_of(st.integers(0, 9), shifts))
    def test_axpy_and_product(self, acc, t, c, shift):
        # room for a product's coefficients, 12 of 2^140
        bits = 8 * ratfunc._width(12 * 2**140)
        want = acc + [0] * max(0, shift + len(t) - len(acc))
        for i, x in enumerate(t):
            want[shift + i] += c * x
        assert unpacked(qeuler._axpy_packed(packed(acc, bits), c, packed(t, bits), shift, bits), bits) == want
        assert unpacked(qeuler._mul_packed(packed(acc, bits), packed(t, bits)), bits) == ratfunc._mul_schoolbook(acc, t)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 3))
    def test_the_numbers_table_matches_its_lists(self, top, alpha):
        l1 = qeuler._numbers_l1(top)
        bits = 8 * ratfunc._width(max(l1))
        want = numbers_lists(top, alpha)
        assert [unpacked(v, bits) for v in qeuler._numbers_ints(top, alpha, bits)] == want
        # each bound holds its N[l]
        assert all(sum(map(abs, v)) <= b for v, b in zip(want, l1))


def read_back(value) -> None:
    """Read the parts of a kernel's value, or of each value in a list, back to lists, as arithmetic would."""
    for v in value if isinstance(value, list) else [value]:
        v._n._num, v._d._num


def record_norms(monkeypatch, call) -> tuple:
    """(bounds, norms): the bound each width comes from, and the L1 norm of each polynomial divided or read back.

    Every width is made 8 bytes wider than the bound calls for, so each
    packed value reads back as the polynomial it is; the value call
    returns is read back in full.
    """
    bounds, norms = [], []
    width, quo, unpack = qeuler._width, qeuler._quo_packed, ratfunc._unpack

    def read(v, n, w):
        norms.append(sum(map(abs, out := unpack(v, n, w))))
        return out

    monkeypatch.setattr(qeuler, "_width", lambda bound: bounds.append(bound) or width(bound) + 8)
    monkeypatch.setattr(ratfunc, "_unpack", read)
    monkeypatch.setattr(qeuler, "_quo_packed", lambda a, k, bits: (out := quo(a, k, bits), read(*out, bits // 8))[0])
    read_back(call())
    return bounds, norms


@st.composite
def packed_kernel_calls(draw):
    """A symbolic kernel call, n up to 12, as a thunk."""
    mode = draw(st.sampled_from((SYM, SymbolicMode(3), BaseLifted(SymbolicMode(2), 3))))
    n, alpha = draw(st.integers(0, 12)), draw(st.sampled_from((1, 2, 3, 50)))
    xs = draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 3))), min_size=1, max_size=3))
    k, p = draw(st.sampled_from((2, 3, 5))), draw(st.sampled_from((3, 5)))
    firsts = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    seconds = draw(st.sampled_from((None, [draw(st.integers(1, 9)) for _ in firsts])))
    return draw(st.sampled_from((
        lambda: qeuler_poly(n, alpha, xs[0], mode),
        lambda: qeuler_numbers(n, alpha, mode),
        lambda: qeuler_poly_additive(n, alpha, abs(int(xs[0])), mode),
        lambda: residue_split(mode, 1 + len(xs), n, alpha, xs, k, draw(st.booleans())),
        lambda: qeuler.weighted_euler_sum(min(n, 4), alpha, xs, k, mode),
        lambda: qeuler.weighted_scaled_sum(min(n, 4), alpha, k, firsts, seconds, p, draw(st.booleans()), mode),
    )))


class TestPackedWidths:
    """Each symbolic kernel's width holds every coefficient it divides or reads back.

    The kernels take w from an L1 bound derived from the formula (see the
    qeuler module docstring); a coefficient is at most its polynomial's L1
    norm, so a bound that holds each norm is wide enough.
    """

    @settings(max_examples=150, deadline=None)
    @given(packed_kernel_calls())
    def test_every_norm_is_within_the_bound(self, call):
        with pytest.MonkeyPatch.context() as mp:
            try:
                bounds, norms = record_norms(mp, call)
            except QdeError:
                return  # a pole, an exponent the mode cannot take or the degree limit: nothing was packed
        assert len(bounds) <= 1
        assert max(norms, default=0) <= sum(bounds)

    @settings(max_examples=100, deadline=None)
    @given(packed_kernel_calls())
    def test_every_denominator_reads_back_monic(self, call):
        # a product of powers of Q and binomials 1 +- Q^k leads with +-1, and the packed value's sign makes it 1
        try:
            value = call()
        except QdeError:
            return
        for v in value if isinstance(value, list) else [value]:
            assert v._d._num[-1] == v._d._den == 1

    @settings(max_examples=100, deadline=None)
    @given(packed_kernel_calls())
    def test_every_part_carries_a_bound_on_its_norm(self, call):
        # a part's digit bound h is the L1 bound its width comes from, so == sizes its products from it
        try:
            value = call()
        except QdeError:
            return
        for v in value if isinstance(value, list) else [value]:
            for part in (v._n, v._d):
                if type(part) is ratfunc._Packed:
                    assert sum(map(abs, part._num)) <= part._h < 1 << part._packed[3] - 1

    @pytest.mark.parametrize("call, attained", [
        (lambda: qeuler.weighted_scaled_sum(0, 50, 2, [1], [1], 3, True, SYM), (False, True)),
        (lambda: qeuler.weighted_scaled_sum(1, 50, 2, [1], [1], 3, True, SYM), (False, True)),
        (lambda: qeuler.weighted_scaled_sum(0, 50, 2, [1], None, 3, True, SYM), (True, True)),
        (lambda: qeuler.weighted_euler_sum(0, 50, [Fraction(1)], 2, SYM), (True, True)),
        (lambda: qeuler_poly(1, 50, Fraction(7), SYM), (True, False)),
        (lambda: qeuler_numbers(1, 50, SYM)[1], (True, True)),
        (lambda: qeuler_poly_additive(0, 50, 7, SYM), (True, True)),
    ])
    def test_the_digit_bounds_are_attained(self, call, attained):
        # at alpha = 50 the powers of Q in a part rarely meet, and where none do its L1 norm is its bound h
        v = call()
        for part, hit in zip((v._n, v._d), attained):
            norm = sum(map(abs, part._num))
            assert norm == part._h if hit else norm < part._h

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_closed_form_bounds_are_attained(self, monkeypatch, n):
        # at alpha = 50 and x >= 7 no two powers of Q in a term meet with opposite signs, and positive weights
        # 5000 apart keep the terms apart: the numerator has its bound 2 sum |c_i| 2^n 2^n
        fd = qeuler._fixed_denominator(SYM)
        xs, weights = [Fraction(x) for x in (7, 9, 13)], [(1, 0), (2, 5000), (1, 10000)]
        form = qeuler._closed_form_ints(n, 50, xs, fd, fd, weights)
        bounds, norms = record_norms(monkeypatch, lambda: qeuler._finished(*form))
        assert bounds == [max(norms)] == [2 * 4 * 2**n * 2**n]


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
    """qeuler_poly's binomial products, formed per call: a reused mode answers as a fresh one does."""

    @settings(max_examples=100)
    @given(table_sequences())
    def test_a_warm_mode_matches_a_cold_one(self, case):
        scale, calls = case
        fresh = [lambda: SymbolicMode(scale), lambda: RationalMode(Fraction(1, 2)),
                 lambda: RationalMode(Fraction(-2, 3)), lambda: padic_mode(4, 3, 32)]
        # one mode of each kind answers every call, twice over
        for make, mode in [(make, make()) for make in fresh]:
            for _ in range(2):
                for n, alpha, base, x in calls:
                    warm = _outcome(lambda: qeuler_poly(n, alpha, x, _lifted(mode, base)))
                    cold = _outcome(lambda: qeuler_poly(n, alpha, x, _lifted(make(), base)))
                    assert _json(warm) == _json(cold)

    def test_the_guard_and_the_exponents_come_before_the_table(self):
        mode = SymbolicMode()
        fd = qeuler._fixed_denominator(mode)
        # the alpha = 30000 case of TestFixedDenominator, and a shift q^(alpha l x) alone past the limit
        for alpha, x in ((30000, 0), (1, 50000)):
            with pytest.raises(ResourceLimitError, match="exceeds limit"):
                qeuler._closed_form_ints(2, alpha, [x], fd, fd)
        with pytest.raises(ExponentError, match="multiple of 3"):
            qeuler_poly(2, 1, Fraction(1, 3), mode)


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
    """The rational kernels on ints against the Fraction references.

    Equal means the same Fraction, or the same error type and message.
    """

    @staticmethod
    def assert_same(kernel, *args):
        fast, slow = _against_reference(kernel, args)
        assert _typed(fast) == _typed(slow)

    @settings(max_examples=300)
    @given(fixed_rational_cases())
    def test_kernels_match_the_generic_loops(self, case):
        mode, alpha, n, x, x_int = case
        self.assert_same(qeuler_poly, n, alpha, x, mode)
        self.assert_same(qeuler_numbers, n, alpha, mode)
        self.assert_same(qeuler_poly_additive, n, alpha, x_int, mode)
        self.assert_same(q_int, x_int, alpha, mode)

    @pytest.mark.parametrize("q0", RATIONAL_QS)
    @pytest.mark.parametrize("base", [1, 2])
    def test_fixed_points(self, q0, base):
        mode = RationalMode(q0) if base == 1 else BaseLifted(RationalMode(q0), base)
        for n in range(5):
            for alpha in (1, 2):
                for x in (0, 2, -1, Fraction(1, 2), Fraction(-3, 2)):
                    self.assert_same(qeuler_poly, n, alpha, x, mode)
                self.assert_same(qeuler_numbers, n, alpha, mode)
                self.assert_same(qeuler_poly_additive, n, alpha, 3, mode)
        # a negative weight forms a negative power of q from x = 2 on
        for x in range(4):
            self.assert_same(q_int, x, -1, mode)

    @pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-2, 3), 4, -2])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_residue_split_matches_the_generic_ratio(self, q0, corrected):
        # the ratio (1 + q^step)/(1 + q^(step count)) from the int view, against Fractions
        for base in (1, 2):
            mode = RationalMode(q0) if base == 1 else BaseLifted(RationalMode(q0), base)
            for count, step, n in [(1, 1, 2), (3, 1, 3), (5, 2, 1), (3, 4, 2), (2, 3, 0)]:
                xs = [Fraction(i + 1, count) for i in range(count)]
                self.assert_same(qeuler.residue_split, mode, count * step, n, 1, xs, step, corrected)

    @pytest.mark.parametrize("base, count, step", [(1, 3, 1), (1, 1, 1), (1, 5, 3), (3, 3, 1)])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_residue_split_where_the_ratio_has_a_pole(self, base, count, step, corrected):
        # at q = -1, 1 + q^(step count) vanishes for odd base step count; with count = 1 the ratio is 0/0;
        # E_0 at an even base has no pole of its own
        mode = RationalMode(-1) if base == 1 else BaseLifted(RationalMode(-1), base)
        with pytest.raises(PoleError, match=rf"1 \+ q\^{step * count} vanishes"):
            qeuler.residue_split(mode, 2, 0, 1, [Fraction(0)] * count, step, corrected)

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
    """_ints builds the int view of q^e at a mode's base and precision."""

    @pytest.mark.parametrize("mode", [RationalMode(Fraction(-2, 3)), padic_mode(4, 3, 16)])
    def test_lifted_wrappers_view_q_at_their_base(self, mode):
        # q^e at base 3, through one wrapper or two, is the lifted mode's q^e, exactly or as its residue mod p^A
        lifted = BaseLifted(mode, 3)
        for view in (qeuler._ints(lifted), qeuler._ints(BaseLifted(lifted, 1))):
            if view.m is None:
                assert Fraction(*view.power(-2)) == lifted.q_power(-2)
            else:
                assert view.power(Fraction(2, 5)) == (lifted.q_power(Fraction(2, 5)).unit % view.m, 1)

    @pytest.mark.parametrize("q0", [0, 1, -1, 4, Fraction(-2, 3), Fraction(1, 2)])
    @settings(max_examples=40)
    @given(st.one_of(st.integers(-12, 12), st.fractions(-12, 12, max_denominator=12)),
           st.integers(1, 5), st.integers(1, 3))
    def test_rational_power_is_the_lifted_q_power(self, q0, e, base, f):
        # power(e, f) at base B is q^(e f B) as an int pair, as the lifted mode's q_power(e f) is, or both raise
        # the one error the exponent e f B calls for
        lifted = BaseLifted(RationalMode(q0), base)
        view = qeuler._ints(lifted)
        k = Fraction(e) * f * base
        if k.denominator == 1 and (k >= 0 or q0 != 0):
            a, b = view.power(e, f)
            assert (type(a), type(b)) == (int, int)
            assert Fraction(a, b) == lifted.q_power(e * f) == Fraction(q0) ** k.numerator
            return
        if k.denominator != 1:
            error = ExponentError(f"q^({k}) is not representable at a fixed rational q")
        else:
            error = PoleError("negative power of q = 0")
        for power in (view.power, lambda e, f: lifted.q_power(e * f)):
            with pytest.raises(type(error)) as got:
                power(e, f)
            assert str(got.value) == str(error)

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
        for view in (qeuler._ints(mode), qeuler._ints(mode, capped=False)):
            m = view.m
            for a, b in exps:
                e = Fraction(a, b) * base
                if e.denominator % p == 0:
                    with pytest.raises(ExponentError, match=f"is not a {p}-adic integer"):
                        view.power(Fraction(a, b))
                else:
                    assert view.power(Fraction(a, b)) == (pow(q.unit, e.numerator * pow(e.denominator, -1, m), m), 1)

    def test_a_view_works_mod_q_s_digits_capped_at_k(self):
        # q known to at most K digits: the capped and uncapped views work mod p^abs_prec(q)
        for q_prec in (12, 16):
            mode = PadicMode(PadicNum.from_rational(4, 3, q_prec), PadicConfig(3, 16))
            assert qeuler._ints(mode).m == qeuler._ints(mode, capped=False).m == 3**q_prec
        # known to more, the kernels that add the K-digit one work mod p^K and the others mod p^abs_prec(q)
        mode = PadicMode(PadicNum.from_rational(4, 3, 20), PadicConfig(3, 16))
        capped, uncapped = qeuler._ints(mode), qeuler._ints(mode, capped=False)
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
