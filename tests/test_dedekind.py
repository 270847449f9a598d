from fractions import Fraction

import pytest

from qde.catalog import check
from qde.dedekind import (
    DCParams,
    dc_sum,
    interp_series,
    interp_value,
    padic_dc_sum,
    q_dc_sum,
)
from qde.errors import ConvergenceError, ExponentError, PoleError, PreconditionError
from qde.padic import PadicConfig, PadicNum, agreement_valuation, teichmuller_inverse
from qde.qeuler import BaseLifted, PadicMode, RationalMode, SymbolicMode, q_int, qeuler_poly

SYM = SymbolicMode()
CFG3 = PadicConfig(3, 32)
Q3 = PadicNum.from_rational(Fraction(4), 3, 32)
PAD3 = PadicMode(Q3, CFG3)

# re-derivation noise can eat a few digits; observed losses stay at 1-3
PASS_SLACK = 4


class TestDCParams:
    def test_accepts_valid(self):
        DCParams(h=2, k=3, m=1, alpha=2, l=3, p=5)

    @pytest.mark.parametrize(
        "kw",
        [
            {"h": 0, "k": 3},
            {"h": 2, "k": 4},
            {"h": 1, "k": 2, "m": -1},
            {"h": 1, "k": 2, "alpha": 0},
            {"h": 1, "k": 2, "l": 0},
            {"h": 1, "k": 2, "p": 4},
            {"h": 1, "k": 2, "p": 2},
        ],
    )
    def test_rejects_invalid(self, kw):
        with pytest.raises(PreconditionError):
            DCParams(**kw)

    def test_interpolation_domain(self):
        DCParams(h=1, k=2, m=1, p=3).require_interpolation_domain()
        with pytest.raises(PreconditionError):
            DCParams(h=1, k=2, m=1).require_interpolation_domain()
        with pytest.raises(PreconditionError):
            DCParams(h=1, k=3, m=1, p=3).require_interpolation_domain()
        with pytest.raises(PreconditionError):
            DCParams(h=1, k=2, m=2, p=3).require_interpolation_domain()


class TestClassicalSum:
    def test_fixtures(self):
        assert dc_sum(1, 1, 2) == 0
        assert dc_sum(1, 1, 3) == Fraction(-1, 6)
        assert dc_sum(1, 2, 3) == Fraction(-1, 18)
        assert dc_sum(2, 1, 3) == Fraction(2, 27)

    def test_k_one_is_empty(self):
        assert dc_sum(4, 1, 1) == 0

    def test_coprimality_enforced(self):
        with pytest.raises(PreconditionError):
            dc_sum(1, 2, 4)


class TestQSum:
    def test_frozen_symbolic_fixture(self):
        v = q_dc_sum(1, 1, 3, 1, 3, SYM)
        assert v.to_json() == {
            "num": ["0", "-2", "-1", "0", "-1", "0", "1"],
            "den": ["1", "2", "3", "2", "1", "0", "1", "2", "3", "2", "1"],
        }

    def test_rational_fixture(self):
        assert q_dc_sum(1, 1, 3, 1, 3, RationalMode(2)) == Fraction(8, 637)

    def test_k_one_is_zero(self):
        assert q_dc_sum(2, 1, 1, 1, 1, SYM).is_zero

    @pytest.mark.parametrize("m,alpha,l", [(0, 1, 1), (2, 1, 1), (3, 2, 5)])
    def test_k_one_is_the_exact_zero_at_a_fixed_q(self, m, alpha, l):
        # an empty alternating sum over [1]
        v = q_dc_sum(m, 1, 1, alpha, l, RationalMode(Fraction(-2, 3)))
        assert type(v) is Fraction and v == 0
        for mode in (PAD3, PadicMode(PadicNum.from_rational(6, 5, 128), PadicConfig(5, 128))):
            v = q_dc_sum(m, 1, 1, alpha, l, mode)
            assert v.is_exact_zero and v == PadicNum.zero(mode.cfg.p)

    @pytest.mark.parametrize("m,k", [(1, 2), (1, 3), (2, 3), (3, 2), (1, 5), (2, 5)])
    def test_limit_at_one_matches_classical_at_h_one(self, m, k):
        lim = SYM.limit_at_one(q_dc_sum(m, 1, k, 1, k, SYM))
        assert lim == dc_sum(m, 1, k)

    def test_limit_at_one_differs_for_h_two(self):
        # the q -> 1 limit recovers the classical sum only at h = 1;
        # this point is the documented counterexample
        lim = SYM.limit_at_one(q_dc_sum(1, 2, 3, 1, 3, SYM))
        assert lim == Fraction(1, 6)
        assert dc_sum(1, 2, 3) == Fraction(-1, 18)

    def test_base_must_clear_denominators(self):
        with pytest.raises(ExponentError):
            q_dc_sum(1, 1, 3, 1, 1, SYM)
        # p-adic mode: the base q^1 leaves p = 3 in the exponent's denominator
        with pytest.raises(ExponentError, match=r"^exponent 1/3 is not a 3-adic integer$"):
            q_dc_sum(1, 1, 3, 1, 1, PAD3)


class TestInterpValue:
    def test_naive_rational_fixture(self):
        v = interp_value(1, 1, 2, "naive", RationalMode(4))
        assert v == Fraction(-63, 257)

    def test_residue_reduction(self):
        mode = RationalMode(4)
        a = interp_value(1, 1, 2, "naive", mode)
        b = interp_value(1, 5, 2, "naive", mode)
        assert a == b
        c = interp_value(1, 1, 2, "interpolated", mode, p=3)
        d = interp_value(1, 3, 2, "interpolated", mode, p=3)
        assert c == d

    def test_vanishing_residue_rejected(self):
        with pytest.raises(PreconditionError):
            interp_value(1, 4, 2, "naive", SYM)

    def test_unknown_variant_rejected(self):
        with pytest.raises(PreconditionError):
            interp_value(1, 1, 2, "reduced", SYM)

    def test_interpolated_needs_prime(self):
        with pytest.raises(PreconditionError):
            interp_value(1, 1, 2, "interpolated", SYM)
        with pytest.raises(PreconditionError):
            interp_value(1, 1, 2, "interpolated", SYM, p=4)

    def test_prime_must_be_invertible_mod_n(self):
        with pytest.raises(PreconditionError):
            interp_value(1, 1, 3, "interpolated", SYM, p=3)

    def test_normalizations_coincide_at_degree_one(self):
        a = interp_value(1, 1, 2, "interpolated", SYM, p=3)
        b = interp_value(1, 1, 2, "interpolated_printed", SYM, p=3)
        assert a == b

    def test_normalizations_differ_at_degree_three(self):
        a = interp_value(3, 1, 2, "interpolated", SYM, p=3)
        b = interp_value(3, 1, 2, "interpolated_printed", SYM, p=3)
        assert a != b

    def test_degree_zero_readings(self):
        # printed: 1 - 1 = 0; ratio reading keeps the bracket quotient
        printed = interp_value(0, 1, 2, "interpolated_printed", SYM, p=3)
        assert printed.is_zero
        ratio = interp_value(0, 1, 2, "interpolated", SYM, p=3)
        want = 1 - q_int(6, 1, SYM) / q_int(2, 1, SYM)
        assert ratio == want

    @staticmethod
    def degree_zero_ratio_reading(a, n_mod, alpha, p, mode):
        """interp_value(0, a, N, "interpolated") built by hand: first - [Np]/[N] * inner."""
        first = qeuler_poly(0, alpha, Fraction(a % n_mod, n_mod), BaseLifted(mode, n_mod))
        a_inv = pow(p, -1, n_mod) * a % n_mod
        inner = qeuler_poly(0, alpha, Fraction(a_inv, n_mod), BaseLifted(mode, n_mod * p))
        return q_int(n_mod, alpha, mode) ** 0 * first - q_int(n_mod * p, alpha, mode) / q_int(n_mod, alpha, mode) * inner

    @pytest.mark.parametrize("q0", [Fraction(1, 2), Fraction(-2, 3), 4, -2])
    def test_degree_zero_ratio_reading_at_a_rational_q(self, q0):
        mode = RationalMode(q0)
        for a, n_mod, alpha in [(1, 2, 1), (2, 5, 2), (4, 7, 1), (9, 4, 3)]:
            got = interp_value(0, a, n_mod, "interpolated", mode, alpha=alpha, p=3)
            assert type(got) is Fraction and got == self.degree_zero_ratio_reading(a, n_mod, alpha, 3, mode)

    def test_degree_zero_ratio_reading_where_the_bracket_vanishes(self):
        # [2] = 1 + q is 0 at q = -1: the ratio divides by zero, a pole
        with pytest.raises(PoleError, match=r"\[2\] vanishes"):
            interp_value(0, 1, 2, "interpolated", RationalMode(-1), p=3)

    @pytest.mark.parametrize("kdigits", [1, 2, 16, 128])
    @pytest.mark.parametrize("p", [3, 5])
    def test_degree_zero_ratio_reading_at_a_padic_q(self, kdigits, p):
        # the same digits and the same claimed precision, q known to K digits and to fewer
        for q_prec in {kdigits, max(1, kdigits - 1)}:
            mode = PadicMode(PadicNum.from_rational(1 + p, p, q_prec), PadicConfig(p, kdigits))
            for a, n_mod, alpha in [(1, 2, 1), (3, 4, 2), (3, 7, 1), (13, 8, 2)]:
                got = interp_value(0, a, n_mod, "interpolated", mode, alpha=alpha, p=p)
                want = self.degree_zero_ratio_reading(a, n_mod, alpha, p, mode)
                assert got.to_json() == want.to_json()


class TestInterpSeries:
    def test_terminating_matches_naive(self):
        # head carries w^-(s+1)(a); it drops out when (p-1) | (s+1)
        # or a is 1 mod p, which is where the closed form is recovered
        for s, a, n in [(1, 1, 3), (3, 1, 6), (1, 2, 3), (3, 2, 3), (1, 2, 6)]:
            ser = interp_series(s, a, n, s + 2, 1, Q3, CFG3)
            nai = interp_value(s, a, n, "naive", PAD3)
            assert agreement_valuation(ser, nai) >= CFG3.prec - PASS_SLACK

    def test_terminating_matches_naive_p_five(self):
        cfg = PadicConfig(5, 32)
        q = PadicNum.from_rational(Fraction(6), 5, 32)
        ser = interp_series(3, 2, 5, 5, 1, q, cfg)
        nai = interp_value(3, 2, 5, "naive", PadicMode(q, cfg))
        assert agreement_valuation(ser, nai) >= cfg.prec - PASS_SLACK

    def test_character_factor_outside_domain(self):
        # at a = 2, s + 1 odd the omitted character is exactly -1
        ser = interp_series(2, 2, 3, 4, 1, Q3, CFG3)
        nai = interp_value(2, 2, 3, "naive", PAD3)
        assert agreement_valuation(ser, -nai) >= CFG3.prec - PASS_SLACK

    def test_literal_argument_not_reduced(self):
        # a = 4 > N = 3: the series sees the unreduced closed form
        ser = interp_series(3, 4, 3, 6, 1, Q3, CFG3)
        un = q_int(3, 1, PAD3) ** 3 * qeuler_poly(3, 1, Fraction(4, 3), BaseLifted(PAD3, 3))
        assert agreement_valuation(ser, un) >= CFG3.prec - PASS_SLACK
        red = interp_value(3, 4, 3, "naive", PAD3)
        assert agreement_valuation(ser, red) < 5

    def test_exponent_zero_is_inverse_character(self):
        s0 = interp_series(0, 2, 3, 3, 1, Q3, CFG3)
        assert agreement_valuation(s0, teichmuller_inverse(2, CFG3)) >= CFG3.prec - PASS_SLACK

    def test_terminating_keeps_working_precision(self):
        ser = interp_series(2, 1, 3, 5, 1, Q3, CFG3)
        assert ser.abs_prec >= CFG3.prec - PASS_SLACK

    def test_genuine_series_caps_precision(self):
        half = interp_series(Fraction(1, 2), 1, 3, 8, 1, Q3, CFG3)
        assert not half.is_zero
        assert half.abs_prec < CFG3.prec

    def test_padic_exponent_tracks_integer(self):
        s2 = PadicNum.from_rational(Fraction(2), 3, 32)
        ser = interp_series(s2, 1, 3, 8, 1, Q3, CFG3)
        ref = interp_series(2, 1, 3, 8, 1, Q3, CFG3)
        assert agreement_valuation(ser, ref) >= ser.abs_prec - 1

    def test_truncation_below_exponent_is_a_series(self):
        v = interp_series(5, 1, 3, 2, 1, Q3, CFG3)
        assert v.abs_prec < CFG3.prec

    @pytest.mark.parametrize("p,a", [(3, 1), (3, 2), (5, 1), (5, 2), (5, 3), (5, 4)])
    def test_terminating_sums_converge_to_half(self, p, a):
        # s_n = (p^n + 1)/2 tends p-adically to 1/2 with v_p(s_n - 1/2) = n.
        # Each s_n <= J terminates, so its value has no truncation tail; the
        # value at 1/2 carries the tail bound interp_series adds.  Both must
        # agree to at least n + 1 digits, with N = p and q = 1 + p.  The
        # last n keeps s_n, and so the series length, small.
        last = {3: 5, 5: 3}[p]
        cfg = PadicConfig(p, 64)
        q = PadicNum.from_rational(Fraction(1 + p), p, 64)
        half = interp_series(Fraction(1, 2), a, p, 40, 1, q, cfg)
        for n in range(1, last + 1):
            s = (p**n + 1) // 2
            value = interp_series(s, a, p, max(s, 40), 1, q, cfg)
            assert agreement_valuation(value, half) >= n + 1, (n, s)

    def test_series_needs_p_dividing_n(self):
        with pytest.raises(ConvergenceError):
            interp_series(Fraction(1, 2), 1, 2, 4, 1, Q3, CFG3)
        with pytest.raises(ConvergenceError):
            interp_series(5, 1, 2, 2, 1, Q3, CFG3)

    def test_argument_must_be_unit(self):
        with pytest.raises(PreconditionError):
            interp_series(1, 3, 3, 3, 1, Q3, CFG3)

    def test_truncation_must_be_positive(self):
        with pytest.raises(PreconditionError):
            interp_series(1, 1, 3, 0, 1, Q3, CFG3)


class TestRecursion:
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("a", [1, 2])
    def test_corrected_exact(self, m, a):
        r = check("recursion", "corrected", {"m": m, "a": a, "N": 3, "p": 3, "alpha": 1}, SYM)
        assert r.status == "exact"
        assert r.params["index_count"] == 3

    @pytest.mark.parametrize("mode", [SYM, RationalMode(4), PAD3], ids=["symbolic", "rational", "padic"])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("a", [4, 5, 7, 8])
    def test_corrected_passes_for_residue_above_modulus(self, mode, m, a):
        # a >= N reduces to a mod N before shifting, like interp_value
        r = check("recursion", "corrected", {"m": m, "a": a, "N": 3, "p": 3, "alpha": 1}, mode)
        assert r.passed
        if mode is PAD3:
            assert r.status["padic_agreement"] >= CFG3.prec - PASS_SLACK
        else:
            assert r.status == "exact"

    def test_printed_fails(self):
        for a in (1, 4):
            r = check("recursion", "printed", {"m": 0, "a": a, "N": 3, "p": 3, "alpha": 1}, SYM)
            assert "fail" in r.status

    def test_prime_must_divide_modulus(self):
        with pytest.raises(PreconditionError):
            check("recursion", "corrected", {"m": 1, "a": 1, "N": 2, "p": 3, "alpha": 1}, SYM)

    def test_residue_must_be_unit(self):
        with pytest.raises(PreconditionError):
            check("recursion", "corrected", {"m": 1, "a": 3, "N": 3, "p": 3, "alpha": 1}, SYM)


class TestExpansion:
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("h", [1, 2])
    def test_exact(self, m, h):
        r = check("eq6", "printed", {"m": m, "h": h, "k": 3, "alpha": 1, "p": 3}, SYM)
        assert r.status == "exact"

    def test_exact_rational(self):
        r = check("eq6", "printed", {"m": 1, "h": 1, "k": 3, "alpha": 1, "p": 3}, RationalMode(4))
        assert r.status == "exact"

    def test_prime_must_divide_k(self):
        with pytest.raises(PreconditionError):
            check("eq6", "printed", {"m": 1, "h": 1, "k": 4, "alpha": 1, "p": 3}, SYM)

    def test_degree_congruence(self):
        with pytest.raises(PreconditionError):
            check("eq6", "printed", {"m": 2, "h": 1, "k": 3, "alpha": 1, "p": 3}, SYM)

    def test_all_terms_must_be_units(self):
        with pytest.raises(PreconditionError):
            check("eq6", "printed", {"m": 1, "h": 1, "k": 6, "alpha": 1, "p": 3}, SYM)

    @pytest.mark.parametrize("h,k,p", [(1, 6, 3), (5, 9, 3), (2, 15, 5), (7, 15, 3), (3, 10, 5)])
    def test_first_non_unit_term_is_at_p(self, h, k, p):
        # h is a unit mod p | k, so p | hM first at M = p, which k > p puts in range
        m = p - 2
        with pytest.raises(PreconditionError, match=rf"^p = {p} divides h\*M at M = {p}$"):
            check("eq6", "printed", {"m": m, "h": h, "k": k, "alpha": 1, "p": p}, RationalMode(2))
        assert check("eq6", "printed", {"m": m, "h": h % p or 1, "k": p, "alpha": 1, "p": p}, RationalMode(2)).status == "exact"


class TestSplitting:
    @pytest.mark.parametrize("power,x", [(0, 0), (1, 0), (2, 1), (1, Fraction(1, 2))])
    def test_integral_split_corrected_exact(self, power, x):
        scale = 3 * Fraction(x).denominator
        r = check("eq7", "corrected", {"n": power, "d": 3, "alpha": 1, "x": x}, SymbolicMode(scale))
        assert r.status == "exact"

    def test_integral_split_printed_fails(self):
        r = check("eq7", "printed", {"n": 1, "d": 3, "alpha": 1, "x": 0}, SymbolicMode(3))
        assert "fail" in r.status

    def test_integral_split_modulus_one(self):
        r = check("eq7", "printed", {"n": 2, "d": 1, "alpha": 1, "x": 0}, SYM)
        assert r.status == "exact"

    def test_integral_split_even_modulus(self):
        with pytest.raises(PreconditionError):
            check("eq7", "corrected", {"n": 1, "d": 2, "alpha": 1, "x": 0}, SYM)

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("a,n", [(1, 2), (2, 3), (5, 3)])
    def test_shifted_split_corrected_exact(self, m, a, n):
        r = check("eq8", "corrected", {"m": m, "a": a, "N": n, "p": 3, "alpha": 1}, SYM)
        assert r.status == "exact"

    def test_shifted_split_printed_fails(self):
        r = check("eq8", "printed", {"m": 1, "a": 1, "N": 2, "p": 3, "alpha": 1}, SYM)
        assert "fail" in r.status

    def test_shifted_split_rejects_even_p(self):
        with pytest.raises(PreconditionError):
            check("eq8", "corrected", {"m": 1, "a": 1, "N": 2, "p": 4, "alpha": 1}, SYM)


class TestInterpolatedSum:
    def test_rational_fixture(self):
        v = padic_dc_sum(1, 1, 2, 1, 3, RationalMode(4))
        assert v == Fraction(1392300, 16777217)

    def test_k_one_is_zero(self):
        assert padic_dc_sum(1, 1, 1, 1, 3, SYM).is_zero

    def test_domain_enforced(self):
        with pytest.raises(PreconditionError):
            padic_dc_sum(1, 1, 3, 1, 3, SYM)          # p | k
        with pytest.raises(PreconditionError):
            padic_dc_sum(2, 1, 2, 1, 3, SYM)          # m + 1 not 0 mod p-1


# acceptance points for the main relation, as (p, m, h, k)
MAIN_POINTS = [(3, 1, 1, 2), (3, 3, 1, 4), (5, 3, 2, 3)]


class TestMainRelation:
    @pytest.mark.parametrize("p,m,h,k", MAIN_POINTS)
    def test_exact_symbolic(self, p, m, h, k):
        r = check("theorem1", "corrected", {"m": m, "h": h, "k": k, "alpha": 1, "p": p}, SYM)
        assert r.status == "exact"

    @pytest.mark.parametrize("p,m,h,k", MAIN_POINTS)
    def test_exact_rational(self, p, m, h, k):
        point = {"m": m, "h": h, "k": k, "alpha": 1, "p": p}
        r = check("theorem1", "corrected", point, RationalMode(1 + p))
        assert r.status == "exact"

    def test_printed_normalization_coincides_at_degree_one(self):
        r = check("theorem1", "printed", {"m": 1, "h": 1, "k": 2, "alpha": 1, "p": 3}, SYM)
        assert r.status == "exact"

    def test_printed_normalization_fails_at_degree_three(self):
        r = check("theorem1", "printed", {"m": 3, "h": 1, "k": 4, "alpha": 1, "p": 3}, SYM)
        assert "fail" in r.status

    def test_padic_agreement(self):
        cfg = PadicConfig(3, 16)
        q = PadicNum.from_rational(Fraction(4), 3, 16)
        r = check("theorem1", "corrected", {"m": 1, "h": 1, "k": 2, "alpha": 1, "p": 3}, PadicMode(q, cfg))
        assert r.passed
        assert r.status["padic_agreement"] >= 16 - PASS_SLACK

    def test_k_one_short_circuits(self):
        r = check("theorem1", "corrected", {"m": 1, "h": 1, "k": 1, "alpha": 1, "p": 3}, SYM)
        assert r.status == "exact"
