from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qde import qeuler, ratfunc
from qde.catalog import CATALOG, check
from qde.errors import PoleError, PreconditionError, ResourceLimitError
from qde.exact import format_rational, parse_rational
from qde.qeuler import (
    BaseLifted,
    SymbolicMode,
    compare_values,
    measure,
    q_int,
    qeuler_numbers,
    qeuler_poly,
    qeuler_poly_additive,
)
from qde.ratfunc import (
    KRONECKER_MIN_LEN,
    MAX_DEGREE,
    Poly,
    RatFunc,
    _exact_quo,
    _heu_gcd,
    _mul_ints,
    _mul_kronecker,
    _mul_schoolbook,
    _primitive,
)

# small integer polynomials for properties
coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)
polys = coeff_lists.map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)

# lengths on both sides of the Kronecker threshold; mixed signs, small to
# very wide integers (past 8 bytes a digit), and Fractions
SPAN = 3 * KRONECKER_MIN_LEN
wide_ints = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(10**7), max_value=10**7),
    st.integers(min_value=-(10**30), max_value=10**30),
)
int_lists = st.lists(wide_ints, min_size=1, max_size=SPAN).filter(lambda a: a[-1] != 0)
wide_coeffs = st.one_of(wide_ints, st.fractions(max_denominator=10**6))
wide_polys = st.lists(wide_coeffs, max_size=SPAN).map(Poly)
wide_nonzero_polys = wide_polys.filter(lambda p: not p.is_zero)
# primitive integer polynomials of positive degree, leading coefficient > 0
primitive_lists = (
    st.lists(st.integers(min_value=-60, max_value=60), min_size=2, max_size=12)
    .filter(lambda a: a[-1] != 0)
    .map(_primitive)
)
wide_primitive_lists = (
    st.lists(wide_ints, min_size=1, max_size=10).filter(lambda a: a[-1] != 0).map(_primitive)
)


# factors of the kind symbolic checks meet: powers of q, 1 + q^k and
# 1 - q^k (products of cyclotomic polynomials), and small random ones
ratfunc_factors = st.one_of(
    st.integers(min_value=1, max_value=3).map(Poly.monomial),
    st.integers(min_value=1, max_value=6).map(lambda k: Poly.one() + Poly.monomial(k)),
    st.integers(min_value=1, max_value=6).map(lambda k: Poly.one() - Poly.monomial(k)),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4)
    .filter(lambda a: a[-1] != 0)
    .map(Poly),
)
rational_leads = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)


@st.composite
def ratfuncs(draw, nonzero=False):
    """A RatFunc built by the constructor from a product of factors.

    The constructor cancels only factors that need no gcd, so the value
    may be unreduced until its lowest terms are read.
    """
    num = Poly.const(draw(rational_leads if nonzero else st.one_of(rational_leads, st.just(0))))
    for f in draw(st.lists(ratfunc_factors, max_size=3)):
        num = num * f
    den = Poly.const(draw(rational_leads))
    for f in draw(st.lists(ratfunc_factors, max_size=3)):
        den = den * f
    return RatFunc(num, den)


def pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b over the integers (b nonempty)."""
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    while a and len(a) - 1 >= db:
        la = a.pop()
        a = [c * lb for c in a]
        shift = len(a) - db
        for i in range(db):
            a[shift + i] -= la * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def prs_gcd(a, b):
    """Reference gcd: primitive remainder sequence of primitive a, b."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = pseudo_rem(a, b)
        a, b = b, (_primitive(r) if r else r)
    return a


def convolve(a, b):
    """Reference product of two coefficient sequences."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def P(*cs):
    return Poly(cs)


class TestPoly:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (1, 2)
        assert P(0, 0).coeffs == ()

    def test_degree_conventions(self):
        assert Poly.zero().degree == -1
        assert Poly.one().degree == 0
        assert Poly.monomial(3).degree == 3

    def test_arithmetic_fixtures(self):
        a = P(1, 1)
        b = P(-1, 1)
        assert a * b == P(-1, 0, 1)
        assert a + b == P(0, 2)
        assert a - a == Poly.zero()
        assert (a * b)(2) == 3

    def test_pow(self):
        assert P(1, 1) ** 3 == P(1, 3, 3, 1)
        assert P(2) ** 0 == Poly.one()
        with pytest.raises(ValueError):
            P(1, 1) ** -1

    @given(int_lists, int_lists, st.lists(wide_ints, max_size=SPAN))
    def test_divmod_property(self, q, b, r):
        # the exact quotient of q*b is q; adding a nonzero r of lower
        # degree than b leaves no multiple of b
        a = _mul_ints(q, b)
        assert _exact_quo(a, b) == q
        r = r[:len(b) - 1]
        if any(r):
            assert _exact_quo([x + y for x, y in zip(a, r)] + a[len(r):], b) is None

    @settings(max_examples=100)
    @given(int_lists, st.integers(min_value=2, max_value=10**6), int_lists, st.booleans())
    def test_divmod_non_unit_leading(self, q, lead, b, exact):
        # b's leading coefficient is not +-1; exact multiples take the
        # Kronecker quotient or exact long-division steps, q*b + 1 neither
        b = b + [lead]
        a = _mul_ints(q, b)
        if not exact:
            a[0] += 1
        assert _exact_quo(a, b) == (q if exact else None)

    @pytest.mark.parametrize("a, b", [
        ([1, 0, 2], [1, 2]),          # 2q^2 + 1 by 2q + 1: the step -q / 2q is not integral
        ([3, 2], [1, 2]),             # 2q + 3 by 2q + 1: integral steps, remainder 2
        ([1], [1, 2]),                # lower degree than the divisor
        ([2] + [1] * 15, [1] * 7 + [2]),  # both past the Kronecker length
    ])
    def test_exact_quo_rejects_non_multiple(self, a, b):
        # b is primitive with a non-unit leading coefficient
        assert _exact_quo(a, b) is None
        assert _exact_quo(_mul_ints(a, b), b) == a

    def test_string_roundtrip(self):
        p = P(Fraction(-1, 2), 0, 1)
        assert p.to_strings() == ["-1/2", "0", "1"]
        assert Poly(map(parse_rational, p.to_strings())) == p

    @given(wide_polys)
    def test_strings_match_format_rational(self, p):
        # wide_polys mixes ints and Fractions; scaled by its denominator, p has none
        for q in (p, p.scale(p._den)):
            assert q.to_strings() == [format_rational(c) for c in q.coeffs]

    def test_render(self):
        assert P(Fraction(-1, 2), 1).render("x") == "-1/2+x"
        assert P(0, -1, 1).render("x") == "-x+x^2"
        assert Poly.zero().render() == "0"

    def test_divmod_quotient_wider_than_its_dividend(self):
        # q*b has coefficients of magnitude 1 while q reaches 301: the packed
        # quotient does not lift back, and long division must take over
        q = [min(i + 1, 601 - i) for i in range(601)]
        b = [0] * 7 + [-1, 1]                     # q^8 - q^7
        assert _exact_quo(_mul_ints(q, b), b) == q

    @settings(max_examples=100)
    @given(int_lists, int_lists)
    def test_kronecker_matches_double_loop(self, a, b):
        assert _mul_kronecker(a, b) == _mul_schoolbook(a, b)

    @given(wide_polys, wide_polys)
    def test_product_matches_reference(self, a, b):
        want = Poly(convolve(a.coeffs, b.coeffs)) if a.coeffs and b.coeffs else Poly.zero()
        assert a * b == want

    def test_degree_guard_on_mul(self):
        big = Poly.monomial(60_000)
        with pytest.raises(ResourceLimitError):
            big * big

    def test_degree_guard_on_monomial(self):
        with pytest.raises(ResourceLimitError):
            Poly.monomial(MAX_DEGREE + 1)


class TestPackedEquality:
    """RatFunc equality compares a d and c b as two packed products."""

    @given(wide_polys, wide_polys, wide_polys, wide_polys, st.booleans())
    def test_matches_the_product_comparison(self, x, y, z, t, perturb):
        # a b = c d = x y z t, or, perturbed, one coefficient off
        a, b, c, d = x * y, z * t, x * z, y * t
        if perturb:
            a = a + Poly([1])
        same = ratfunc._same_products(a, b, c, d)
        assert same == (a * b == c * d)
        assert same or perturb

    def test_a_coefficient_of_a_narrower_radix_is_not_a_carry(self):
        # 2^56 + q^2 and q + q^2 agree at q = 2^56, one byte narrower than the width 2^56 calls for
        one = Poly([1])
        assert not ratfunc._same_products(Poly([2**56, 0, 1]), one, Poly([0, 1, 1]), one)

    def test_packed_operands_are_compared_at_a_width_their_bound_fits(self):
        # (12 + 12 Q)^2 = 144 + 288 Q + 144 Q^2 reaches the bound min(2, 2) 12 12 = 288, and c = -112 - 111 Q + Q^2
        # reaches its h = 112 exactly; c (1 + Q) is another polynomial with the same value at Q = 2^8, one byte
        # narrower than the 2 bytes that 288 needs
        a = packed_part([12, 12], 1, 1, 12)
        c, d = packed_part([-112, -111, 1], 1, 1, 112), packed_part([1, 1], 1, 1, 1)

        def at_256(a):
            return sum(x << 8 * i for i, x in enumerate(a))

        assert at_256([144, 288, 144]) == at_256(_mul_schoolbook([-112, -111, 1], [1, 1]))
        assert not ratfunc._same_products(a, a, c, d) and not ratfunc._same_products(c, d, a, a)
        assert ratfunc._same_products(a, a, packed_part([144, 288, 144], 1, 2, 288), packed_part([1], 1, 1, 1))

    def test_a_packed_parts_norm_is_its_bound_times_its_length(self):
        # (100 + 100 Q + 100 Q^2)(1 + Q + Q^2) has the coefficient 300 = 3 h, past one byte, and agrees at Q = 2^8
        # with the list c, whose digits are its value's balanced ones
        c = [100, -56, 45, -55, 101]
        a, b = packed_part([100] * 3, 1, 1, 100), Poly([1, 1, 1])
        assert not ratfunc._same_products(a, b, Poly(c), Poly([1])) and Poly([100] * 3) * b != Poly(c)
        assert ratfunc._same_products(a, b, Poly([100, 200, 300, 200, 100]), Poly([1]))


def packed_part(a: list, g: int, w: int, h: int = None) -> Poly:
    """a, a list in Q^g, packed at stride g and w bytes a digit, h its digit bound (by default the width's largest)."""
    return ratfunc._Packed(ratfunc._pack(a, w), len(a), g, 8 * w, h)


def as_list(p: Poly) -> tuple:
    """(integer numerator in Q as a list, denominator) of p, a packed p's read from its int and not from p."""
    if type(p) is ratfunc._Packed:
        v, n, g, bits = p._packed
        a = ratfunc._stretch(ratfunc._unpack(v, n, bits // 8), g)
    else:
        a = list(p._num)
    while a and not a[-1]:
        a.pop()
    return a, p._den


def cross_equal(x: RatFunc, y: RatFunc) -> bool:
    """x == y by list cross-multiplication: a/b = c/d exactly when a d = c b."""
    (a, sa), (b, sb), (c, sc), (d, sd) = map(as_list, (x._n, x._d, y._n, y._d))
    ad = _mul_schoolbook(a, d) if a else []
    cb = _mul_schoolbook(c, b) if c else []
    return [t * sb * sc for t in ad] == [t * sa * sd for t in cb]


def respread(v: RatFunc, extra: int) -> RatFunc:
    """v's parts packed again in Q, extra bytes wider than v's: the same value at stride 1 and another width."""
    (a, _), (b, _) = as_list(v._n), as_list(v._d)
    w = v._n._packed[3] // 8 + extra
    return RatFunc._from_packed((ratfunc._pack(a, w), len(a)), (ratfunc._pack(b, w), len(b)), 1, 8 * w)


@st.composite
def kernel_pairs(draw):
    """(x, y) from the symbolic kernels at one scale 1-6 and base 1-3: equal by an identity, or drawn apart."""
    scale, base = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    mode = SymbolicMode(scale) if base == 1 else BaseLifted(SymbolicMode(scale), base)
    n, alpha, x = draw(st.integers(0, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    point = {"n": n, "alpha": alpha, "x": Fraction(x), "d": draw(st.sampled_from((1, 3, 5)))}
    top = max(n, 1)  # E_0 is the table's plain 1
    return draw(st.sampled_from((
        lambda: (qeuler_poly(n, alpha, x, mode), qeuler_poly_additive(n, alpha, x, mode)),
        lambda: (qeuler_poly(top, alpha, 0, mode), qeuler_numbers(top, alpha, mode)[top]),
        lambda: CATALOG["eq7"].sides("corrected", mode, **point),
        lambda: CATALOG["eq7"].sides("printed", mode, **point),
        lambda: (qeuler_poly(n, alpha, x, mode), qeuler_poly(n + 1, alpha, x, mode)),
    )))()


class TestPackedKernelEquality:
    """== on kernel values decided on their packed ints agrees with list cross-multiplication."""

    @settings(max_examples=150, deadline=None)
    @given(kernel_pairs(), st.sampled_from(("as built", "respread", "respread wider", "listed")), st.data())
    def test_matches_list_cross_multiplication(self, pair, form, data):
        x, y = pair
        if form == "listed":
            # a list operand: the comparison is mixed
            y = RatFunc._reduced(Poly(as_list(y._n)[0]), Poly(as_list(y._d)[0]), False)
        elif form != "as built":
            y = respread(y, 1 if form == "respread" else 3)
        same = cross_equal(x, y)
        assert (x == y) is same and (y == x) is same
        # a negative control: one coefficient of x's numerator off by one
        v, n, g, bits = x._n._packed
        i, sign = data.draw(st.integers(0, n - 1)), data.draw(st.sampled_from((1, -1)))
        assume(abs(ratfunc._unpack(v, n, bits // 8)[i] + sign) < 1 << bits - 1)
        off = RatFunc._from_packed((v + (sign << bits * i), n), x._d._packed[:2], g, bits)
        assert not cross_equal(off, y)
        assert off != y and y != off

    def test_the_pairs_differ_in_width_and_stride(self):
        # eq4's sides are packed 2 and 4 bytes wide, and a respread value is in Q where the value is in Q^2
        x, y = CATALOG["eq4"].sides("printed", SymbolicMode(), n=6, alpha=3, x=2)
        assert x._n._packed[3] != y._n._packed[3] and x == y
        v = qeuler_poly(2, 1, 0, SymbolicMode(2))
        assert v._n._packed[2] == 2 and respread(v, 0)._n._packed[2] == 1 and v == respread(v, 0)

    def test_a_packed_denominator_is_made_monic_by_its_sign(self):
        # -1 - Q over -Q^2 - Q^3 is (1 + Q)/(Q^2 + Q^3) = 1/Q^2
        v = RatFunc._from_packed((ratfunc._pack([-1, -1], 1), 2), (ratfunc._pack([0, 0, -1, -1], 1), 4), 1, 8)
        assert v._d._packed[0] > 0 and v._d._num == (0, 0, 1, 1)
        assert v == RatFunc.monomial(-2)

    def test_an_exact_symbolic_verdict_reads_no_list_back(self, monkeypatch):
        calls = []
        unpack = ratfunc._unpack
        monkeypatch.setattr(ratfunc, "_unpack", lambda v, n, w: calls.append(v) or unpack(v, n, w))
        points = [
            ("eq4", "printed", {"n": 4, "alpha": 2, "x": 2}),
            ("eq5", "corrected", {"n": 3, "alpha": 1, "d": 3, "x": Fraction(1, 2)}),
            ("eq7", "corrected", {"n": 2, "alpha": 2, "d": 5, "x": Fraction(0)}),
        ]
        for identity, variant, point in points:
            assert check(identity, variant, point, SymbolicMode(CATALOG[identity].scale(**point))).status == "exact"
        assert calls == []

    def test_a_failing_verdict_reads_each_part_back_once(self, monkeypatch):
        point = {"n": 2, "alpha": 2, "d": 3, "x": Fraction(0)}
        mode = SymbolicMode(CATALOG["eq7"].scale(**point))
        lhs, rhs = CATALOG["eq7"].sides("printed", mode, **point)
        parts = sorted(p._packed[0] for v in (lhs, rhs) for p in (v._n, v._d))
        calls = []
        unpack = ratfunc._unpack
        monkeypatch.setattr(ratfunc, "_unpack", lambda v, n, w: calls.append(v) or unpack(v, n, w))
        status = compare_values(mode, lhs, rhs)
        # the witness, in lowest terms, is what reads the parts back
        assert set(status["fail"]["lhs"]) == {"num", "den"}
        assert sorted(v for v in calls if v in parts) == parts


FORMS = ("list", "packed", "packed wide", "packed in Q")


def part(a: list, g: int, form: str, h: int = None) -> Poly:
    """a, a list in Q^g, as a list in Q or packed: at stride g one byte or two wide, or at stride 1."""
    if form == "list":
        return Poly(ratfunc._stretch(a, g))
    if form == "packed in Q":
        return packed_part(ratfunc._stretch(a, g), 1, 1, h)
    return packed_part(a, g, 1 if form == "packed" else 2, h)


@st.composite
def sum_operands(draw):
    """(x, y, lists): x = a/b and y = c/d with parts in any form, and a, b, c, d as lists in Q.

    Digits run to 127, the most one byte holds, so that two packed sums of
    them use up its headroom; half the time the digit bound h is the part's
    exact maximum, else the largest the width holds.
    """
    g = draw(st.sampled_from((1, 2, 3)))
    digits = st.integers(-127, 127)
    num = st.lists(digits, max_size=6)
    den = st.lists(digits, max_size=4).map(lambda a: a + [1])
    a, b, c = draw(num), draw(den), draw(num)
    d = b if draw(st.booleans()) else draw(den)
    forms = [draw(st.sampled_from(FORMS)) for _ in range(4)]
    exact = draw(st.booleans())
    pa, pb, pc, pd = (part(v, g, f, max(map(abs, v), default=0) or 1 if exact else None)
                      for v, f in zip((a, b, c, d), forms))
    if d is b and forms[1] == forms[3] and draw(st.booleans()):
        pd = pb  # one object
    x, y = RatFunc._reduced(pa, pb, False), RatFunc._reduced(pc, pd, False)
    return x, y, [ratfunc._stretch(v, g) for v in (a, b, c, d)]


class TestEqualDenominatorSums:
    """A sum over one denominator adds the numerators and keeps it; values in every form agree with the lists."""

    @settings(max_examples=300, deadline=None)
    @given(sum_operands())
    def test_sums_and_equality_match_the_list_path(self, operands):
        x, y, (a, b, c, d) = operands
        ad, cb = (_mul_schoolbook(u, v) for u, v in ((a, d), (c, b)))
        want = RatFunc(Poly(ad) + Poly(cb), Poly(_mul_schoolbook(b, d)))
        got = x + y
        assert got.num == want.num and got.den == want.den
        assert got == want and want == got
        same = Poly(ad) == Poly(cb)
        assert (x == y) is same and (y == x) is same
        assert (x - y == RatFunc.zero()) is same

    @pytest.mark.parametrize("den_form", ["list", "packed", "one object"])
    def test_an_equal_denominator_is_kept_and_nothing_is_cancelled(self, monkeypatch, den_form):
        monkeypatch.setattr(ratfunc, "_cancel", lambda *a: pytest.fail("a gcd was looked for"))
        b, d = (part([1, 0, 1], 1, "list" if den_form == "list" else "packed") for _ in range(2))
        if den_form == "one object":
            d = b
        x, y = RatFunc._reduced(part([0, 1], 1, "packed"), b), RatFunc._reduced(part([1], 1, "packed"), d)
        total = x + y
        assert total._d is b and not total._red
        assert total._n == part([1, 1], 1, "list")

    @pytest.mark.parametrize("b, d", [
        (packed_part([1, 1], 2, 1), packed_part([1, 1], 1, 1)),  # 1 + Q^2 and 1 + Q: one int, 257, at two strides
        (packed_part([1, 0, 1], 1, 1), packed_part([1, 1], 1, 2)),  # 1 + Q^2 and 1 + Q: 65537 at two widths
    ])
    def test_one_int_at_another_stride_or_width_is_another_denominator(self, b, d):
        assert b._packed[0] == d._packed[0] and b != d
        x, y = RatFunc._reduced(Poly([1]), b), RatFunc._reduced(Poly([1]), d)
        total = x + y
        assert total == RatFunc(Poly([2, 1, 1]), Poly([1, 1, 1, 1]))
        assert total != RatFunc._reduced(Poly([2]), b)

    def test_a_sum_past_the_headroom_is_moved_wider(self, monkeypatch):
        monkeypatch.setattr(ratfunc, "_unpack", lambda *a: pytest.fail("a list was read back"))
        den = part([1, 1], 2, "packed", 1)
        x = RatFunc._reduced(part([127, -127, 100], 2, "packed", 127), den, False)
        y = RatFunc._reduced(part([100, -127, 127], 2, "packed", 127), den, False)
        total = x + y
        assert total._n._packed[1:] + (total._n._h,) == (3, 2, 16, 254)
        assert total == RatFunc._reduced(part([227, -254, 227], 2, "packed wide"), part([1, 1], 2, "list"), False)
        # within the headroom the sum stays one byte wide
        half = RatFunc._reduced(part([63, -1], 2, "packed", 63), den, False)
        assert (half + half)._n._packed[3] == 8

    def test_a_packed_part_answers_without_its_list(self, monkeypatch):
        monkeypatch.setattr(ratfunc, "_unpack", lambda *a: pytest.fail("a list was read back"))
        p, zero = part([3, -2, 1], 2, "packed", 3), part([], 2, "packed")
        assert zero.is_zero and not p.is_zero
        assert -p == part([-3, 2, -1], 2, "packed", 3) and -p != p
        assert p == part([3, -2, 1], 2, "packed") and p != part([3, -2, 2], 2, "packed")
        # another width or stride compares the values at one width and stride
        assert p == part([3, -2, 1], 2, "packed wide") and p == part([3, -2, 1], 2, "packed in Q")
        assert (-p)._h == 3


class TestPolyGcd:
    def test_fixture(self):
        a = [-1, 0, 1]            # q^2 - 1
        b = [1, -2, 1]            # (q-1)^2
        assert _heu_gcd(a, b) == ([-1, 1], [1, 1], [-1, 1])

    def test_coprime(self):
        assert _heu_gcd([1, 1], [2, 1]) == ([1], [1, 1], [2, 1])

    @given(primitive_lists, primitive_lists)
    def test_gcd_divides_both(self, a, b):
        g, ag, bg = _heu_gcd(a, b)
        assert _primitive(g) == g and g[-1] > 0
        assert _exact_quo(a, g) == ag
        assert _exact_quo(b, g) == bg

    @settings(max_examples=100)
    @given(primitive_lists, primitive_lists, primitive_lists)
    def test_heuristic_matches_prs(self, a, b, c):
        x, y = _mul_schoolbook(a, c), _mul_schoolbook(b, c)
        want = prs_gcd(x, y)
        assert _heu_gcd(x, y)[0] == want

    @settings(max_examples=100, deadline=None)
    @given(wide_primitive_lists, wide_primitive_lists, wide_primitive_lists)
    def test_cofactors_over_wide_coefficients(self, a, b, c):
        # past 8 bytes a coefficient, with a common factor of any width
        x, y = _mul_schoolbook(a, c), _mul_schoolbook(b, c)
        g, xg, yg = _heu_gcd(x, y)
        assert _mul_schoolbook(g, xg) == x
        assert _mul_schoolbook(g, yg) == y
        assert g == prs_gcd(x, y)

    @pytest.mark.parametrize("common", [
        [0, 2, 3, 1],         # x(x+1)(x+2): every value a multiple of 6
        [0, 6, 11, 6, 1],     # x(x+1)(x+2)(x+3): every value a multiple of 24
        [2, 3],               # 3x + 2, not monic
        [-2, 0, 0, 5],        # 5x^3 - 2
    ])
    def test_heuristic_on_fixed_divisors_and_non_monic_factors(self, common):
        cofactors = ([5, 1], [-1, 2], [7, 2, 0, 1], [1, -1, 5], [0, 0, 1])
        for u in cofactors:
            for v in cofactors:
                x, y = _mul_schoolbook(common, u), _mul_schoolbook(common, v)
                want = prs_gcd(x, y)
                assert _heu_gcd(x, y)[0] == want

    @pytest.mark.parametrize("swap", [False, True])
    def test_very_unequal_widths(self, swap):
        # one input has coefficients in {-1, 0, 1}, the other shares
        # cyclotomic factors with it and has coefficients past 2^64, so
        # both are evaluated at the wider one's width
        x = [1]
        for k in (1, 2, 4):
            x = _mul_schoolbook(x, [1] + [0] * (k - 1) + [1])       # 1 + q^k
        x = _mul_schoolbook(x, [1] + [0] * 7 + [-1])                # 1 - q^8
        assert set(x) == {-1, 1}
        wide = [3**50, -(5**40), 2**70 + 1, 7**30]
        y = _mul_schoolbook(_mul_schoolbook([1, 0, 1], [1, 1]), wide)  # (1 + q^2)(1 + q)
        assert max(map(abs, y)) > 2**64
        a, b = (y, x) if swap else (x, y)
        g, ag, bg = _heu_gcd(a, b)
        assert g == prs_gcd(a, b) == [1, 1, 1, 1]
        assert _mul_schoolbook(g, ag) == a
        assert _mul_schoolbook(g, bg) == b

    @pytest.mark.parametrize("a, b", [
        ([-2, -1, 3], [3, 0, 2]),           # first candidate x - 81
        ([2, 1, 3, 1], [-2, 2, 2, 3]),      # first candidate x + 61
    ])
    def test_heuristic_rejects_unlucky_evaluation_point(self, a, b):
        # coprime, but the integer gcd of the values at 2^8 reads back as a
        # linear candidate; division must reject it before a wider point
        assert _heu_gcd(a, b) == ([1], a, b)
        assert prs_gcd(a, b) == [1]


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(P(-1, 0, 1), P(-1, 1))  # (q^2-1)/(q-1)
        assert f == RatFunc.from_poly(P(1, 1))
        # a non-monic common factor
        common = P(2, 3)
        a = common * P(0, 6, 11, 6, 1)
        b = common * P(-1, 0, 1)
        assert _heu_gcd(list(a._num), list(b._num))[0] == [2, 5, 3]   # (3q + 2)(q + 1)
        f = RatFunc(a, b)
        assert f == RatFunc(P(0, 6, 5, 1), P(-1, 1))
        assert f.to_json() == RatFunc(P(0, 6, 5, 1), P(-1, 1)).to_json()
        assert (f.num, f.den) == (P(0, 6, 5, 1), P(-1, 1))
        # the same quotient under a further common factor with rational coefficients
        c = P(Fraction(-1, 7), 0, 5, Fraction(2, 3))
        assert RatFunc(a * c, b * c) == f
        assert RatFunc(a * c, b * c).to_json() == f.to_json()

    def test_monic_denominator(self):
        f = RatFunc(P(1), P(-2, 2))
        assert f.den == P(-1, 1)
        assert f.num == P(Fraction(1, 2))

    def test_zero_normalizes(self):
        f = RatFunc(Poly.zero(), P(3, 1))
        assert f.is_zero and f.den == Poly.one()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(P(1), Poly.zero())

    def test_field_identities(self):
        f = RatFunc(P(0, 1), P(1, 0, 1))   # q/(1+q^2)
        g = RatFunc(P(1, 1), P(-1, 1))
        assert f + g - g == f
        assert f * g / g == f
        assert f - f == RatFunc.zero()
        assert (f / f) == RatFunc.one()

    def test_scalar_coercion(self):
        f = RatFunc(P(0, 1))
        assert 1 + f == RatFunc(P(1, 1))
        assert 2 * f == RatFunc(P(0, 2))
        assert f - Fraction(1, 2) == RatFunc(P(Fraction(-1, 2), 1))
        assert 1 / f == RatFunc(P(1), P(0, 1))

    def test_reflected_division(self):
        f = RatFunc(P(0, 2), P(1, 1))
        assert 1 / f == RatFunc(P(1, 1), P(0, 2))
        assert Fraction(1, 2) / f == RatFunc(P(1, 1), P(0, 4))
        assert 3 / RatFunc.monomial(1) == RatFunc(P(3), P(0, 1))
        # a float stays out of exact arithmetic, as for every other operator
        for op in (lambda: 1.5 / RatFunc.monomial(1), lambda: 1.5 / f, lambda: 1.5 * f, lambda: f - 1.5):
            with pytest.raises(TypeError):
                op()

    def test_division_by_zero_function(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.one() / RatFunc.zero()

    def test_pow(self):
        f = RatFunc(P(0, 1), P(1, 1))
        assert f ** 2 == RatFunc(P(0, 0, 1), P(1, 2, 1))
        assert f ** 0 == RatFunc.one()
        assert f ** -1 == RatFunc(P(1, 1), P(0, 1))
        with pytest.raises(ZeroDivisionError):
            RatFunc.zero() ** -1

    def test_eval(self):
        f = RatFunc(P(1, 1), P(-2, 1))
        assert f.eval_at(3) == 4
        with pytest.raises(PoleError):
            f.eval_at(2)

    def test_eval_uses_reduced_form(self):
        # the removable singularity at q=1 disappears on construction
        f = RatFunc(P(-1, 0, 1), P(-1, 1))
        assert f.eval_at(1) == 2

    def test_add_polynomial_is_reduced_without_gcd(self, monkeypatch):
        # a/b + c, a scalar multiple, and a product or quotient by q^k are
        # reduced by construction: they must run no gcd and still equal
        # the fully reduced result
        calls = []
        heu = ratfunc._heu_gcd
        monkeypatch.setattr(ratfunc, "_heu_gcd", lambda a, b: calls.append((a, b)) or heu(a, b))
        f = RatFunc(P(Fraction(1, 2), 1), P(3, 0, 2))
        q3 = RatFunc.from_poly(Poly.monomial(3))
        cases = [
            (lambda: 2 * f, RatFunc(f.num.scale(2), f.den)),
            (lambda: f * q3, RatFunc(f.num * Poly.monomial(3), f.den)),
            (lambda: f / q3, RatFunc(f.num, f.den * Poly.monomial(3))),
            (lambda: f / 3, RatFunc(f.num, f.den.scale(3))),
        ]
        for c in (P(0), P(1), P(-1, Fraction(2, 3)), P(0, 0, 0, 5)):
            g = RatFunc.from_poly(c)
            want = RatFunc(f.num + c * f.den, f.den)
            cases += [(lambda g=g: f + g, want), (lambda g=g: g + f, want)]
        for op, want in cases:
            calls.clear()
            got = op()
            assert calls == []
            assert got == want
            assert got.to_json() == want.to_json()
        for c in (P(0), P(1), P(-1, Fraction(2, 3)), P(0, 0, 0, 5)):
            g = RatFunc.from_poly(c)
            assert f + g - f == g
        assert RatFunc.from_poly(P(1, 2)) + RatFunc.from_poly(P(-1, -2)) == RatFunc.zero()

    @settings(max_examples=200, deadline=None)
    @given(ratfuncs(), ratfuncs(nonzero=True), rational_leads, st.integers(min_value=1, max_value=3))
    def test_arithmetic_matches_constructor_reduction(self, f, g, c, e):
        # cross-cancelled results against the defining fraction reduced as
        # a whole, with the reduced form checked by the reference PRS gcd;
        # the results are formed first, while f and g may be unreduced
        gots = [f + g, f - g, f * g, f / g, c * f, f * c, 0 * f, f * 0, g ** -e]
        wants = [
            RatFunc(f.num * g.den + g.num * f.den, f.den * g.den),
            RatFunc(f.num * g.den - g.num * f.den, f.den * g.den),
            RatFunc(f.num * g.num, f.den * g.den),
            RatFunc(f.num * g.den, f.den * g.num),
            RatFunc(f.num.scale(c), f.den),
            RatFunc(f.num.scale(c), f.den),
            RatFunc.zero(),
            RatFunc.zero(),
            RatFunc(g.den**e, g.num**e),
        ]
        for got, want in zip(gots, wants):
            assert got == want
            assert got.to_json() == want.to_json()
            assert got.den.coeffs[-1] == 1
            if got.is_zero:
                assert got.den == Poly.one()
            else:
                assert prs_gcd(_primitive(list(got.num._num)), _primitive(list(got.den._num))) == [1]

    @settings(max_examples=200, deadline=None)
    @given(ratfuncs(), st.lists(ratfunc_factors, min_size=1, max_size=2))
    def test_unreduced_value_behaves_like_its_reduced_twin(self, f, factors):
        # f times c/c keeps c on both sides until its lowest terms are read;
        # each use starts from a fresh copy, since reading reduces in place
        c = Poly.one()
        for factor in factors:
            c = c * factor
        twin = f._lowest()

        def lazy():
            return RatFunc(twin.num * c, twin.den * c)

        assume(not lazy()._red)
        assert lazy() == twin and twin == lazy() and lazy() == lazy()
        assert lazy() != twin + 1 and lazy() - twin == 0
        assert hash(lazy()) == hash(twin)
        assert lazy().render() == twin.render()
        assert lazy().to_json() == twin.to_json()
        for q0 in (-2, -1, 0, Fraction(1, 2), 1, 3):
            if twin.den(q0):
                assert lazy().eval_at(q0) == twin.eval_at(q0)
            else:
                with pytest.raises(PoleError):
                    lazy().eval_at(q0)

    def test_unreduced_sum_is_reduced_when_read(self):
        # the denominators share 1 + q^2, which no gcd-free rule finds
        f = RatFunc(P(1), P(1, 0, 1) * P(1, 1, 1))
        g = RatFunc(P(1), P(1, 0, 1) * P(1, -1, 1))
        s = f + g
        assert not s._red and s._d.degree == 8
        assert s == RatFunc(P(2), P(1, 0, 1, 0, 1))
        assert s.to_json() == {"num": ["2"], "den": ["1", "0", "1", "0", "1"]}
        assert s._red and s._d.degree == 4

    def test_gcd_in_a_power_of_q_runs_on_the_shorter_lists(self, monkeypatch):
        # (1+Q^9)/(1+Q^6+Q^12) is reduced by one GCDHEU of 1+Q^3 and 1+Q^2+Q^4
        calls = []
        heu = ratfunc._heu_gcd
        monkeypatch.setattr(ratfunc, "_heu_gcd", lambda a, b: calls.append((list(a), list(b))) or heu(a, b))
        f = RatFunc(P(1, 0, 0, 0, 0, 0, 0, 0, 0, 1), P(1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1))
        assert f.to_json() == {"num": ["1", "0", "0", "1"], "den": ["1", "0", "0", "1", "0", "0", "1"]}
        assert calls == [([1, 0, 0, 1], [1, 0, 1, 0, 1])]

    def test_degree_guard_reduces_and_retries(self, monkeypatch):
        # unreduced degrees are higher: where an unreduced sum, product,
        # power or cross-product would pass the limit, the operands are
        # reduced and the operation is redone with every gcd taken
        monkeypatch.setattr(ratfunc, "MAX_DEGREE", 6)
        f = RatFunc(P(1), P(1, 0, 1) * P(1, 1, 1))      # 1/((1+q^2)(1+q+q^2))
        g = RatFunc(P(1), P(1, 0, 1) * P(1, -1, 1))     # 1/((1+q^2)(1-q+q^2))
        assert f + g == RatFunc(P(2), P(1, 0, 1, 0, 1))
        assert (f + g).to_json() == {"num": ["2"], "den": ["1", "0", "1", "0", "1"]}
        assert f + g == g + f

        def x():
            return RatFunc(P(1, 1) * P(1, 0, 1), P(1, 1, 1) * P(1, 0, 1))    # (1+q)/(1+q+q^2)

        def y():
            return RatFunc(P(1, 1) * P(1, -1, 1), P(1, 1, 1) * P(1, -1, 1))  # the same

        square = RatFunc(P(1, 2, 1), P(1, 2, 3, 2, 1))
        assert not x()._red and not y()._red
        assert x() == y()
        assert x() * y() == square
        assert x() ** 2 == square
        assert x() / (1 / y()) == square
        # a reduced result past the limit still raises
        with pytest.raises(ResourceLimitError, match="polynomial degree 8 exceeds limit 6"):
            f * g

    def test_constant_hashes_like_its_value(self):
        assert {1, RatFunc.one()} == {1}
        assert hash(RatFunc.zero()) == hash(0)
        assert hash(RatFunc.const(Fraction(-2, 3))) == hash(Fraction(-2, 3))
        assert {Fraction(5, 7): "x"}[RatFunc.const(Fraction(5, 7))] == "x"
        assert RatFunc(P(1), P(1, 1)) in {RatFunc(P(2), P(2, 2))}

    def test_json_roundtrip(self):
        f = RatFunc(P(Fraction(1, 2), 1), P(1, 0, 1))
        j = f.to_json()
        assert j == {"num": ["1/2", "1"], "den": ["1", "0", "1"]}
        assert RatFunc(Poly(map(parse_rational, j["num"])), Poly(map(parse_rational, j["den"]))) == f

    def test_render(self):
        f = RatFunc(P(0, -1), P(1, 0, 1))
        assert f.render() == "(-q)/(1+q^2)"
        assert RatFunc.from_poly(P(1, 1)).render() == "1+q"


class TestVerdictsRunNoGcd:
    """Symbolic verdicts decide equality without bringing values to lowest terms."""

    @pytest.fixture
    def gcd_calls(self, monkeypatch):
        # each GCDHEU call, tagged with whether a fail witness was being serialized
        calls, serializing = [], []
        heu, serialize = ratfunc._heu_gcd, qeuler.serialize_value
        monkeypatch.setattr(ratfunc, "_heu_gcd", lambda a, b: calls.append(bool(serializing)) or heu(a, b))

        def tagged(v):
            serializing.append(1)
            try:
                return serialize(v)
            finally:
                serializing.pop()

        monkeypatch.setattr(qeuler, "serialize_value", tagged)
        return calls

    def test_passing_theorem1(self, gcd_calls):
        point = {"m": 3, "h": 2, "k": 5, "alpha": 1, "p": 3}
        assert check("theorem1", "corrected", point, SymbolicMode()).status == "exact"
        assert gcd_calls == []

    def test_measure_mass(self, gcd_calls):
        sym = SymbolicMode()
        total = RatFunc.zero()
        for a in range(9):
            total = total + measure(a, 2, sym, 3).value
        assert total == 1
        assert gcd_calls == []

    def test_failing_eq5_reduces_only_its_witness(self, gcd_calls):
        point = {"n": 3, "alpha": 2, "d": 5, "x": Fraction(0)}
        report = check("eq5", "printed", point, SymbolicMode(5))
        assert "fail" in report.status
        assert gcd_calls and all(gcd_calls)


class TestQBracket:
    # the symbolic q-integer is the reduced geometric sum
    SYM = SymbolicMode()

    def test_fixtures(self):
        assert q_int(0, 1, self.SYM) == RatFunc.zero()
        assert q_int(1, 1, self.SYM) == RatFunc.one()
        assert q_int(3, 1, self.SYM) == RatFunc.from_poly(P(1, 1, 1))
        assert q_int(2, 3, self.SYM) == RatFunc.from_poly(P(1, 0, 0, 1))

    def test_matches_defining_ratio(self):
        for x in range(1, 6):
            for e in (1, 2, 3):
                num = RatFunc(Poly.one() - Poly.monomial(e * x))
                den = RatFunc(Poly.one() - Poly.monomial(e))
                assert q_int(x, e, self.SYM) == num / den

    def test_rejects_bad_arguments(self):
        with pytest.raises(PreconditionError):
            q_int(-1, 1, self.SYM)
