"""The alternating measure, its q-Euler numbers and polynomials, and the
classical Euler polynomials they deform.

Everything here is generic over a coefficient mode.  A mode decides
what a power of q is:

- RationalMode(q0): powers are exact Fractions at a fixed rational q0.
- SymbolicMode(scale): powers are RatFunc monomials in a variable Q
  with q = Q^scale, so an exponent e is representable iff scale*e is an
  integer.  Raising the scale is how fractional arguments like x = 1/3
  stay exact.
- PadicMode(q, cfg): powers are PadicNum values; a fractional exponent
  a/b is a root of order b, lifted by Newton steps, to the power a
  (padic.q_pow), and needs v_p(1 - q) >= 1.

BaseLifted(mode, l) views any mode at base q^l by multiplying every
exponent by l; the sum and integral formulas below never mention l
themselves.

The q-Euler numbers E_j come in two forms.  qeuler_poly(j, alpha, 0)
is the closed form, the paper's definition; it divides by
(1 - q^alpha)^j and so loses j v_p(1 - q^alpha) p-adic digits.
qeuler_numbers builds the whole list E_0..E_J from the fermionic
recurrence, whose divisors are p-adic units, and keeps every digit.
Callers that need many E_j (the additive form, interp_series) take one
such table per call.

At a fixed q, rational or p-adic, the four kernels are each one formula
on ints over one denominator (_closed_form_at, _numbers_at, _geometric),
with q^e an int pair (a, b), q^e = a/b, from _ints, which reads an
exponent e times an int factor f as e's numerator times f over its
denominator (RationalMode._exponent): a Fraction is formed only where a
literal is parsed and where a value is finished.  Every value has one
finish (_Ints.finish), a sum of terms t_i / d_i over (1 - q^alpha)^n
times a ratio; a q-integer, a table entry or an additive value is one
term with no ratio.  At q = u/v the pair is exact and the value one
Fraction, reduced once.  At a p-adic q it is (q^e mod p^A, 1) and the
value one PadicNum, from at most one modular inverse.  Its divisors
1 + q^k are 2 mod p, units for odd p, so ints mod p^A are exact (the
fixed-modulus model; Caruso, arXiv:1701.06794).  A is the least absolute
precision of the inputs, and the capped-relative path knows each of
these sums to exactly A digits too, so the result is the same PadicNum
digit for digit and in its claimed precision.  The one non-unit divisor,
(1 - q^alpha)^n = p^(n v) d^n, takes the valuation and the precision that
path gives it.

A mode holds only its parameters, so a reused mode answers as a fresh
one.  Each kernel call builds the int view it needs (_ints) at its
lifted base and A, and q^(a/b) = r_b^a, with a small exponent, from the
root r_b = q^(1/b) formed for that power: the 1-unit root of r^b = q
mod p^A, lifted from r = 1 by Newton steps (padic._root).  It is
unique, so it is the residue q^(b^-1 mod p^A) that one full-width power
gives.  The recurrence takes one modular inverse per table
(_inverses).  In symbolic mode qeuler_poly's binomial products
(_closed_form_ints), the quotients P / (1 + q^(alpha l + 1)) and
P (1 - q^alpha)^n, are formed once per call, after the degree guard.

The paper states its distribution and interpolation relations for
scaled values S(n, y, d) = [d]^n E_n(y/d; q^d), [d] the weight-alpha
q-integer.  S is the closed form at base q^d with (1 - q^alpha)^n in
its denominator and needs no product; scaled_qeuler states the identity
that allows this, and which errors and digits it keeps.  The residue
splits of eq5/eq7/eq8/recursion (residue_split) add scaled values
[B]^n E_n(x_i; q^B) that all have one denominator, P (1 - q^alpha)^n
with P = prod_l (1 + q^((alpha l + 1) B)), since it depends on n,
alpha and B alone.  So their numerators are summed over it and
the sum is finished once per mode: one Fraction, one PadicNum from one
modular inverse at a p-adic q, one RatFunc in symbolic mode.  In every
mode S is the split's one-term case, with no weight and no ratio
(_closed_form_ints, _split_at), and qeuler_poly is S at base 1: the
split's outer view of q gives the q^alpha the value divides by, which
at base 1 is the terms' own.  In symbolic mode what no x_i enters (the
exponents of q^(alpha l + 1), q^alpha and the outer q^alpha, the
binomial products, the gcd, the guard's sums, the factor 1 + q) is
formed once per split, and (1 - q^alpha)^n takes the outer q^alpha.

The Dedekind-type sums (weighted_euler_sum, weighted_scaled_sum) are
summed over one known denominator and finished once the same way; in
symbolic mode their weights [M] are binomials over 1 - q^alpha and no
gcd is taken.  At a fixed q the split's terms and the sums' come from
one term loop (_terms): the closed form at each x_i, the first one
checked, times an int-pair weight (q^(step i), [M], [M] [p]^(m-1)) and
the alternating sign, a vanishing denominator the one "pole in q-Euler
polynomial".  dedekind.interp_series's binomial series
(binomial_series) reads C(s, j) off one int recurrence and E_j off
_numbers_at's residues, each term a (valuation, unit, precision)
product.  A capped-relative sum is the true sum mod p^N, N the least
absolute precision of its terms, in normalized form: each addition
keeps the running sum mod the smaller absolute precision.  So one wrap
of the int sum mod p^N (_wrap) is the same PadicNum as adding term by
term.

In symbolic mode the same four kernels run over a denominator known in
advance, a product of binomials 1 + q^k, and build each value once
instead of once per addition (_fixed_denominator).  Each polynomial is
one int, its value at Q = 2^(8w) with w bytes per coefficient, the
Kronecker substitution ratfunc's products use (D. Harvey, J. Symb.
Comput. 44, 2009): a product by 1 +- Q^k is x +- (x << 8wk), an axpy one
shifted multiply-add, [x]^(n-l) a product of ints.  The value is a
RatFunc of the two ints (RatFunc._from_packed), whose denominator, of
powers of Q and binomials 1 +- Q^k, leads with +-1; each part carries
the L1 bound its width comes from as its digit bound h, so == sizes its
products from the formula.  ==, negation and a sum over the same
denominator decide on the ints; only other arithmetic, num and den read
lists back.  The exact quotient
by 1 + Q^k uses a (1 - Y)(1 + Y^2)(1 + Y^4)...(1 + Y^(2^(t-1))) = q (1 -
Y^(2^t)), Y = Q^k: q is that product's balanced residue mod Y^(2^t),
from O(log) shift-adds (_quo_packed).  w comes from an a-priori bound on
the L1 norm, derived from the formula and never from the values, so that
every coefficient divided or read back is below 2^(8w-1) and the
balanced digits are the coefficients:

- qeuler_poly's sum is over P (1 - q^alpha)^n with P = prod_l (1 +
  q^(alpha l + 1)), and term l's numerator is the exact quotient P / (1 +
  q^(alpha l + 1)).  P has L1 norm 2^(n+1), each quotient 2^n, the
  denominator 2^(2n+1) and the numerator, weights c_i included, 2
  sum_i |c_i| 2^n 2^n (_closed_form_ints); each binomial a caller
  multiplies in doubles its side's, and (1 + Q^(pk))/(1 + Q^k)
  multiplies it by p (weighted_scaled_sum).
- The recurrence and the additive sum keep every E_l over D =
  prod_{j<=top} (1 + q^(alpha j + 1)); E_l's denominator divides the
  product up to j = l, so each step's division is exact.  E_l's own
  numerator M_l needs no division, so N[l] = D E_l has L1 norm at most
  2^(top-l) |M_l| (_numbers_l1), and a term of the additive sum C(n,l)
  x^(n-l) times N[l]'s.

When every exponent is a multiple of g, the polynomials are in Q^g and
the value is spread back.  measure needs no gcd at all for odd p (see
there): it packs its parts at one byte per digit with h = 1, and every
mass at one level has the same denominator int, so a level's masses
add as ints with no gcd.

So each of the eight kernels (q_int, qeuler_poly, qeuler_numbers,
qeuler_poly_additive, scaled_qeuler, residue_split, weighted_euler_sum,
weighted_scaled_sum) has two paths: packed polynomials in symbolic mode,
the int view at a fixed q.  A symbolic kernel bounds the degrees of the
polynomials it forms, and where a bound passes MAX_DEGREE it raises
ResourceLimitError naming it, even where the reduced value would fit.
Each kernel forms its powers of q in the order the formula states them,
so an unrepresentable power or a pole raises the error a term-by-term
evaluation in the mode's own arithmetic raises; the tests keep that
evaluation as the kernels' reference.

All three value types implement Python arithmetic with int/Fraction
coercion, so the formulas are written once.  Division by zero anywhere
in a formula means the chosen q sits on a pole of the expression and
surfaces as PoleError; a p-adic divisor that is zero only to working
precision raises PrecisionError instead.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, inf, prod
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul, pos

from .errors import ExponentError, PoleError, PrecisionError, PreconditionError
from .exact import Frozen, as_int, as_rational, format_rational, frac_floor_parts
from .padic import DEFAULT_PRECISION, PadicConfig, PadicNum, _one_unit, _root, _vp, q_pow
from .ratfunc import MAX_DEGREE, Poly, RatFunc, _Packed, _guard_degree, _poly, _width


class RationalMode(Frozen):
    """Evaluate with q fixed at an exact rational number."""

    kind = "rational"
    __slots__ = ("q0",)

    def __init__(self, q0):
        object.__setattr__(self, "q0", Fraction(q0))

    def q_power(self, e):
        return self.q0 ** self._exponent(e)

    def _exponent(self, e, f: int = 1) -> int:
        """The int k = e f, e's numerator times f over its denominator; only e of another type becomes a Fraction."""
        if type(e) is int:
            k = e * f
        else:
            e = as_rational(e)
            k, d = e.numerator * f, e.denominator
            if k % d:
                raise ExponentError(f"q^({Fraction(k, d)}) is not representable at a fixed rational q")
            k //= d
        if k < 0 and self.q0 == 0:
            raise PoleError("negative power of q = 0")
        return k

    def from_rational(self, c) -> Fraction:
        return Fraction(c)

    def describe(self) -> dict:
        return {"mode": "rational", "q": format_rational(self.q0)}


class SymbolicMode(Frozen):
    """Evaluate with q as an indeterminate.

    The result variable Q satisfies q = Q^scale.  Equality of values
    built at the same scale is exact rational-function equality;
    evaluating at Q = 1 is the q -> 1 limit regardless of scale.
    """

    kind = "symbolic"
    __slots__ = ("scale",)

    def __init__(self, scale: int = 1):
        if scale < 1:
            raise PreconditionError(f"scale must be a positive integer, got {scale}")
        object.__setattr__(self, "scale", scale)

    def q_power(self, e) -> RatFunc:
        return RatFunc.monomial(self._exponent(e))

    def _exponent(self, e) -> int:
        """k with q^e = Q^k, under the degree limit."""
        if type(e) is int:
            k = e * self.scale
        else:
            k = Fraction(e) * self.scale
            if k.denominator != 1:
                raise ExponentError(
                    f"exponent {e} needs the variable scale to be a multiple of {Fraction(e).denominator}"
                )
            k = k.numerator
        _guard_degree(abs(k))
        return k

    def from_rational(self, c) -> RatFunc:
        return RatFunc.const(c)

    def limit_at_one(self, v: RatFunc) -> Fraction:
        """The q -> 1 limit: evaluate the reduced form at Q = 1."""
        return v.eval_at(1)

    def describe(self) -> dict:
        return {"mode": "symbolic", "scale": self.scale}


class PadicMode(Frozen):
    """Evaluate with q a p-adic number satisfying v_p(1 - q) >= 1."""

    kind = "padic"
    __slots__ = ("q", "cfg")

    def __init__(self, q: PadicNum, cfg: PadicConfig):
        if q.p != cfg.p:
            raise PreconditionError(f"q lives at p = {q.p} but the config says {cfg.p}")
        if not _one_unit(q, cfg.p):
            raise PreconditionError(f"padic mode needs v_{cfg.p}(1 - q) >= 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "cfg", cfg)

    def q_power(self, e) -> PadicNum:
        try:
            return q_pow(self.q, e, self.cfg)
        except PreconditionError as exc:
            # p divides e's denominator: q^e is not a p-adic number
            raise ExponentError(str(exc)) from None

    def from_rational(self, c) -> PadicNum:
        return PadicNum.from_rational(c, self.cfg.p, self.cfg.prec)

    def describe(self) -> dict:
        qj = self.q.to_json()
        return {"mode": "padic", "p": self.cfg.p, "precision": self.cfg.prec, "q": qj}


class BaseLifted(Frozen):
    """A mode viewed at base q^base: every exponent is multiplied by base."""

    __slots__ = ("inner", "base")

    def __init__(self, inner, base: int):
        if base < 1:
            raise PreconditionError(f"base exponent must be positive, got {base}")
        if isinstance(inner, BaseLifted):
            base *= inner.base
            inner = inner.inner
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "base", base)

    def q_power(self, e):
        if type(e) is int:
            return self.inner.q_power(e * self.base)
        return self.inner.q_power(as_int(Fraction(e) * self.base))

    def from_rational(self, c):
        return self.inner.from_rational(c)


def _root_base(mode) -> tuple:
    """The mode under a BaseLifted wrapper and its base; BaseLifted flattens nested wrappers, so one step reaches it."""
    return (mode.inner, mode.base) if isinstance(mode, BaseLifted) else (mode, 1)


def root_mode(mode):
    """Strip the BaseLifted wrapper."""
    return _root_base(mode)[0]


@dataclass(frozen=True)
class QEulerValue:
    """A scalar tagged with the coefficient mode that produced it.

    Only measure and oracle.riemann_level still return one, because the
    benchmark's workloads (perfbench/workloads.py) read .value on them;
    every other kernel returns the bare value.
    """

    mode: str
    value: object


def serialize_value(v):
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, (RatFunc, PadicNum)):
        return v.to_json()
    raise TypeError(f"cannot serialize {type(v).__name__}")


def compare_values(mode, lhs, rhs):
    """Status object for an identity check: lhs vs rhs in this mode.

    Exact modes test exact equality, symbolic ones by cross-multiplying.
    The p-adic mode reports the agreement valuation when the difference
    cannot be told apart from zero at working precision, and a fail
    witness when it can.
    """
    root = root_mode(mode)
    if root.kind == "padic":
        d = lhs - rhs
        if d.is_exact_zero:
            return "exact"
        if d.is_zero:
            return {"padic_agreement": int(d.valuation), "precision": root.cfg.prec}
        return {
            "fail": {
                "difference_valuation": int(d.valuation),
                "lhs": serialize_value(lhs),
                "rhs": serialize_value(rhs),
            }
        }
    if lhs == rhs:
        return "exact"
    return {"fail": {"lhs": serialize_value(lhs), "rhs": serialize_value(rhs)}}


def resolve_prime(mode, p):
    root = root_mode(mode)
    if root.kind == "padic":
        if p is not None and p != root.cfg.p:
            raise PreconditionError(f"p = {p} conflicts with the mode's prime {root.cfg.p}")
        return root.cfg.p
    if p is None:
        raise PreconditionError("this mode carries no prime, pass p explicitly")
    return p


def q_int(x: int, alpha: int, mode):
    """The q-integer of x at weight alpha: 1 + q^alpha + ... + q^(alpha(x-1)).

    Built as the plain geometric sum, no division, so it is safe in
    every mode including q values where 1 - q^alpha vanishes.
    """
    if x < 0:
        raise PreconditionError(f"q_int needs a nonnegative integer, got {x}")
    fd = _fixed_denominator(mode)
    if fd is not None:
        ks = [fd(alpha * i) for i in range(x)]
        # ks[0] = 0, so a negative weight's powers are over Q^-low and the sum's constant term is 1: reduced
        low = min(ks, default=0)
        acc = [0] * (max(ks, default=0) - low + 1)
        for k in ks:
            acc[k - low] += 1
        return RatFunc._reduced(_poly(acc, 1), Poly.monomial(-low))
    if not x:
        return mode.from_rational(0)
    # only q enters, so the sum keeps q's digits even past K
    iv = _ints(mode, capped=False)
    a, b = iv.power(alpha) if x > 1 else (1, 1)  # q^alpha is formed from x = 2 on
    return iv.finish([(_geometric(a, b, x, iv.red), b**x)])


def measure(a: int, level: int, mode, p: int = None) -> QEulerValue:
    """Mass of the residue disc a + p^level Z_p under the alternating measure.

    The value is (-q)^a (1 + q) / (1 + q^(p^level)).  For odd N = p^level
    that is (-q)^a / sum_{i<N} (-q)^i, whose denominator has constant term 1
    and leading coefficient 1: in symbolic mode, reduced and monic as built.
    There both parts are packed in q = Q^k at one byte per digit, each digit
    0 or +-1: +-Y^a, and sum_{i<N} (-Y)^i = (Y^N + 1) / (Y + 1) at Y = 2^8.
    So every mass at one level has the same denominator, one int.
    """
    p = resolve_prime(mode, p)
    if level < 1:
        raise PreconditionError(f"level must be positive, got {level}")
    if not 0 <= a < p**level:
        raise PreconditionError(f"need 0 <= a < {p}^{level}, got {a}")
    sign = 1 if a % 2 == 0 else -1
    fd = _fixed_denominator(mode)
    if fd is not None and p % 2:
        # the generic formula's degrees in its order: q^a, q, q^a (1 + q), q^N
        k_a, k, n = fd(a), fd(1), p**level
        _guard_degree(k_a + k)
        fd(n)  # q^N: formed for its errors alone
        num, den = sign << 8 * a, ((1 << 8 * n) + 1) // 257
        return QEulerValue("symbolic", RatFunc._reduced(_Packed(num, a + 1, k, 8, 1), _Packed(den, n, k, 8, 1)))
    one = mode.from_rational(1)
    try:
        v = mode.q_power(a) * (one + mode.q_power(1)) / (one + mode.q_power(p**level))
    except ZeroDivisionError:
        raise PoleError("measure undefined at this q (a denominator vanishes)") from None
    return QEulerValue(root_mode(mode).kind, sign * v)


@lru_cache(maxsize=None)
def euler_classical(n: int) -> Poly:
    """The n-th Euler polynomial in x, exactly.

    Uses the recurrence sum(C(n,k) E_k, k=0..n) + E_n = 2 x^n.
    """
    if n < 0:
        raise PreconditionError(f"index must be nonnegative, got {n}")
    acc = Poly.zero()
    for k in range(n):
        acc = acc + euler_classical(k).scale(comb(n, k))
    return Poly.monomial(n) - acc.scale(Fraction(1, 2))


def periodic_euler(m: int, x) -> Fraction:
    """Anti-periodic extension of E_m from [0, 1): flips sign each step."""
    fl, fr = frac_floor_parts(Fraction(x))
    v = euler_classical(m)(fr)
    return -v if fl % 2 else v


def qeuler_poly(n: int, alpha: int, x, mode):
    """n-th q-Euler polynomial at weight alpha and argument x.

    (1+q)/(1-q^alpha)^n * sum_l C(n,l) (-1)^l q^(alpha l x) / (1 + q^(alpha l + 1)).

    x may be any Fraction the mode can represent: integers always work,
    fractional x needs a symbolic scale divisible by its denominator or
    a p-adic q (with the denominator prime to p).  At x = 0 this is the
    q-Euler number, and the factor q^0 is not multiplied in.
    """
    _check_n_alpha(n, alpha)
    # [1]^n = 1: the scaled value at base q; an integral x keeps every exponent below an int
    return _scaled(mode, 1, n, alpha, [as_int(as_rational(x))])


def scaled_qeuler(n: int, alpha: int, y, d: int, mode):
    """S(n, y, d) = [d]^n E_n(y/d; q^d), [d] the weight-alpha q-integer, as the paper states its relations.

    Since [d]^n / (1 - q^(alpha d))^n = 1 / (1 - q^alpha)^n, this is
    qeuler_poly's closed form at base q^d with (1 - q^alpha)^n in its
    denominator in place of (1 - q^(alpha d))^n, formed with no product:
    the one-term case of residue_split, with no weight and no ratio.
    Only the division uses 1 - q^alpha; where E_n(y/d; q^d) has a pole,
    or its 1 - q^(alpha d) is zero to working precision, this raises
    what qeuler_poly raises, and at a p-adic q it keeps the n v_p(d)
    digits that multiplying by [d]^n would lose.
    """
    _check_n_alpha(n, alpha)
    if d < 1:
        raise PreconditionError(f"base exponent must be positive, got {d}")
    return _scaled(mode, d, n, alpha, [as_int(Fraction(as_rational(y), d))])


def qeuler_numbers(top: int, alpha: int, mode) -> list:
    """The q-Euler numbers E_0..E_top at weight alpha, as one list.

    Built by the recurrence E_0 = 1,
    E_n = -q/(1 + q^(alpha n + 1)) * sum_{l<n} C(n,l) q^(alpha l) E_l,
    which the fermionic integral equation q I(f(x+1)) + I(f(x)) = [2]_q f(0)
    gives for f(x) = [x]^n (T. Kim, J. Math. Anal. Appl. 326, 2007).  Its
    divisors 1 + q^(alpha n + 1) are p-adic units when v_p(1 - q) >= 1 and p
    is odd, so a p-adic table keeps every digit; the closed form qeuler_poly
    at x = 0 divides by (1 - q^alpha)^n and loses n v_p(1 - q^alpha) of them.
    Each q^(alpha l) is computed once per call.
    """
    _check_n_alpha(top, alpha)
    one = mode.from_rational(1)
    fd = _fixed_denominator(mode)
    if fd is not None:
        g = fd(1)
        # the longest list formed: deg N[0] = alpha top (top + 1)/2 + top, since alpha l + deg N[l] = deg N[0]
        _guard_degree(g * (alpha * top * (top + 1) // 2 + top))
        l1 = _numbers_l1(top)
        bits = 8 * _width(max(l1))
        nums = _numbers_ints(top, alpha, bits)
        return [one] + [RatFunc._from_packed(e_n, nums[0], g, bits, (h, l1[0])) for e_n, h in zip(nums[1:], l1[1:])]
    iv = _ints(mode)
    nums = _numbers_at(top, alpha, iv)
    return [one] + [iv.finish([(e_n, nums[0])]) for e_n in nums[1:]]


def qeuler_poly_additive(n: int, alpha: int, x: int, mode):
    """Addition form of the q-Euler polynomial at a nonnegative integer x.

    sum_l C(n,l) q^(alpha l x) E_l * [x]^(n-l), with [x] the weight-alpha
    q-integer of x and E_l from one qeuler_numbers table.  Must agree with
    qeuler_poly at every integer x.
    """
    _check_n_alpha(n, alpha)
    if not isinstance(x, int) or x < 0:
        raise PreconditionError(f"additive form needs a nonnegative integer x, got {x}")
    fd = _fixed_denominator(mode)
    if fd is not None:
        g, b = fd(1), alpha * max(x - 1, 0)
        # the longest polynomial, in q = Q^g: [x] has degree b, term l alpha l x + deg N[l] + (n - l) b, which is
        # deg N[0] + n b, as alpha l + deg N[l] = deg N[0]; at x = 0, [x] = 0 and N[0] is the longest
        _guard_degree(g * max(alpha * n * (n + 1) // 2 + n + n * b, b))
        # [x] has L1 norm x, so term l has at most C(n,l) x^(n-l) times N[l]'s bound
        l1 = _numbers_l1(n)
        h = sum(comb(n, l) * c * x ** (n - l) for l, c in enumerate(l1))
        bits = 8 * _width(max(*l1, h))
        nums, bracket, acc, power = _numbers_ints(n, alpha, bits), _ZERO, _ZERO, _ONE
        for i in range(x):
            bracket = _axpy_packed(bracket, 1, _ONE, alpha * i, bits)
        # [x]^(n-l) for l = n down to 0
        for l in range(n, -1, -1):
            acc = _axpy_packed(acc, comb(n, l), _mul_packed(nums[l], power), alpha * l * x, bits)
            power = _mul_packed(power, bracket)
        return RatFunc._from_packed(acc, nums[0], g, bits, (h, l1[0]))
    iv = _ints(mode)
    # q^alpha = a/b and [x] = g / b^x, m None at a rational q; every term is over b^(n x) N[0]
    nums, (a, b), m = _numbers_at(n, alpha, iv), iv.power(alpha), iv.m
    g, step = _geometric(a, b, x, iv.red), pow(a, x, m)
    s = sum(comb(n, l) * pow(step, l, m) * nums[l] * pow(g, n - l, m) for l in range(n + 1))
    return iv.finish([(s, nums[0] * b ** (n * x))])


def weighted_euler_sum(m: int, alpha: int, xs: list, base: int, mode):
    """(1/[k]) sum_{M=1}^{k-1} (-1)^(M-1) [M] E_m(x_M; q^base), k = len(xs) + 1, [.] the weight-alpha q-integer.

    dedekind.q_dc_sum's sum.  Every E_m(x_M; q^base) is over P (1 -
    q^(alpha base))^m, P = prod_l (1 + q^((alpha l + 1) base)), so the
    numerators are summed over it and finished once.  In symbolic mode
    [M]/[k] = (1 - q^(alpha M))/(1 - q^(alpha k)): the weights are
    binomials, and no gcd is taken.  Errors come as term by term: the
    first E_m's, then a vanishing [k]'s.
    """
    _check_n_alpha(m, alpha)
    if not xs:
        return mode.from_rational(0)
    inner = BaseLifted(mode, base)
    fd = _fixed_denominator(mode)
    if fd is None:
        return _weighted_at(m, alpha, xs, _ints(inner), _ints(mode, capped=False), mode)
    ek, near = fd(alpha * (len(xs) + 1)), _fixed_denominator(inner)
    weights = _bracket_weights(fd, alpha, len(xs))
    # E_m(x_M; q^base) divides by its own 1 - q^(alpha base): outer is the terms' base
    return _finished(*_closed_form_ints(m, alpha, xs + xs, near, near, weights, (0, ek), (ek,)), down=ek, sign=-1)


def weighted_scaled_sum(m: int, alpha: int, k: int, firsts: list, seconds: list, p: int, corrected: bool, mode):
    """sum_{M=1}^{count} (-1)^(M-1) [M] (S(m, a_M, k) - T_M), a_M = firsts[M-1], count = len(firsts).

    dedekind.bracket_weighted_sum's sum, S the scaled value.  T_M = 0
    with no seconds (naive), else, b_M = seconds[M-1], S(m, b_M p, kp)
    (printed) or [k]^(m-1) [kp] E_m(b_M/k; q^(kp)) = S(m, b_M p, kp) /
    [p]^(m-1) (corrected), [p] = (1 - q^(alpha kp))/(1 - q^(alpha k)).
    With P_B = prod_l (1 + q^((alpha l + 1) B)), and P_k dividing P_kp as
    1 + x divides 1 + x^p for odd p, the sum is over P_kp (1 - q^alpha)^(m+1)
    [p]^(m-1), the last 1 - q^alpha from [M] = (1 - q^(alpha M))/(1 -
    q^alpha).  Errors come as term by term: the first S's, the first
    T's, then, at m = 0, a vanishing [k]'s.
    """
    _check_n_alpha(m, alpha)
    if not firsts:
        return mode.from_rational(0)
    fd = _fixed_denominator(mode)
    if fd is None:
        return _scaled_weighted_at(m, alpha, k, firsts, seconds, p, corrected, mode)
    c, count = fd(alpha), len(firsts)
    weights = _bracket_weights(fd, alpha, count)
    near = _fixed_denominator(BaseLifted(mode, k))
    # every residue is positive, so no term's shift moves into the denominator: both sums are over Q^0 P (1 - Q^c)^m
    first = _closed_form_ints(m, alpha, [Fraction(y, k) for y in firsts] * 2, near, fd, weights, (0, c))
    if seconds is None:
        return _finished(*first, down=c, sign=-1)
    g, l1, form = first
    ek = fd(alpha * k)
    far = _fixed_denominator(BaseLifted(mode, k * p))
    g2, (l2, d2), form2 = _closed_form_ints(m, alpha, [Fraction(z, k) for z in seconds] * 2, far, fd, weights,
                                           strides=(g, ek))
    # corrected: T_M = S / [p]^(m-1), so the firsts and the denominator take (1 - q^(alpha kp))^(m-1) and
    # the seconds (1 - q^(alpha k))^(m-1); at m = 0 the two exchange places
    more = abs(m - 1) if corrected else 0
    # L1 norms: (1 + x^p)/(1 + x) = 1 - x + ... + x^(p-1) has p, and 1 - Q^e has 2; the denominator's, 2^(2m+2)
    # << more, is below the numerator's, as l1[0] >= 2^(2m+2)
    h = (l1[0] * p ** (m + 1) + l2 << more, d2 << more + 1)
    bits = 8 * _width(h[0])
    # in Q^g2, which divides g: P_kp / P_k = prod_l (1 + x_l^p)/(1 + x_l), x_l = q^((alpha l + 1) k)
    (num, _), (num2, den) = form(g2, bits), form2(g2, bits)
    for e in [near(alpha * l + 1) // g2 for l in range(m + 1)]:
        _guard_degree((num[1] - 1 + p * e) * g2)
        num = _quo_packed(_times_packed(num, p * e, bits), e, bits)
    ek, c = ek // g2, c // g2
    up, down = (p * ek, ek) if m else (ek, p * ek)
    _guard_degree(g2 * max(num[1] - 1 + more * up, num2[1] - 1 + more * down, den[1] - 1 + more * up + c))
    for _ in range(more):
        num, num2, den = (_times_packed(v, e, bits, -1) for v, e in ((num, up), (num2, down), (den, up)))
    num, den = _axpy_packed(num, -1, num2, 0, bits), _times_packed(den, c, bits, -1)
    return RatFunc._from_packed(num, den, g2, bits, h)


def _bracket_weights(fd, alpha: int, count: int) -> list:
    """The weights of a sum over xs + xs: (-1)^(M-1) on the first copy, -(-1)^(M-1) q^(alpha M) on the second.

    Together they weight term M by (-1)^(M-1) (1 - q^(alpha M)), which is
    [M] (1 - q^alpha).
    """
    signs = [-1 if i % 2 else 1 for i in range(count)]
    return [(s, 0) for s in signs] + [(-s, fd(alpha * big_m)) for big_m, s in enumerate(signs, 1)]


def binomial_series(mode, alpha: int, s, top: int, weight: int, ratio: PadicNum) -> PadicNum:
    """sum_{j<=top} C(s, j) q^(weight j) E_j ratio^j at a p-adic q, E_j the q-Euler numbers at mode's base.

    C(s, j) comes from c_j = c_(j-1) (s - j + 1)/j on ints, for an exact
    s and a PadicNum s = a/b (b a power of p) alike.  An exact c_j claims
    q's relative precision, what coercion gives it against q^(weight j);
    for a PadicNum s known to N digits, s - i is known to N - v_p(s - i)
    relative ones, or is O(p^N), and c_j keeps the fewest of these and of
    q's, as PadicNum arithmetic does.  A nonnegative integer s ends the
    series after C(s, s).  E_0 and ratio^0 claim the mode's one (K
    digits), E_j for j >= 1 A absolute digits (a zero residue is O(p^A)),
    and ratio^j for j >= 1 the ratio's relative precision, O(p^(j v)) when
    the ratio is O(p^v).  No term claims more than A digits past its
    valuation, so units mod p^A carry every claimed digit; the sum is
    wrapped once (_wrap), and the p-free denominators share one modular
    inverse (_inverses).
    """
    iv, root = _ints(mode), root_mode(mode)
    p, prec, m, q = iv.p, iv.prec, iv.m, root.q
    if isinstance(s, PadicNum) and not s.is_exact_zero:
        if s.p != p:
            raise PreconditionError(f"mixed primes {s.p} and {p}")
        known = s.abs_prec
        a, b = (s.unit * p**s.val, 1) if s.val >= 0 else (s.unit, p**-s.val)
    else:
        s, known = Fraction(0 if isinstance(s, PadicNum) else s), inf
        a, b = s.numerator, s.denominator
        if b == 1 and 0 <= a < top:
            top = a  # C(s, j) = 0 for j > s
    vb = _vp(b, p)
    vc, num, den, rel, reads = 0, 1, 1, q.prec, []  # c_0 = 1
    for j in range(top + 1):
        if j:
            f = a - (j - 1) * b
            vf = _vp(f, p) if f else inf
            if vf - vb >= known:
                num, vc = 0, vc + known  # s - (j - 1) is O(p^N), and so is every later c_j
            else:
                vc, rel, num = vc + vf - vb, min(rel, known + vb - vf), num * (f // p**vf) % m
            vj = _vp(j, p)
            vc, den = vc - vj, den * (j // p**vj) * (b // p**vb) % m
        reads.append((vc, num, den, rel))
    vals, nums, dens, precs = zip(*reads)
    step = pow(q.unit, weight, m) * ratio.unit  # 0 when the ratio is an approximate zero
    parts, power = [], 1
    terms = zip(vals, nums, _inverses(dens, m), precs, _numbers_at(top, alpha, iv))
    for j, (vc, nc, dc, rc, e) in enumerate(terms):
        ve = _vp(e, p) if e else prec
        v, u = vc + ve + j * ratio.val, nc * dc * (e // p**ve) * power % m
        r = min(rc, prec - ve, ratio.prec) if j else min(rc, root.cfg.prec)
        parts.append((v, u, v + r if u else v))
        power = power * step % m
    return _wrap(p, parts)


def _wrap(p: int, parts: list) -> PadicNum:
    """The capped-relative sum of terms (valuation, unit or 0 for an approximate zero, absolute precision).

    The sum is the true sum mod p^N, N the least absolute precision, in
    normalized form, which is what adding the terms one at a time gives
    (see the module docstring); no terms is the exact zero.
    """
    if not parts:
        return PadicNum.zero(p)
    top = min(n for *_, n in parts)
    low = min((v for v, u, _ in parts if u), default=top)
    s = sum(u * p ** (v - low) for v, u, _ in parts if u) % p ** (top - low) if top > low else 0
    return PadicNum(p, low, s, top - low)


def residue_split(mode, base: int, n: int, alpha: int, xs: list, step: int, corrected: bool):
    """[base]^n (1+q^step)/(1+q^(step count)) * sum_{i<count} (-1)^i w_i E_n(x_i; q^base), count = len(xs).

    [base] is the weight-alpha q-integer, and [base]^n E_n(x_i; q^base)
    is a scaled value, E_n's closed form over (1 - q^alpha)^n in place of
    (1 - q^(alpha base))^n (scaled_qeuler says why); only that division
    uses 1 - q^alpha.  The weight w_i is
    q^(step i) in the corrected reading and 1 in the printed one.  Every
    term has the one denominator D = P (1 - q^alpha)^n, P = prod_l (1 +
    q^((alpha l + 1) base)), since D depends on n, alpha and the base
    alone, never on x_i.  So the terms' numerators are summed over D and
    the sum, ratio included, is finished once: one RatFunc
    (_closed_form_ints, whose part that no x_i enters is formed once), or
    one Fraction or one PadicNum from one modular inverse (_split_at,
    _Ints.finish); qeuler_poly and scaled_qeuler are the one-term case of
    both.  Errors come as term by term for E_n(x_i; q^base): the first
    term's, its 1 - q^(alpha base) that vanishes or is zero to working
    precision included, before any later term is formed, the ratio's
    last, and q^step's exponent first in symbolic mode.  A sum whose
    lists would pass the degree limit raises ResourceLimitError naming
    their degree.  An empty xs raises PreconditionError.
    """
    _check_n_alpha(n, alpha)
    if not xs:
        raise PreconditionError("a residue split needs at least one term")
    return _scaled(mode, base, n, alpha, xs, step, corrected)


def _scaled(mode, base: int, n: int, alpha: int, xs: list, step: int = None, corrected: bool = False):
    """residue_split's sum on either path; with no step it has no weights and no ratio (scaled_qeuler, qeuler_poly)."""
    inner = mode if base == 1 else BaseLifted(mode, base)
    fd = _fixed_denominator(mode)
    if fd is not None:
        if step is None:
            return _finished(*_closed_form_ints(n, alpha, xs, _fixed_denominator(inner), fd))
        k, count = fd(step), len(xs)
        weights = [(-1 if i % 2 else 1, k * i if corrected else 0) for i in range(count)]
        form = _closed_form_ints(n, alpha, xs, _fixed_denominator(inner), fd, weights, (k, k * count), (k,))
        return _finished(*form, up=k, down=k * count)
    outer = _ints(mode)  # at base 1 the terms' view is the outer one
    return _split_at(n, alpha, xs, outer if base == 1 else _ints(inner), outer, step, corrected)


def _split_at(n: int, alpha: int, xs: list, iv, outer, step: int = None, corrected: bool = False):
    """[B]^n sum_i (-1)^i w_i E_n(x_i; q^B) at a fixed q: the terms from _terms, finished once.

    iv is the view at the terms' base q^B and outer the view at q.  The
    finish divides by (1 - q^alpha)^n = ((b - a)/b)^n from outer's q^alpha
    = a/b in place of the terms' 1 - q^(alpha B).  A step forms the
    weights w_i = q^(step i) when corrected (else 1) and the ratio (1 +
    q^step)/(1 + q^(step count)); with none there are neither.
    """
    terms, _ = _terms(n, alpha, xs, iv, (outer.power(step * i) for i in range(len(xs))) if corrected else None)
    a, b = outer.power(alpha)
    if step is None:
        return iv.finish(terms, b - a, n, b**n)
    (c, d), (e, f) = outer.power(step), outer.power(step * len(xs))
    # d != 0, and f + e is a unit at a p-adic q
    if not f + e:
        raise PoleError(f"pole in the residue split (1 + q^{step * len(xs)} vanishes at this q)")
    return iv.finish(terms, b - a, n, b**n * (d + c) * f, d * (f + e))


def _weighted_at(m: int, alpha: int, xs: list, iv, wide, mode):
    """weighted_euler_sum at a fixed q: the terms from _terms, weighted by [M], finished once with the division by [k].

    Where [k] vanishes, or is zero to its digits, the finished sum is
    divided by q_int(k), which raises what the term-by-term sum raises.
    """
    k, (wa, wb) = len(xs) + 1, wide.power(alpha)
    brackets = [_geometric(wa, wb, big_m, wide.red) for big_m in range(1, k + 1)]
    terms, (a, b) = _terms(m, alpha, xs, iv, ((g, wb**big_m) for big_m, g in enumerate(brackets, 1)))
    if not (brackets[-1] % wide.m if wide.m else brackets[-1]):
        return iv.finish(terms, b - a, m, b**m) / q_int(k, alpha, mode)
    return iv.finish(terms, b - a, m, b**m * wb**k, brackets[-1], den_prec=wide.prec)


def _scaled_weighted_at(m: int, alpha: int, k: int, firsts: list, seconds: list, p: int, corrected: bool, mode):
    """weighted_scaled_sum at a fixed q: the firsts' and the seconds' terms from _terms, weighted by [M], finished once.

    Corrected, the sum is divided by [p]^(m-1), [p] = g / c^p at
    q^(alpha k) = d/c, and the firsts' weights take [p]^(m-1) as a factor
    (the seconds' take [p] at m = 0).  Each term's rank is what its term
    claims on the PadicNum path: A - v_p(1 - q^alpha) for a first or a
    printed second, and for a corrected second the least of A - v_p(1 -
    q^(alpha kp)) and the uncapped A' - 1 of [kp].  [p], of valuation 1,
    caps no claim.
    """
    near, outer, wide = _ints(BaseLifted(mode, k)), _ints(mode), _ints(mode, capped=False)
    (a, b), (wa, wb) = outer.power(alpha), wide.power(alpha)
    brackets = [(_geometric(wa, wb, big_m, wide.red), wb**big_m) for big_m in range(1, len(firsts) + 1)]
    w, num, den, lift, lift2 = b - a, b**m, 1, (1, 1), (-1, 1)
    if corrected and seconds:
        d, c = near.power(alpha)
        g, e = _geometric(d, c, p, near.red), c**p
        if m:
            lift, num, den = (g ** (m - 1), e ** (m - 1)), num * e ** (m - 1), g ** (m - 1)
        else:
            lift2 = (-g, e)
    # a later term raises nothing the first one did not: its exponents are integers and its
    # denominator vanishes where the first one's does
    xs = [Fraction(y, k) for y in firsts]
    terms, _ = _terms(m, alpha, xs, near, ((s * lift[0], t * lift[1]) for s, t in brackets))
    ranks = [near.m and near.rank(w)] * len(terms)
    if seconds:
        far = _ints(BaseLifted(mode, k * p))
        xs = [Fraction(z, k) for z in seconds]
        more, (d2, c2) = _terms(m, alpha, xs, far, ((s * lift2[0], t * lift2[1]) for s, t in brackets))
        if not corrected:
            ranks += ranks
        elif m or _geometric(wa, wb, k, wide.red):
            ranks += [near.m and min(far.rank(c2 - d2), wide.prec - 1)] * len(more)
        else:
            raise PoleError(f"pole in the interpolated value ([{k}] vanishes at this q)")
        terms += more
    return near.finish(terms, w, m, num, den, near.m and ranks)


def _terms(n: int, alpha: int, xs: list, iv, weights=None) -> tuple:
    """The one fixed-q term loop: (-1)^i w_i t_i as (num, den) pairs, and q^alpha = (a, b) at iv's base.

    t_i is the closed form at x_i (_closed_form_at) times (1 - q^alpha)^n
    / b^n, so that the caller's finish divides by its (1 - q^alpha)^n and
    multiplies by its b^n.  The first term is checked (iv.check) before
    the next term's exponents are formed.  weights, an iterator, yields
    w_i = c_i / e_i as (c_i, e_i), drawn once t_i is formed; with none
    every w_i is 1.  A vanishing denominator is a pole.
    """
    terms = []
    try:
        for i, x in enumerate(xs):
            num, den, ab = _closed_form_at(n, alpha, x, iv)
            if not i:
                iv.check(den, ab[1] - ab[0], n)
            if weights is not None:
                c, e = next(weights)
                num, den = c * num, e * den
            terms.append((-num if i % 2 else num, den))
    except ZeroDivisionError:
        raise PoleError("pole in q-Euler polynomial (a denominator vanishes at this q)") from None
    return terms, ab


def _check_n_alpha(n: int, alpha: int) -> None:
    if n < 0:
        raise PreconditionError(f"degree must be nonnegative, got {n}")
    if alpha < 1:
        raise PreconditionError(f"weight must be a positive integer, got {alpha}")


class _Ints:
    """q^(e f), f an int factor, as an int pair (a, b), q^(e f) = a/b, raising what the mode's q_power raises.

    Exact at q = u/v, where red leaves an int alone and m is None.  At a
    p-adic q it is (q^e mod m, 1), m = p^prec, and red reduces mod m;
    q^(a/b) is r_b^a for the root r_b = q^(1/b), the 1-unit root of
    r^b = q mod m lifted by Newton steps at each such power.
    """

    def __init__(self, root, base: int, prec):
        if root.kind == "rational":
            u, v = root.q0.numerator, root.q0.denominator
            self.red, self.m, self.prec = pos, None, None

            def power(e, f: int = 1) -> tuple:
                k = root._exponent(e, base * f)  # u != 0 when k < 0
                return (u**k, v**k) if k >= 0 else (v**-k, u**-k)
        else:
            p, u = root.cfg.p, root.q.unit
            self.p, self.prec = p, prec
            m = self.m = p**prec
            self.red = m.__rmod__

            def power(e, f: int = 1) -> tuple:
                if type(e) is int:
                    return pow(u, base * f * e, m), 1
                a, b = e.numerator * base * f, e.denominator
                g = gcd(a, b)
                a, b = a // g, b // g
                if b == 1:
                    return pow(u, a, m), 1
                if b % p == 0:
                    raise ExponentError(f"exponent {Fraction(a, b)} is not a {p}-adic integer")
                return pow(_root(u, b, 1, p, prec), a, m), 1

        self.power = power

    def finish(self, terms: list, w: int = 1, n: int = 0, num: int = 1, den: int = 1, ranks: list = None,
               den_prec=inf):
        """sum_i t_i / d_i over w^n den, times num, for terms (t_i, d_i), as the PadicNum path states it.

        The terms are added cross-multiplied on ints; at q = u/v the value
        is one Fraction.  At a p-adic q the d_i and num are units, and with
        w = p^v u mod p^A, u a unit, and den = p^e d, the sum is divided by
        d_0 d_1 ... d u^n mod p^A with one modular inverse, or none where
        that product is 1.  The PadicNum path knows t_i / d_i to A digits
        and w to A, so u^n to A - v: term i claims A - v + v_p(t_i) digits,
        at most A, and a unit w keeps all A.  Where w is zero to A digits,
        which check lets through only at n = 0, w ** 0 gives 1
        DEFAULT_PRECISION digits in place of A.  ranks[i], where given,
        takes A - v's place for term i (rank).  A capped-relative sum keeps
        the least of its terms' claims (see the module docstring); a den
        known to den_prec absolute digits, where that is its one division
        on the PadicNum path, caps the relative precision at den_prec - e.
        """
        s, d = 0, 1
        for t, dt in terms:
            s, d = s * dt + t * d, d * dt
        if self.m is None:
            return Fraction(s * num, d * den * w**n)
        p, prec, m = self.p, self.prec, self.m
        w %= m
        v = _vp(w, p) if w else 0
        claim = prec
        for (t, _), r in zip(terms, ranks or repeat(self.rank(w))):
            if r < prec and t % m:
                claim = min(claim, r + _vp(t, p))
        e = _vp(den, p)
        d = d * (den // p**e) * (w // p**v) ** n
        value = PadicNum(p, -n * v - e, s * num if d == 1 else s * num * pow(d, -1, m), claim)
        return value if value.prec <= den_prec - e else PadicNum(p, value.val, value.unit, den_prec - e)

    def rank(self, w: int) -> int:
        """A - v_p(w), the relative digits the PadicNum path knows w / p^v to; DEFAULT_PRECISION for a zero w."""
        w %= self.m
        return self.prec - _vp(w, self.p) if w else DEFAULT_PRECISION

    def check(self, den: int, w: int, n: int) -> None:
        """Raise where den w^n vanishes: ZeroDivisionError at q = u/v, PrecisionError where w is zero to A digits.

        The PadicNum path raises that PrecisionError for (1 - q^alpha)^n
        at n >= 1; finish divides only once this has passed.
        """
        if self.m is None:
            if not den or n and not w:
                raise ZeroDivisionError("a denominator vanishes")
        elif n and not w % self.m:
            zero = PadicNum.approx_zero(self.p, n * self.prec)
            raise PrecisionError(f"precision exhausted: division by {zero!r}, zero at working precision")


def _ints(mode, capped: bool = True):
    """A new _Ints of a rational or p-adic mode at its base.

    The precision is q's absolute one, capped at K where the kernel adds
    the K-digit one; for a q known to at most K digits the two agree.
    """
    root, base = _root_base(mode)
    prec = None if root.kind == "rational" else min(root.q.abs_prec, root.cfg.prec if capped else inf)
    return _Ints(root, base, prec)


def _fixed_denominator(mode):
    """For a symbolic mode, e -> k with mode.q_power(e) = Q^k, raising what q_power raises; else None."""
    root, base = _root_base(mode)
    return (lambda e: root._exponent(e * base)) if root.kind == "symbolic" else None


# A packed polynomial is a pair (v, n): v its value at Q = 2^bits, with bits = 8w for w bytes per coefficient,
# and n its length, the number of coefficients it may have, as the formula states it


_ZERO, _ONE = (0, 0), (1, 1)


def _times_packed(a: tuple, k: int, bits: int, sign: int = 1) -> tuple:
    """a (1 + sign Q^k): one shift-add."""
    v, n = a
    return (v + (v << k * bits) if sign == 1 else v - (v << k * bits)), n + k


def _axpy_packed(acc: tuple, c: int, t: tuple, shift: int, bits: int) -> tuple:
    """acc + c Q^shift t: one shifted multiply-add."""
    return acc[0] + (c * t[0] << shift * bits), max(acc[1], shift + t[1])


def _mul_packed(a: tuple, b: tuple) -> tuple:
    """a b: one int product."""
    return a[0] * b[0], a[1] + b[1] - 1


def _quo_packed(a: tuple, k: int, bits: int):
    """a / (1 + Q^k), or None where 1 + Q^k does not divide a.

    With Y = Q^k and a = q (1 + Y), a (1 - Y)(1 + Y^2)(1 + Y^4)...(1 +
    Y^(2^(t-1))) = q (1 - Y^(2^t)), so q is that product's balanced residue
    mod Y^(2^t) once |q| < Y^(2^t) / 2.  That holds where q's n - k
    coefficients are below 2^(bits-1), which the kernels' widths ensure,
    and k 2^t >= n - k.  Each factor is one shift-add mod Y^(2^t), so the
    quotient takes O(log(n / k)) of them; without the reduction the
    products grow past the quotient and every step costs more.  It is
    accepted only where q (1 + Y) = a.
    """
    v, n = a
    s = k * bits
    t = 2 * s
    while t < (n - k) * bits:
        t *= 2
    mask, u = (1 << t) - 1, 2 * s
    q = v - (v << s) & mask
    while u < t:
        q, u = q + (q << u) & mask, 2 * u
    q -= q >> t - 1 << t
    return (q, n - k) if q + (q << s) == v else None


def _closed_form_ints(n: int, alpha: int, xs: list, fd, outer, weights: list = None,
                      tail: tuple = (0, 0), strides: tuple = ()) -> tuple:
    """sum_i w_i [B]^n E_n(x_i; q^B) as (g, l1, form), the value num / den in Q^g; one x at B = 1 is qeuler_poly.

    fd maps the exponents at the terms' base q^B and outer those at q;
    with fd as outer the terms are E_n(x_i; q^B) (weighted_euler_sum).
    In Q^g every term is over Q^top D, D = P (1 - Q^c)^n,
    P = prod_l (1 + Q^(b + l a)), q^(alpha B) = Q^(g a), q^B = Q^(g b) and
    q^alpha = Q^(g c), as a scaled value's denominator (scaled_qeuler);
    so the quotients P / (1 + Q^(b + l a)) and D depend on (n, a, b, c)
    alone.  Only term i's shifts q^(alpha l x_i) = Q^(l s_i) depend on x_i,
    and top = max -n s_i.  So the rest, the guards' sums and the factor
    1 + q^B included, is formed once per call.  weights[i] = (c_i, e_i)
    makes w_i = c_i Q^(e_i); with none, the one term's weight is 1.  A
    weighted sum's guard adds tail, the degrees by which the caller then
    multiplies num and den, and g divides strides, the exponents of the
    caller's factors.

    form(stride, bits) gives num and den packed in Q^stride, for a stride
    dividing g.  l1 bounds their L1 norms from the formula alone: P, a
    product of n + 1 binomials, has 2^(n+1), each quotient 2^n and D
    2^(2n+1), and num = (1 + Q^b) sum_(i,l) c_i (-1)^l C(n,l) Q^(...) P / (1
    + Q^(b + l a)) has 2 sum_i |c_i| 2^n 2^n.
    """
    # the powers of q in the formula's order, l by l, so that the one a term-by-term evaluation fails at
    # fails first: q^(alpha l x) = Q^(l s), then q^(alpha l + 1), which the first term forms for all
    bots, shifts = [fd(1)], []
    for x in xs:
        s = fd(alpha * x) if n and x else 0
        if shifts:
            # a later term forms no bottom, so its one guard is at the first l with l |s| past the limit
            if s and (l0 := MAX_DEGREE // abs(s) + 1) <= n:
                _guard_degree(l0 * abs(s))
        else:
            for l in range(1, n + 1):
                _guard_degree(l * abs(s))
                bots.append(fd(alpha * l + 1))
            a, c = fd(alpha), outer(alpha)
        # a bound on every degree a term forms
        _guard_degree(n * abs(s) + sum(bots) + max(n * c, bots[0]))
        shifts.append(s)
    top = -n * min(0, *shifts)
    if weights is None:
        weights = [(1, 0)]
    else:
        # the longest polynomial: Q^top D times the tail, or the numerator, (1 + q^B) times
        # sum_(i,l) c_i Q^(e_i + top + l s_i) P / (1 + q^((alpha l + 1) B)), whose degree peaks at l = 0 or l = n
        ends = (e + n * max(0, s - a) for (_, e), s in zip(weights, shifts))
        _guard_degree(top + sum(bots) + max(n * c + tail[1], tail[0] + max(ends)))
    # every power of q here is one of Q^g; c divides a
    g = gcd(c, bots[0], *shifts, *(e for _, e in weights), *strides)
    cs = [(-1) ** l * comb(n, l) for l in range(n + 1)]
    l1 = (sum(abs(cw) for cw, _ in weights) << 2 * n + 1, 1 << 2 * n + 1)

    def form(stride: int, bits: int) -> tuple:
        prod = _ONE
        for e in bots:
            prod = _times_packed(prod, e // stride, bits)
        den = prod
        for _ in range(n):
            den = _times_packed(den, c // stride, bits, -1)
        acc = _ZERO
        for l, (cl, e) in enumerate(zip(cs, bots)):
            quo = _quo_packed(prod, e // stride, bits)
            for (cw, f), s in zip(weights, shifts):
                acc = _axpy_packed(acc, cw * cl, quo, (f + top + l * s) // stride, bits)
        # the factor 1 + q^B is 1 + q^((alpha 0 + 1) B)
        return _times_packed(acc, bots[0] // stride, bits), _axpy_packed(_ZERO, 1, den, top // stride, bits)

    return g, l1, form


def _finished(g: int, l1: tuple, form, up: int = 0, down: int = 0, sign: int = 1) -> RatFunc:
    """form's num (1 + Q^up) / (den (1 + sign Q^down)) in Q^g, with no factor where up or down is 0.

    Each factor doubles its side's L1 norm; the width covers both sides.
    """
    h = (l1[0] << (up > 0), l1[1] << (down > 0))
    bits = 8 * _width(max(h))
    num, den = form(g, bits)
    if up:
        num = _times_packed(num, up // g, bits)
    if down:
        den = _times_packed(den, down // g, bits, sign)
    return RatFunc._from_packed(num, den, g, bits, h)


def _numbers_l1(top: int) -> list:
    """Bounds on the L1 norms of _numbers_ints's N[l], from the recurrence alone.

    With E_n = M_n / prod_{1<=j<=n} (1 + q^(alpha j + 1)), the recurrence
    reads M_n = -q sum_{l<n} C(n,l) q^(alpha l) M_l prod_{l<j<n} (1 +
    q^(alpha j + 1)), with no division: so |M_0| = 1 and |M_n| <= sum_{l<n}
    C(n,l) 2^(n-1-l) |M_l| in the L1 norm, and N[n] = M_n prod_{n<j<=top}
    (1 + q^(alpha j + 1)) has 2^(top-n) |M_n|.
    """
    m = [1]
    for n in range(1, top + 1):
        m.append(sum(comb(n, l) * c << n - 1 - l for l, c in enumerate(m)))
    return [c << top - n for n, c in enumerate(m)]


def _numbers_ints(top: int, alpha: int, bits: int) -> list:
    """N with E_l = N[l] / N[0] for l <= top, N[0] = prod_{1<=j<=top} (1 + q^(alpha j + 1)), at q = Q, packed."""
    nums = [_ONE]
    for n in range(1, top + 1):
        nums[0] = _times_packed(nums[0], alpha * n + 1, bits)
    for n in range(1, top + 1):
        acc = _ZERO
        for l in range(n):
            acc = _axpy_packed(acc, comb(n, l), nums[l], alpha * l, bits)
        # exact: N[0] / (1 + q^(alpha n + 1)) is a multiple of every E_l with l < n
        nums.append(_axpy_packed(_ZERO, -1, _quo_packed(acc, alpha * n + 1, bits), 1, bits))
    return nums


def _geometric(a: int, b: int, x: int, red) -> int:
    """g with 1 + r + ... + r^(x-1) = g / b^x for r = a/b."""
    g, t = 0, 1
    for _ in range(x):
        t *= b
        g = red(g * a + t)
    return g


def _closed_form_at(n: int, alpha: int, x, iv) -> tuple:
    """qeuler_poly's sum at a fixed q on ints over one denominator, q^(alpha l x) = s/t and q^(alpha l + 1) = d/e.

    Returns (num, den, (a, b)) with q^alpha = a/b: the value is iv.finish([(num b^n, den)], b - a, n) once
    iv.check(den, b - a, n) has passed.
    """
    power, red = iv.power, iv.red
    (c, w), (a, b) = power(1), power(alpha)
    # a vanishing 1 + q^(alpha l + 1) zeroes den, so the finish divides by zero; as term by term,
    # 1 + q = 0 at l = 0 is that pole before q^(alpha x) can fail, and n = 0 forms no q^(alpha x)
    sa, sb = power(x, alpha) if n and x and c != -w else (1, 1)
    num, den, s, t, d, e = 0, 1, 1, 1, c, w
    for l in range(n + 1):
        f = t * (e + d)
        num, den = red(num * f + (-1) ** l * comb(n, l) * s * e * den), red(den * f)
        s, t, d, e = red(s * sa), t * sb, red(d * a), e * b
    return num * (w + c), den * w, (a, b)


def _numbers_at(top: int, alpha: int, iv) -> list:
    """N with E_l = N[l] / N[0] for l <= top at a fixed q.

    With q = c/w, q^alpha = a/b = (c/w)^alpha and 1 + q^(alpha n + 1) =
    d_n / (w b^n), E_n = b^n M[n] / N[0] for M[0] = N[0] and M[n]
    = -c sum_{l<n} C(n,l) a^l M[l] / d_n.  At q = u/v, N[0] = prod_n d_n
    makes each division exact; at a p-adic q, N[0] = 1 = b.  A p-adic E_n
    with n >= 1 claims exactly A digits on the PadicNum path too.  Its
    sum adds the K-digit one to terms known to A + v_p(C(n,l)) digits, so
    it is known to A digits unless n = p^k, where p divides every C(n,l)
    with 0 < l < n.  There E_n = -1/2 mod p (Kummer's congruence; for
    p = 3, von Staudt's theorem), so the sum is 1 mod p, a unit, and
    E_n = -q * sum / (1 + q^(alpha n + 1)) keeps A digits.
    """
    red, m = iv.red, iv.m
    (c, w), (a, b) = iv.power(1), iv.power(alpha)
    dens = [c * pow(a, n, m) + w * b**n for n in range(1, top + 1)]  # pow(a, n, None) is a**n
    nums = [prod(dens) if m is None else 1]
    if m is not None:
        # each d_n is 2 mod p, a unit: multiply by its inverse, all of them from one pow
        dens = _inverses(dens, m)
    # weighted[l] = a^l M[l], the factor every later M[n] sums over
    weighted, a_n = nums[:], 1
    for n, d in enumerate(dens, 1):
        if d == 0:
            raise PoleError(f"pole in q-Euler numbers (1 + q^{alpha * n + 1} vanishes at this q)")
        acc = -c * sum(map(mul, map(comb, repeat(n), range(n)), weighted))
        nums.append(acc // d if m is None else acc * d % m)
        a_n = red(a_n * a)
        weighted.append(red(a_n * nums[n]))
    return [b**l * v for l, v in enumerate(nums)]


def _inverses(xs: list, m: int) -> list:
    """[x^-1 mod m for x in xs], every x a unit mod m, from one modular inverse (Montgomery's trick).

    With prefix products P_i = x_0 ... x_(i-1), x_i^-1 = P_i (P_(i+1))^-1,
    and each (P_i)^-1 is x_i (P_(i+1))^-1 (P. L. Montgomery, Math. Comp.
    48, 1987).
    """
    pre = list(accumulate(xs, lambda s, x: s * x % m, initial=1))
    inv, out = pow(pre.pop(), -1, m), []
    for x, before in zip(reversed(xs), reversed(pre)):
        out.append(inv * before % m)
        inv = inv * x % m
    return out[::-1]
