"""The alternating measure, its q-Euler numbers and polynomials, and the
classical Euler polynomials they deform.

Everything here is generic over a coefficient mode.  A mode decides
what a power of q is:

- RationalMode(q0): powers are exact Fractions at a fixed rational q0.
- SymbolicMode(scale): powers are RatFunc monomials in a variable Q
  with q = Q^scale, so an exponent e is representable iff scale*e is an
  integer.  Raising the scale is how fractional arguments like x = 1/3
  stay exact.
- PadicMode(q, cfg): powers are PadicNum values; fractional exponents
  are one modular power (padic.q_pow) and need v_p(1 - q) >= 1.

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
with q^e an int pair (a, b), q^e = a/b, from _ints.  At q = u/v the pair
is exact and the value one Fraction, reduced once.  At a p-adic q it is
(q^e mod p^A, 1) and the value is wrapped once as a PadicNum.  Its
divisors 1 + q^k are 2 mod p, units for odd p, so ints mod p^A are exact
(the fixed-modulus model; Caruso, arXiv:1701.06794).  A is the least
absolute precision of the inputs, and the capped-relative path knows
each of these sums to exactly A digits too, so the result is the same
PadicNum digit for digit and in its claimed precision.  qeuler_poly's
one non-unit divisor, (1 - q^alpha)^n = p^(n v) d^n, takes the
valuation and the precision that path gives it (_Ints.finish).

What depends only on the mode is formed once and cached on it: one int
view per lifted base and A, so a q known to at most K digits has one
view whether or not the kernel caps at K; one root r_b = q^(1/b) =
q^(b^-1 mod p^A) per A and exponent denominator b, shared by every
base, so q^(a/b) = r_b^a is a power with a small exponent; (q^(b^-1))^a
is q^(a b^-1), the residue one large power gives.  The recurrence takes
one modular inverse per table (_inverses).  A symbolic mode keeps
qeuler_poly's binomial products (_closed_form_ints): the quotients
P / (1 + q^(alpha l + 1)) and P (1 - q^alpha)^n, as int lists in Q^g,
keyed by (n, a, b) with q^alpha = Q^(g a) and q = Q^(g b), so every
base and every x with the same stride g share them.  The table lives on
the root mode: a fresh mode starts empty, and a long-lived one keeps one
entry per key, each under the degree guard, which runs first.

The alternating sums that combine such values (alternating_sum: the
residue splits of eq5/eq7/eq8/recursion in residue_split, q_dc_sum and
bracket_weighted_sum) add on ints mod p^A too.  A capped-relative sum
is the true sum mod p^N, N the least absolute precision of its terms,
in normalized form: each addition keeps the running sum mod the smaller
absolute precision.  So one wrap of the int sum mod p^N is the same
PadicNum as adding term by term.  residue_split's ratio
(1 + q^step)/(1 + q^(step count)) is finished by the int view at a
rational q and at a p-adic one alike.

In symbolic mode the same four kernels run on int coefficient lists
over a denominator known in advance, a product of binomials 1 + q^k,
and build each value once instead of once per addition
(_fixed_denominator).  qeuler_poly's sum is over P (1 - q^alpha)^n with
P = prod_l (1 + q^(alpha l + 1)); term l's numerator is the exact
quotient P / (1 + q^(alpha l + 1)).  The recurrence and the additive sum
keep every E_l over D = prod_{j<=top} (1 + q^(alpha j + 1)); E_l's
denominator divides the product up to j = l, so each step's division is
exact, and the recurrence q_i = a_i - q_(i-k) divides by 1 + Q^k.  When
every exponent is a multiple of g, the lists are in Q^g and the value
is spread back.  measure needs no gcd at all for odd p (see there).

All three value types implement Python arithmetic with int/Fraction
coercion, so the formulas are written once.  Division by zero anywhere
in a formula means the chosen q sits on a pole of the expression and
surfaces as PoleError; a p-adic divisor that is zero only to working
precision raises PrecisionError instead.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, inf, prod
from functools import lru_cache, reduce
from itertools import accumulate
from operator import add, mul, pos

from .errors import ExponentError, PoleError, PrecisionError, PreconditionError, ResourceLimitError
from .exact import format_rational, frac_floor_parts
from .padic import DEFAULT_PRECISION, PadicConfig, PadicNum, _vp, q_pow
from .ratfunc import Poly, RatFunc, _guard_degree, _poly, _prod, _stretch


class RationalMode:
    """Evaluate with q fixed at an exact rational number."""

    kind = "rational"
    __slots__ = ("q0", "_ints")

    def __init__(self, q0):
        object.__setattr__(self, "q0", Fraction(q0))
        object.__setattr__(self, "_ints", {})

    def __setattr__(self, name, value):
        raise AttributeError("RationalMode is immutable")

    def q_power(self, e):
        return self.q0 ** self._exponent(e)

    def _exponent(self, e) -> int:
        if type(e) is not int:
            e = Fraction(e)
            if e.denominator != 1:
                raise ExponentError(f"q^({e}) is not representable at a fixed rational q")
            e = e.numerator
        if e < 0 and self.q0 == 0:
            raise PoleError("negative power of q = 0")
        return e

    def from_rational(self, c) -> Fraction:
        return Fraction(c)

    def describe(self) -> dict:
        return {"mode": "rational", "q": format_rational(self.q0)}


class SymbolicMode:
    """Evaluate with q as an indeterminate.

    The result variable Q satisfies q = Q^scale.  Equality of values
    built at the same scale is exact rational-function equality;
    evaluating at Q = 1 is the q -> 1 limit regardless of scale.
    """

    kind = "symbolic"
    __slots__ = ("scale", "_binomials")

    def __init__(self, scale: int = 1):
        if scale < 1:
            raise PreconditionError(f"scale must be a positive integer, got {scale}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_binomials", {})

    def __setattr__(self, name, value):
        raise AttributeError("SymbolicMode is immutable")

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


class PadicMode:
    """Evaluate with q a p-adic number satisfying v_p(1 - q) >= 1."""

    kind = "padic"
    __slots__ = ("q", "cfg", "_ints", "_roots")

    def __init__(self, q: PadicNum, cfg: PadicConfig):
        if q.p != cfg.p:
            raise PreconditionError(f"q lives at p = {q.p} but the config says {cfg.p}")
        # an approximate zero's valuation is a lower bound: q = O(p^0) has none
        t = q - 1
        if t.valuation < 1:
            raise PreconditionError(f"padic mode needs v_{cfg.p}(1 - q) >= 1")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "_ints", {})
        object.__setattr__(self, "_roots", {})

    def __setattr__(self, name, value):
        raise AttributeError("PadicMode is immutable")

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


class BaseLifted:
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

    def __setattr__(self, name, value):
        raise AttributeError("BaseLifted is immutable")

    def q_power(self, e):
        if type(e) is int:
            return self.inner.q_power(e * self.base)
        e = Fraction(e) * self.base
        return self.inner.q_power(e.numerator if e.denominator == 1 else e)

    def from_rational(self, c):
        return self.inner.from_rational(c)


def root_mode(mode):
    """Strip BaseLifted wrappers."""
    while isinstance(mode, BaseLifted):
        mode = mode.inner
    return mode


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
        acc = []
        for i in range(x):
            _axpy(acc, 1, [1], fd(alpha * i))
        return RatFunc.from_poly(_poly(acc, 1))
    # only q enters, so the sum keeps q's digits even past K
    if (iv := _ints(mode, capped=False)) and x:
        a, b = iv.power(alpha) if x > 1 else (1, 1)  # q^alpha is formed from x = 2 on
        return iv.finish(_geometric(a, b, x, iv.red), b**x)
    acc = mode.from_rational(0)
    for i in range(x):
        acc = acc + mode.q_power(alpha * i)
    return acc


def measure(a: int, level: int, mode, p: int = None) -> QEulerValue:
    """Mass of the residue disc a + p^level Z_p under the alternating measure.

    The value is (-q)^a (1 + q) / (1 + q^(p^level)).  For odd N = p^level
    that is (-q)^a / sum_{i<N} (-q)^i, whose denominator has constant term 1
    and leading coefficient 1: in symbolic mode, reduced and monic as built.
    """
    p = resolve_prime(mode, p)
    if level < 1:
        raise PreconditionError(f"level must be positive, got {level}")
    if not 0 <= a < p**level:
        raise PreconditionError(f"need 0 <= a < {p}^{level}, got {a}")
    one = mode.from_rational(1)
    sign = 1 if a % 2 == 0 else -1
    fd = _fixed_denominator(mode)
    if fd is not None and p % 2:
        # the generic formula's degrees in its order: q^a, q, q^a (1 + q), q^N
        k_a, k = fd(a), fd(1)
        _guard_degree(k_a + k)
        den = [0] * (fd(p**level) - k + 1)
        den[::k] = [1, -1] * (p**level // 2) + [1]
        return QEulerValue("symbolic", RatFunc._reduced(Poly.monomial(k_a, sign), _poly(den, 1)))
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
    x = Fraction(x)
    if x.denominator == 1:
        # an integral x keeps every exponent below an int
        x = x.numerator
    fd = _fixed_denominator(mode)
    if fd is not None:
        try:
            return _closed_form_ints(n, alpha, x, fd, root_mode(mode)._binomials)
        except ResourceLimitError:
            pass  # unreduced, the degrees pass the limit; the generic loop's may not
    try:
        if iv := _ints(mode):
            return _closed_form_at(n, alpha, x, iv)
        one, acc = mode.from_rational(1), mode.from_rational(0)
        for l in range(n + 1):
            c = comb(n, l) if l % 2 == 0 else -comb(n, l)
            num = c if x == 0 else c * mode.q_power(alpha * l * x)
            acc = acc + num / (one + mode.q_power(alpha * l + 1))
        v = (one + mode.q_power(1)) * acc / (one - mode.q_power(alpha)) ** n
    except ZeroDivisionError:
        raise PoleError("pole in q-Euler polynomial (a denominator vanishes at this q)") from None
    return v


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
        try:
            g = fd(1)
            # a bound on every degree the recurrence forms
            _guard_degree(g * (alpha * top * (top + 3) // 2 + top))
            nums = _numbers_ints(top, alpha)
            return [one] + [_ratfunc(e_n, nums[0], g) for e_n in nums[1:]]
        except ResourceLimitError:
            pass  # unreduced, the degrees pass the limit; the generic loop's may not
    if iv := _ints(mode):
        nums = _numbers_at(top, alpha, iv)
        return [one] + [iv.finish(e_n, nums[0]) for e_n in nums[1:]]
    q = mode.q_power(1)
    numbers = [one]
    # weighted[l] = q^(alpha l) E_l, the factor every later E_n sums over
    weighted = [one]
    for n in range(1, top + 1):
        acc = weighted[0]
        for l in range(1, n):
            acc = acc + comb(n, l) * weighted[l]
        try:
            e_n = -q * acc / (one + mode.q_power(alpha * n + 1))
        except ZeroDivisionError:
            raise PoleError(f"pole in q-Euler numbers (1 + q^{alpha * n + 1} vanishes at this q)") from None
        numbers.append(e_n)
        weighted.append(mode.q_power(alpha * n) * e_n)
    return numbers


def qeuler_poly_additive(n: int, alpha: int, x: int, mode):
    """Addition form of the q-Euler polynomial at a nonnegative integer x.

    sum_l C(n,l) q^(alpha l x) E_l * [x]^(n-l), with [x] the weight-alpha
    q-integer of x and E_l from one qeuler_numbers table.  Must agree with
    qeuler_poly at every integer x.
    """
    _check_n_alpha(n, alpha)
    if not isinstance(x, int) or x < 0:
        raise PreconditionError(f"additive form needs a nonnegative integer x, got {x}")
    if iv := _ints(mode):
        # q^alpha = a/b and [x] = g / b^x, m None at a rational q; every term is over b^(n x) N[0]
        nums, (a, b), m = _numbers_at(n, alpha, iv), iv.power(alpha), iv.m
        g, step = _geometric(a, b, x, iv.red), pow(a, x, m)
        s = sum(comb(n, l) * pow(step, l, m) * nums[l] * pow(g, n - l, m) for l in range(n + 1))
        return iv.finish(s, nums[0] * b ** (n * x))
    fd = _fixed_denominator(mode)
    if fd is not None:
        try:
            g = fd(1)
            # a bound on every degree the recurrence and the sum form
            _guard_degree(g * (alpha * n * (n + 3) // 2 + n + alpha * x * (2 * n + 1)))
            nums, bracket, acc, power = _numbers_ints(n, alpha), _stretch([1] * x, alpha), [], [1]
            for l in range(n, -1, -1):
                _axpy(acc, comb(n, l), _prod(nums[l], power), alpha * l * x)
                power = _prod(power, bracket)
            return _ratfunc(acc, nums[0], g)
        except ResourceLimitError:
            pass  # unreduced, the degrees pass the limit; the generic loop's may not
    bracket = q_int(x, alpha, mode)
    numbers = qeuler_numbers(n, alpha, mode)
    acc = mode.from_rational(0)
    # [x]^(n-l) as a running product: no power of an exact zero is formed
    power = mode.from_rational(1)
    for l in range(n, -1, -1):
        acc = acc + comb(n, l) * mode.q_power(alpha * l * x) * numbers[l] * power
        power = power * bracket
    return acc


def alternating_sum(mode, terms, weight=None):
    """sum_i (-1)^i t_i q^weight(i), each t_i a tuple of factors multiplied left to right.

    With weight None no power of q is multiplied in.  In p-adic mode the
    products and the sum run on ints (see the module docstring): an exact
    zero term is skipped, an approximate zero adds only its absolute
    precision, and q^e carries q's digits, as q ** e does.
    """
    iv = _ints(mode, capped=False) if root_mode(mode).kind == "padic" else None
    if iv is None:
        acc = mode.from_rational(0)
        for i, factors in enumerate(terms):
            t = reduce(mul, factors)
            if weight is not None:
                t = t * mode.q_power(weight(i))
            acc = acc + t if i % 2 == 0 else acc - t
        return acc
    p, q_prec = iv.p, iv.prec
    parts = []  # (valuation, signed unit or 0 for an approximate zero, absolute precision)
    for i, factors in enumerate(terms):
        v, u, r = 0, -1 if i % 2 else 1, inf
        for f in factors:
            v, u, r = v + f.val, u * f.unit, min(r, f.prec)
        if weight is not None:
            u, r = u * iv.power(weight(i))[0], min(r, q_prec)
        # an exact zero factor has infinite valuation and leaves the term out
        if v != inf:
            parts.append((v, u, v + r if u else v))
    if not parts:
        return PadicNum.zero(p)
    top = min(n for *_, n in parts)
    low = min((v for v, u, _ in parts if u), default=top)
    s = sum(u * p ** (v - low) for v, u, _ in parts if u) % p ** (top - low) if top > low else 0
    return PadicNum(p, low, s, top - low)


def residue_split(mode, count: int, step: int, corrected: bool, term):
    """(1+q^step)/(1+q^(step count)) * sum_{i<count} (-1)^i w_i term(i).

    term(i) is a tuple of factors.  The weight w_i is q^(step i) in the
    corrected reading and 1 in the printed one.  At a rational or p-adic
    q the int view finishes the ratio, one Fraction or a unit known to A
    digits as on the PadicNum path.
    """
    acc = alternating_sum(mode, map(term, range(count)), (lambda i: step * i) if corrected else None)
    if iv := _ints(mode):
        (a, b), (c, d) = iv.power(step), iv.power(step * count)
        # b != 0, and d + c is a unit at a p-adic q
        if not d + c:
            raise PoleError(f"pole in the residue split (1 + q^{step * count} vanishes at this q)")
        return iv.finish((b + a) * d, b * (d + c)) * acc
    one = mode.from_rational(1)
    return (one + mode.q_power(step)) / (one + mode.q_power(step * count)) * acc


def _check_n_alpha(n: int, alpha: int) -> None:
    if n < 0:
        raise PreconditionError(f"degree must be nonnegative, got {n}")
    if alpha < 1:
        raise PreconditionError(f"weight must be a positive integer, got {alpha}")


class _Ints:
    """q^e as an int pair (a, b), q^e = a/b, raising what the mode's q_power raises.

    Exact at q = u/v, where red leaves an int alone and m is None.  At a
    p-adic q it is (q^e mod m, 1), m = p^prec, and red reduces mod m;
    q^(a/b) is r_b^a for the root r_b = q^(1/b) the mode caches per prec
    and b.
    """

    def __init__(self, root, base: int, prec):
        if root.kind == "rational":
            u, v = root.q0.numerator, root.q0.denominator
            self.red, self.m = pos, None

            def power(e) -> tuple:
                k = root._exponent(e * base)  # u != 0 when k < 0
                return (u**k, v**k) if k >= 0 else (v**-k, u**-k)
        else:
            p, u, roots = root.cfg.p, root.q.unit, root._roots
            self.p, self.prec = p, prec
            m = self.m = p**prec
            self.red = m.__rmod__

            def power(e) -> tuple:
                # q is a 1-unit, so q^X mod p^A depends only on X mod p^A; a fractional X is num den^-1
                if type(e) is int:
                    return pow(u, base * e, m), 1
                e = Fraction(e) * base
                b = e.denominator
                if b % p == 0:
                    raise ExponentError(f"exponent {e} is not a {p}-adic integer")
                if (prec, b) not in roots:
                    roots[prec, b] = pow(u, pow(b, -1, m), m)
                return pow(roots[prec, b], e.numerator, m), 1

        self.power = power

    def finish(self, num: int, den: int, w: int = 1, n: int = 0):
        """num / (den w^n) for a unit den, as a Fraction or as the PadicNum path states it.

        That path knows num / den to A digits and w = 1 - q^alpha = p^v d
        to A, so d^n to A - v; where w is zero to A digits, its w ** 0
        gives 1 DEFAULT_PRECISION digits and any other power fails.
        """
        if self.m is None:
            return Fraction(num, den * w**n)
        p, prec, m = self.p, self.prec, self.m
        num, den, w = num % m, den % m, w % m
        if w == 0 and n:
            zero = PadicNum.approx_zero(p, n * prec)
            raise PrecisionError(f"precision exhausted: division by {zero!r}, zero at working precision")
        v = _vp(w, p) if w else 0
        # r digits before the constructor takes v_p(num) out of the unit; w = 0 only at n = 0, where 0^0 = 1
        r = min(prec, (prec - v if w else DEFAULT_PRECISION) + (_vp(num, p) if num else prec))
        return PadicNum(p, -n * v, num * pow(den * (w // p**v) ** n, -1, m if r == prec else p**r), r)


def _ints(mode, capped: bool = True):
    """The _Ints of a rational or p-adic mode, built once per root mode, base and precision; None for a symbolic mode.

    The precision is q's absolute one, capped at K where the kernel adds
    the K-digit one, so for a q known to at most K digits both are one view.
    """
    root = root_mode(mode)
    if root.kind == "symbolic":
        return None
    prec = None if root.kind == "rational" else min(root.q.abs_prec, root.cfg.prec if capped else inf)
    key = mode.base if isinstance(mode, BaseLifted) else 1, prec
    if key not in root._ints:
        root._ints[key] = _Ints(root, *key)
    return root._ints[key]


def _fixed_denominator(mode):
    """For a symbolic mode, e -> k with mode.q_power(e) = Q^k, raising what q_power raises; else None."""
    root, base = root_mode(mode), mode.base if isinstance(mode, BaseLifted) else 1
    return (lambda e: root._exponent(e * base)) if root.kind == "symbolic" else None


def _axpy(acc: list, c: int, t, shift: int) -> None:
    """acc += c Q^shift t on int lists, growing acc as needed."""
    end = shift + len(t)
    acc.extend([0] * (end - len(acc)))
    acc[shift:end] = [a + c * b for a, b in zip(acc[shift:end], t)]


def _quo_binomial(a: list, k: int):
    """a / (1 + Q^k) by q_i = a_i - q_(i-k), or None when 1 + Q^k does not divide a."""
    n = len(a) - k
    q = a[:n]
    for i in range(k, n):
        q[i] -= q[i - k]
    # the top k coefficients are the remainder's: a_j = q_(j-k) there
    return q if n > 0 and ([0] * k + q)[n:] == a[n:] else None


def _times_binomial(a: list, k: int) -> list:
    """a (1 + Q^k) by c_(i+k) += a_i, the inverse of _quo_binomial."""
    c = a + [0] * k
    c[k:] = map(add, c[k:], a)
    return c


def _closed_form_ints(n: int, alpha: int, x, fd, table: dict) -> RatFunc:
    """qeuler_poly over P (1 - q^alpha)^n with P = prod_l (1 + q^(alpha l + 1)).

    In Q^g, 1 + q^(alpha l + 1) is 1 + Q^(b + l a) with a = fd(alpha)/g
    and b = fd(1)/g, so the quotients P / (1 + Q^(b + l a)) and
    P (1 - Q^a)^n depend on (n, a, b) alone; table keeps them per key.
    Only the shifts q^(alpha l x) depend on x.
    """
    tops, bots = [], []
    for l in range(n + 1):
        # the generic loop's powers of q in its order, so that the same one fails first
        tops.append(fd(alpha * l * x) if x else 0)
        bots.append(fd(alpha * l + 1))
    a, shift = fd(alpha), -min(tops)
    # a bound on every degree formed below
    _guard_degree(shift + max(tops) + sum(bots) + max(n * a, bots[0]))
    # every power of q here is one of Q^g
    g = gcd(a, *tops, *bots)
    a, b, shift, acc = a // g, bots[0] // g, shift // g, []
    if (n, a, b) not in table:
        prod = [1]
        for k in bots:
            prod = _times_binomial(prod, k // g)
        power = _stretch([(-1) ** k * comb(n, k) for k in range(n + 1)], a)
        table[n, a, b] = [_quo_binomial(prod, k // g) for k in bots], _prod(prod, power)
    quotients, den = table[n, a, b]
    for l, (t, quo) in enumerate(zip(tops, quotients)):
        # a negative power of q in a numerator moves into the denominator
        _axpy(acc, (-1) ** l * comb(n, l), quo, t // g + shift)
    # the factor 1 + q is 1 + q^(alpha 0 + 1); the lists in the table are copied, never changed
    return _ratfunc(_times_binomial(acc, b), [0] * shift + den, g)


def _numbers_ints(top: int, alpha: int) -> list:
    """N with E_l = N[l] / N[0] for l <= top, N[0] = prod_{1<=j<=top} (1 + q^(alpha j + 1)), at q = Q."""
    nums = [[1]]
    for n in range(1, top + 1):
        nums[0] = _times_binomial(nums[0], alpha * n + 1)
    for n in range(1, top + 1):
        acc = []
        for l in range(n):
            _axpy(acc, comb(n, l), nums[l], alpha * l)
        # exact: N[0] / (1 + q^(alpha n + 1)) is a multiple of every E_l with l < n
        nums.append([0] + [-c for c in _quo_binomial(acc, alpha * n + 1)])
    return nums


def _ratfunc(num: list, den: list, g: int) -> RatFunc:
    """num / den with Q^g in place of Q, for int lists num and den; reduced when read."""
    return RatFunc(_poly(_stretch(num, g), 1), _poly(_stretch(den, g), 1))


def _geometric(a: int, b: int, x: int, red) -> int:
    """g with 1 + r + ... + r^(x-1) = g / b^x for r = a/b."""
    g, t = 0, 1
    for _ in range(x):
        t *= b
        g = red(g * a + t)
    return g


def _closed_form_at(n: int, alpha: int, x, iv):
    """qeuler_poly's generic loop on ints over one denominator, q^(alpha l x) = s/t and q^(alpha l + 1) = d/e."""
    power, red = iv.power, iv.red
    (c, w), (a, b) = power(1), power(alpha)
    # a vanishing 1 + q^(alpha l + 1) zeroes den, so the finish divides by zero; as in the generic loop,
    # 1 + q = 0 at l = 0 is that pole before q^(alpha x) can fail, and n = 0 forms no q^(alpha x)
    sa, sb = power(alpha * x) if n and x and c != -w else (1, 1)
    num, den, s, t, d, e = 0, 1, 1, 1, c, w
    for l in range(n + 1):
        f = t * (e + d)
        num, den = red(num * f + (-1) ** l * comb(n, l) * s * e * den), red(den * f)
        s, t, d, e = red(s * sa), t * sb, red(d * a), e * b
    return iv.finish(num * (w + c) * b**n, den * w, b - a, n)


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
        acc = -c * sum(comb(n, l) * weighted[l] for l in range(n))
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
