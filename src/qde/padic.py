"""Capped-precision p-adic arithmetic for odd primes.

A nonzero value is stored as ``unit * p^val + O(p^(val+prec))`` with the
unit coprime to p and reduced mod p^prec, so ``prec`` counts significant
p-adic digits.  Zero comes in two flavors: the exact zero (infinite
valuation) and an approximate zero O(p^N) left over when a sum cancels
to the working precision.  Addition caps the result at the smaller
absolute precision of the operands and division keeps the smaller
relative precision, so the precision field of any result is an honest
claim, never an optimistic one.

On top of the ring operations the module provides the Teichmuller
character, exponentiation q^x for a p-adic integer exponent, and the
unit-normalized bracket built from both.  The Teichmuller lift and the
root of order b behind a fractional exponent a/b are Newton (Hensel)
lifts (_root): about log2 K steps, each a few products no wider than
p^K.  An integer power, and the root's power a, is one builtin modular
pow to a small exponent.  Only a p-adic exponent, which has no small
denominator, takes one modular pow to an exponent of about K log2 p
bits.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf, isqrt

from .errors import ConvergenceError, PrecisionError, PreconditionError
from .exact import Frozen

DEFAULT_PRECISION = 32


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    top = isqrt(n)
    while f <= top:
        if n % f == 0:
            return False
        f += 2
    return True


def require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise PreconditionError(f"p must be an odd prime, got {p}")


def _require_precision(prec: int) -> None:
    if prec < 1:
        raise PreconditionError(f"precision must be >= 1, got {prec}")


def _one_unit(q: "PadicNum", p: int) -> bool:
    """v_p(1 - q) >= 1: q is a unit = 1 mod p; a zero of either kind is not one, O(p^0) included."""
    return q.val == 0 and q.unit % p == 1


def _vp(n: int, p: int) -> int:
    """Valuation of a nonzero integer; ValueError for 0."""
    if not n:
        raise ValueError("the valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(x, p: int):
    """v_p of an exact Fraction or int; inf for zero."""
    if p < 2:  # _vp(n, 1) and _vp(n, -1) never return
        raise PreconditionError(f"p must be at least 2, got {p}")
    x = Fraction(x)
    if x == 0:
        return inf
    return _vp(x.numerator, p) - _vp(x.denominator, p)


@dataclass(frozen=True)
class PadicConfig:
    """Prime and default working precision (significant p-digits)."""

    p: int
    prec: int = DEFAULT_PRECISION

    def __post_init__(self):
        require_odd_prime(self.p)
        _require_precision(self.prec)


class PadicNum(Frozen):
    """One p-adic number at a tracked precision.

    The constructor normalizes: the unit is reduced mod p^prec, any
    p-power left in it migrates into the valuation, and a unit that
    vanishes entirely collapses to the approximate zero O(p^(val+prec)).
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val, unit: int, prec: int):
        if unit == 0:
            if val is not inf:
                # approximate zero: all we know is the value is O(p^(val+prec))
                val = val + prec
            prec = 0
        else:
            _require_precision(prec)
            unit %= p**prec
            if unit == 0:
                val, prec = val + prec, 0
            else:
                g = _vp(unit, p)
                if g:
                    val += g
                    prec -= g
                    unit = (unit // p**g) % p**prec
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "prec", prec)

    @classmethod
    def _unit(cls, p: int, val: int, unit: int, prec: int) -> "PadicNum":
        """A nonzero value from a unit already coprime to p and reduced mod p^prec.

        Products, quotients and powers of units are units, so they skip
        the constructor's normalization.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "prec", prec)
        return self

    @classmethod
    def _exact(cls, p: int, num: int, den: int, prec: int) -> "PadicNum":
        """The nonzero exact ratio num/den to prec >= 1 digits."""
        vn = _vp(num, p)
        vd = _vp(den, p)
        m = p**prec
        return cls._unit(p, vn - vd, num // p**vn * pow(den // p**vd, -1, m) % m, prec)

    @classmethod
    def zero(cls, p: int) -> "PadicNum":
        return cls(p, inf, 0, 0)

    @classmethod
    def approx_zero(cls, p: int, n: int) -> "PadicNum":
        """The value O(p^n): indistinguishable from zero at this precision."""
        return cls(p, n, 0, 0)

    @classmethod
    def from_rational(cls, x, p: int, prec: int = DEFAULT_PRECISION) -> "PadicNum":
        if p < 2:
            raise PreconditionError(f"p must be at least 2, got {p}")
        x = Fraction(x)
        if x == 0:
            return cls.zero(p)
        _require_precision(prec)
        return cls._exact(p, x.numerator, x.denominator, prec)

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.val is inf

    @property
    def is_zero(self) -> bool:
        """True when the value cannot be told apart from zero."""
        return self.unit == 0

    @property
    def valuation(self):
        """v_p of the value; inf for exact zero.

        For an approximate zero this is a lower bound: the true
        valuation is at least this large.
        """
        return self.val

    @property
    def abs_prec(self):
        """The value is known modulo p^abs_prec."""
        if self.unit == 0:
            return self.val
        return self.val + self.prec

    def lift(self, n: int) -> int:
        """Integer representative of the value mod p^n; needs abs_prec >= n."""
        if self.abs_prec < n:
            raise PreconditionError(f"value only known mod {self.p}^{self.abs_prec}, asked mod {self.p}^{n}")
        if self.unit == 0 or self.val >= n:
            return 0
        if self.val < 0:
            raise PreconditionError("negative valuation has no integer lift")
        return self.unit * self.p**self.val % self.p**n

    def _check_same_prime(self, other: "PadicNum") -> None:
        if self.p != other.p:
            raise PreconditionError(f"mixed primes {self.p} and {other.p}")

    def _coerce(self, other):
        """other as a PadicNum; an exact int or Fraction c gets

            max(prec, A - v_p(c) + 2, 1)

        digits, A being this value's absolute precision, or
        DEFAULT_PRECISION when this is the exact zero.  That is at least
        this value's own relative precision and reaches two digits past
        its absolute precision, so c caps neither a product or quotient
        nor a sum.  Zero coerces to the exact zero.
        """
        if isinstance(other, PadicNum):
            return other
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        num, den = other.numerator, other.denominator
        p = self.p
        if num == 0:
            return PadicNum.zero(p)
        top = DEFAULT_PRECISION if self.val is inf else self.abs_prec
        prec = max(self.prec, top - _vp(num, p) + _vp(den, p) + 2, 1)
        return PadicNum._exact(p, num, den, prec)

    def __add__(self, other):
        if not isinstance(other, PadicNum):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        self._check_same_prime(other)
        if self.is_exact_zero:
            return other
        if other.is_exact_zero:
            return self
        # align both on the smaller valuation and add the scaled units
        n = min(self.abs_prec, other.abs_prec)
        m = min(self.val, other.val)
        width = n - m
        if width <= 0:
            return PadicNum.approx_zero(self.p, n)
        a = 0 if self.unit == 0 else self.unit * self.p ** (self.val - m)
        b = 0 if other.unit == 0 else other.unit * other.p ** (other.val - m)
        # a sum that cancels to width digits is the constructor's O(p^n)
        return PadicNum(self.p, m, (a + b) % self.p**width, width)

    __radd__ = __add__

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicNum._unit(self.p, self.val, -self.unit % self.p**self.prec, self.prec)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, PadicNum):
            other = self._coerce(other)
            if other is NotImplemented:
                return other
        self._check_same_prime(other)
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNum.zero(self.p)
        if self.unit == 0 or other.unit == 0:
            return PadicNum.approx_zero(self.p, self.val + other.val)
        prec = min(self.prec, other.prec)
        return PadicNum._unit(self.p, self.val + other.val, self.unit * other.unit % self.p**prec, prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        self._check_same_prime(other)
        if other.is_exact_zero:
            raise ZeroDivisionError("division by a p-adic zero")
        if other.unit == 0:
            raise PrecisionError(f"precision exhausted: division by {other!r}, zero at working precision")
        if self.is_exact_zero:
            return self
        if self.unit == 0:
            return PadicNum.approx_zero(self.p, self.val - other.val)
        prec = min(self.prec, other.prec)
        m = self.p**prec
        return PadicNum._unit(self.p, self.val - other.val, self.unit * pow(other.unit, -1, m) % m, prec)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, e: int):
        if e == 0:
            # 0^0 = 1 by the empty-product convention callers rely on
            return PadicNum(self.p, 0, 1, self.prec if self.unit else DEFAULT_PRECISION)
        if self.unit == 0:
            if e > 0:
                return self if self.is_exact_zero else PadicNum.approx_zero(self.p, e * self.val)
            if self.is_exact_zero:
                raise ZeroDivisionError("negative power of a p-adic zero")
            raise PrecisionError(f"precision exhausted: negative power of {self!r}, zero at working precision")
        # a negative e makes pow invert the unit mod p^prec
        return PadicNum._unit(self.p, e * self.val, pow(self.unit, e, self.p**self.prec), self.prec)

    def __eq__(self, other):
        if not isinstance(other, PadicNum):
            return NotImplemented
        return (self.p, self.val, self.unit, self.prec) == (other.p, other.val, other.unit, other.prec)

    def __hash__(self):
        return hash((self.p, self.val, self.unit, self.prec))

    def to_json(self) -> dict:
        digits = []
        u = self.unit
        # the unit is below p^prec: its base-p digits end by prec, the rest are 0
        while u:
            u, d = divmod(u, self.p)
            digits.append(d)
        digits += [0] * (self.prec - len(digits))
        return {
            "p": self.p,
            "valuation": None if self.val is inf else self.val,
            "digits": digits,
            "precision": self.prec,
        }

    def __repr__(self):
        if self.is_exact_zero:
            return f"PadicNum(0, p={self.p})"
        if self.unit == 0:
            return f"PadicNum(O({self.p}^{self.val}))"
        return f"PadicNum({self.unit}*{self.p}^{self.val} + O({self.p}^{self.abs_prec}))"


def agreement_valuation(x: PadicNum, y: PadicNum):
    """v_p(x - y), capped at the joint working precision; inf if exactly equal."""
    return (x - y).valuation


def _root(u: int, b: int, r: int, p: int, n: int) -> int:
    """The root x = r mod p of x^b = u mod p^n, for b prime to p and r a unit below p with r^b = u mod p.

    The derivative b x^(b-1) is then a unit, so the root is unique and
    Newton's step x -> x - (x^b - u) s, s = 1 / (b x^(b-1)), doubles the
    digits known (Hensel's lemma).  s takes its own Newton step s -> s (2
    - b x^(b-1) s), so no inverse is formed past the first digit, and n
    digits take about log2 n steps.
    """
    steps = []
    while n > 1:
        steps.append(n)
        n = (n + 1) // 2
    s = pow(b * pow(r, b - 1, p), -1, p)
    for k in reversed(steps):
        m = p**k
        y = pow(r, b - 1, m)
        s = s * (2 - b * y * s) % m
        r = (r - (y * r - u) * s) % m
    return r


def teichmuller(a: int, cfg: PadicConfig) -> PadicNum:
    """The (p-1)-th root of unity congruent to a mod p.

    It is the root of w^(p-1) = 1 that is a mod p, lifted to K digits
    by Newton steps (_root).
    """
    p = cfg.p
    if a % p == 0:
        raise PreconditionError(f"{a} is not a unit mod {p}")
    return PadicNum(p, 0, _root(1, p - 1, a % p, p, cfg.prec), cfg.prec)


def teichmuller_inverse(a: int, cfg: PadicConfig) -> PadicNum:
    # a non-unit goes through unchanged so teichmuller rejects it
    return teichmuller(pow(a, -1, cfg.p) if a % cfg.p else a, cfg)


def _one_unit_pow(b: PadicNum, x, cfg: PadicConfig) -> PadicNum:
    """b^x for a 1-unit b = 1 + t, v_p(t) >= 1, and a p-adic integer x.

    x -> b^x is continuous on Z_p because b^(p^M) = 1 mod p^(M + v_p(t)),
    so b^x = b^X mod p^N for any integer X = x mod p^N.  N is the
    absolute precision the binomial series sum C(x,j) t^j claims, which
    its j = 1 term sets:

        N = min(K, abs_prec(t) + v_p(x), v_p(t) + abs_prec(x)),

    with abs_prec(x) infinite for an exact int or Fraction.  An exact
    x = a/c is r^a for the 1-unit root r of r^c = b mod p^N (_root),
    since y -> y^c is one-to-one on the 1-units, so the only power has
    the small exponent a.  A PadicNum x has no small denominator and
    stays one modular power to an X below p^N.
    """
    p = cfg.p
    t = b - 1
    if t.val < 1:
        raise ConvergenceError(f"series needs v_{p}(base - 1) >= 1, got {t.val}")
    if isinstance(x, (int, Fraction)):
        if x.denominator % p == 0:
            raise PreconditionError(f"exponent {x} is not a {p}-adic integer")
        n = min(cfg.prec, t.abs_prec + rational_valuation(x, p))
        r, e = _root(b.unit, x.denominator, 1, p, n), x.numerator
    elif isinstance(x, PadicNum):
        if x.val is not inf and x.val < 0:
            raise PreconditionError("exponent must have nonnegative valuation")
        n = min(cfg.prec, t.abs_prec + x.val, t.val + x.abs_prec)
        r, e = b.unit, x.lift(min(n, x.abs_prec))
    else:
        raise TypeError(f"unsupported exponent type {type(x).__name__}")
    return PadicNum(p, 0, pow(r, e, p**n), n)


def q_pow(b: PadicNum, x, cfg: PadicConfig) -> PadicNum:
    """b^x for a p-adic unit b.

    An integer x (an int, or a Fraction with denominator 1) is a plain
    power.  Any other x needs v_p(b - 1) >= 1 and x a p-adic integer,
    and is _one_unit_pow's value at the precision N it states: a root
    lifted by Newton steps and raised to x's numerator for an exact x,
    one full-width modular power for a PadicNum x.
    """
    if isinstance(x, (int, Fraction)) and x.denominator == 1:
        return b ** int(x)
    return _one_unit_pow(b, x, cfg)


def normalized_bracket(x: int, q: PadicNum, alpha: int, cfg: PadicConfig) -> PadicNum:
    """The unit part of the q-integer of x at base q^alpha.

    Divides (1 - q^(alpha*x))/(1 - q^alpha) by the Teichmuller lift of
    x, landing in 1 + pZ_p, which makes it a legal base for q_pow at
    any p-adic integer exponent.
    """
    if x < 1:
        raise PreconditionError(f"x must be a positive integer, got {x}")
    if x % cfg.p == 0:
        raise PreconditionError(f"{x} is not a unit mod {cfg.p}")
    if alpha < 1:
        raise PreconditionError(f"alpha must be positive, got {alpha}")
    if not _one_unit(q, cfg.p):
        raise ConvergenceError(f"normalized_bracket needs v_{cfg.p}(1 - q) >= 1")
    one = PadicNum.from_rational(1, cfg.p, cfg.prec)
    num = one - q ** (alpha * x)
    den = one - q**alpha
    return teichmuller_inverse(x, cfg) * (num / den)
