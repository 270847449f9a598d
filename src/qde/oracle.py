"""Definition-level Riemann sums against the alternating measure.

Every closed form in the package can be cross-checked here: a level-n
sum adds f(a) times the measure of a + p^n Z_p over all residues
a < p^n, nothing more.  No closed forms are used on this side, so
agreement with the qeuler module is evidence rather than circularity.
In symbolic mode a q-power level sum is one polynomial, summed on ints;
at a rational q level sums are int sums that still add every residue.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .errors import PoleError, PreconditionError, ResourceLimitError
from .exact import as_int
from .padic import PadicNum, rational_valuation
from .qeuler import BaseLifted, QEulerValue, _fixed_denominator, _geometric, _ints, measure, qeuler_poly
from .qeuler import resolve_prime, root_mode
from .ratfunc import RatFunc, _guard_degree, _poly

LEVEL_GUARD = 10**6

KINDS = ("bracket_power", "q_power")


@dataclass(frozen=True)
class IntegrandSpec:
    """One integrand: a bracket power [x+xi]^n or a power q^(e xi).

    base_exponent lifts everything to the variable q^l, measure
    included.  The constant integrand is q_power with e = 0 (or a
    bracket power with n = 0, same thing).
    """

    kind: str
    n: int = 0
    alpha: int = 1
    x: Fraction = Fraction(0)
    e: int = 0
    base_exponent: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PreconditionError(f"unknown integrand kind {self.kind!r}")
        if self.n < 0 or self.alpha < 1 or self.base_exponent < 1:
            raise PreconditionError(
                f"need n >= 0, alpha >= 1, l >= 1, got n={self.n} alpha={self.alpha} l={self.base_exponent}"
            )
        object.__setattr__(self, "x", Fraction(self.x))

    @classmethod
    def bracket_power(cls, n: int, alpha: int = 1, x=0, l: int = 1) -> "IntegrandSpec":
        return cls(kind="bracket_power", n=n, alpha=alpha, x=Fraction(x), base_exponent=l)

    @classmethod
    def q_power(cls, e: int, l: int = 1) -> "IntegrandSpec":
        return cls(kind="q_power", e=e, base_exponent=l)

    def describe(self) -> dict:
        if self.kind == "q_power":
            return {"kind": self.kind, "e": self.e, "l": self.base_exponent}
        return {
            "kind": self.kind, "n": self.n, "alpha": self.alpha,
            "x": str(self.x), "l": self.base_exponent,
        }


def _integrand(f: IntegrandSpec, lifted):
    """a -> f(a) at the integer point xi = a, in the lifted mode."""
    if f.kind == "q_power":
        return lambda a: lifted.q_power(f.e * a)
    one = lifted.from_rational(1)
    if f.n == 0:
        return lambda a: one
    # an integral x keeps the exponents below ints
    x = as_int(f.x)
    den = one - lifted.q_power(f.alpha)
    if den != 0:
        return lambda a: ((one - lifted.q_power(f.alpha * (x + a))) / den) ** f.n
    return lambda a: _bracket_at_root(lifted.q_power(f.alpha * (x + a)), x + a, f.n, lifted)


def _bracket_at_root(t, y, n: int, mode):
    """[y]^n where q^alpha = 1 and t = q^(alpha y).

    [y] = (1 - t)/(1 - q^alpha) tends to y t, so it is y where t = 1, as
    at every integer y, and a pole where t != 1.
    """
    if t != 1:
        raise PoleError(f"[{y}] has a pole at this q (q^alpha = 1 but q^(alpha y) = {t})")
    return mode.from_rational(y) ** n


def _check_levels(levels, p: int) -> None:
    """Reject a bad level before any residue is summed."""
    for n in levels:
        if n < 1:
            raise PreconditionError(f"level must be >= 1, got {n}")
        if p**n > LEVEL_GUARD:
            raise ResourceLimitError(f"p^level = {p**n} exceeds the guardrail {LEVEL_GUARD}")


def _level_sums(f: IntegrandSpec, levels, mode, p: int):
    """Yield (n, level-n sum) for each distinct n in levels, in increasing order.

    One pass over the residues a < p^max(levels) keeps the running sum
    of (-1)^a q^a f(a); the level-n sum is that total at a = p^n times
    the measure of p^n Z_p, since the mass of a + p^n Z_p is (-q)^a
    times the mass of the disc at 0.  Each level divides once, and the
    residues below p^n are summed once for all levels.  In symbolic mode,
    q^(e xi) with 1 + e >= 0 sums (-1)^a Q^(k a (1 + e)) on one int list.
    """
    lifted = BaseLifted(mode, f.base_exponent)
    value = _integrand(f, lifted)
    fd = _fixed_denominator(lifted) if f.kind == "q_power" and f.e >= -1 else None
    iv = _ints(lifted) if root_mode(mode).kind == "rational" else None
    ints = iv and _rational_terms(f, iv)
    total, acc, h = mode.from_rational(0), [], 0
    start = 0
    for n in sorted(set(levels)):
        end = p**n
        if ints is not None:
            c, w, terms = ints
            for _ in range(start, end):
                h = h * w + next(terms)
            total = Fraction(h, c * w ** (end - 1))
        elif fd is None:
            for a in range(start, end):
                term = lifted.q_power(a) * value(a)
                total = total + term if a % 2 == 0 else total - term
        else:
            for a in range(start, end):
                # q^a, q^(e a), then their product, as the generic loop forms them
                s = fd(a) + fd(f.e * a)
                _guard_degree(s)
                acc.extend([0] * (s + 1 - len(acc)))
                acc[s] += -1 if a % 2 else 1
            total = RatFunc.from_poly(_poly(list(acc), 1))
        start = end
        yield n, total * measure(0, n, lifted, p).value


def _rational_terms(f: IntegrandSpec, iv):
    """(c, w, t) for iv from _ints at a rational q: sum_{a<N} (-1)^a q^a f(a) = sum_{a<N} t_a w^(N-1-a) / (c w^(N-1))."""
    power = iv.power
    if f.kind == "bracket_power" and (f.x.denominator != 1 or f.x < 0):
        return None  # q^(alpha (x + a)) may fail for such an x: the generic loop runs
    if f.kind == "q_power":
        # q^a q^(e a) = q^((1 + e) a), but q^(e a) at a = 1 is the power that can fail; n = 0 leaves (r, d) unused
        power(f.e)
        (s, w), n, x, (r, d) = power(1 + f.e), 0, 0, (0, 1)
    else:
        (s, w), n, x, (r, d) = power(1), f.n, f.x.numerator, power(f.alpha)
        if n and r == d:
            return None  # the generic loop divides by 1 - q^alpha = 0

    def terms():
        # the ints t_a: (-s)^a and [x + a] = g / d^(x + a) with q^alpha = r/d, p = r^(x + a)
        t, g, p = 1, _geometric(r, d, x, iv.red), r**x
        while True:
            yield t * g**n
            t, g, p = -t * s, (g + p) * d, p * r

    return d ** (n * x), w * d**n, terms()


def riemann_level(f: IntegrandSpec, level: int, mode, p: int = None) -> QEulerValue:
    """The exact finite sum of f against the measure over all residues a < p^level.

    The sum comes from _level_sums, the residue loop convergence_profile
    reads its levels from as well.
    """
    p = resolve_prime(mode, p)
    _check_levels([level], p)
    ((_, total),) = _level_sums(f, [level], mode, p)
    return QEulerValue(root_mode(mode).kind, total)


def closed_form(f: IntegrandSpec, mode):
    """The limit the level sums approach, from the closed-form module."""
    lifted = BaseLifted(mode, f.base_exponent)
    if f.kind == "q_power":
        one = lifted.from_rational(1)
        try:
            v = (one + lifted.q_power(1)) / (one + lifted.q_power(f.e + 1))
        except ZeroDivisionError:
            raise PoleError("closed form undefined at this q (a denominator vanishes)") from None
        return v
    return qeuler_poly(f.n, f.alpha, f.x, lifted)


def _difference_valuation(diff, p: int):
    """v_p of a level difference, a PadicNum or a Fraction; None when exactly zero."""
    v = diff.valuation if isinstance(diff, PadicNum) else rational_valuation(diff, p)
    return None if v is inf else int(v)


def convergence_profile(f: IntegrandSpec, levels, mode, p: int = None) -> list:
    """JSON-ready [{level, valuation}] against the closed form, in the order given.

    valuation is None where the level sum hits the limit exactly (the
    constant integrand does at every level).  Every level is checked
    before any work, and all of them come from one pass over the
    p^max(levels) residues, so a profile of levels 1..L sums p^L terms
    rather than p + p^2 + ... + p^L.
    """
    p = resolve_prime(mode, p)
    if root_mode(mode).kind not in ("rational", "padic"):
        raise PreconditionError("convergence profiles need p-adic or rational coefficients")
    levels = [int(n) for n in levels]
    _check_levels(levels, p)
    limit = closed_form(f, mode)
    sums = dict(_level_sums(f, levels, mode, p))
    return [{"level": n, "valuation": _difference_valuation(sums[n] - limit, p)} for n in levels]
