"""Definition-level Riemann sums against the alternating measure.

Every closed form in the package can be cross-checked here: a level-n
sum adds f(a) times the measure of a + p^n Z_p over all residues
a < p^n, nothing more.  No closed forms are used on this side, so
agreement with the qeuler module is evidence rather than circularity.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .errors import PreconditionError, ResourceLimitError
from .padic import PadicNum, rational_valuation
from .qeuler import BaseLifted, QEulerValue, measure, qeuler_poly, resolve_prime, root_mode

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


def _evaluate(f: IntegrandSpec, a: int, lifted) -> object:
    """f at the integer point xi = a, in the lifted mode."""
    if f.kind == "q_power":
        return lifted.q_power(f.e * a)
    one = lifted.from_rational(1)
    if f.n == 0:
        return one
    num = one - lifted.q_power(f.alpha * (f.x + a))
    den = one - lifted.q_power(f.alpha)
    return (num / den) ** f.n


def riemann_level(f: IntegrandSpec, level: int, mode, p: int = None) -> QEulerValue:
    """The exact finite sum over all residues at one level."""
    p = resolve_prime(mode, p)
    if level < 1:
        raise PreconditionError(f"level must be >= 1, got {level}")
    count = p**level
    if count > LEVEL_GUARD:
        raise ResourceLimitError(f"p^level = {count} exceeds the guardrail {LEVEL_GUARD}")
    lifted = BaseLifted(mode, f.base_exponent)
    # the mass of a + p^n Z_p is (-q)^a times that of p^n Z_p, so the
    # level sum divides once, by way of the measure of the disc at 0
    total = mode.from_rational(0)
    for a in range(count):
        term = lifted.q_power(a) * _evaluate(f, a, lifted)
        total = total + term if a % 2 == 0 else total - term
    return QEulerValue(root_mode(mode).kind, total * measure(0, level, lifted, p).value)


def closed_form(f: IntegrandSpec, mode) -> QEulerValue:
    """The limit the level sums approach, from the closed-form module."""
    lifted = BaseLifted(mode, f.base_exponent)
    if f.kind == "q_power":
        one = lifted.from_rational(1)
        v = (one + lifted.q_power(1)) / (one + lifted.q_power(f.e + 1))
        return QEulerValue(root_mode(mode).kind, v)
    return qeuler_poly(f.n, f.alpha, f.x, lifted)


def _difference_valuation(diff, p: int):
    """v_p of a level difference; None when exactly zero."""
    if isinstance(diff, PadicNum):
        if diff.is_exact_zero:
            return None
        return int(diff.valuation)
    if isinstance(diff, Fraction):
        v = rational_valuation(diff, p)
        return None if v is inf else int(v)
    raise PreconditionError("convergence profiles need p-adic or rational coefficients")


def convergence_profile(f: IntegrandSpec, levels, mode, p: int = None) -> list:
    """JSON-ready [{level, valuation}] against the closed form.

    valuation is None where the level sum hits the limit exactly (the
    constant integrand does at every level).
    """
    p = resolve_prime(mode, p)
    levels = [int(n) for n in levels]
    for n in levels:
        # guard the whole profile up front, not level by level
        if p**n > LEVEL_GUARD:
            raise ResourceLimitError(f"p^level = {p**n} exceeds the guardrail {LEVEL_GUARD}")
    limit = closed_form(f, mode).value
    out = []
    for n in levels:
        diff = riemann_level(f, n, mode, p).value - limit
        out.append({"level": int(n), "valuation": _difference_valuation(diff, p)})
    return out
