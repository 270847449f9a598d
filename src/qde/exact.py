"""Exact scalar arithmetic used everywhere else in the package.

Integers are plain ``int``; rationals are ``fractions.Fraction``, which
already enforces the canonical form (reduced, positive denominator) on
construction.  The helpers below add the floor split, the one string
format the rest of the package relies on, the int view of an integral
rational, an exact value taken as it is (no copy of an int or a
Fraction), and the one base of the immutable value types.
"""

from fractions import Fraction


class Frozen:
    """A value that refuses attribute writes; a subclass sets its __slots__ with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


def as_rational(x):
    """x itself when it is an int or a Fraction, else Fraction(x): no copy of a value already exact."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


def as_int(x):
    """An int or an integral Fraction as an int, any other Fraction as it is, so exponents stay ints where they can."""
    return x.numerator if x.denominator == 1 else x


def frac_floor_parts(x: Fraction) -> tuple[int, Fraction]:
    """Split x into (floor, fractional part) with 0 <= frac < 1.

    The floor is the mathematical one (toward minus infinity), so the
    fractional part is nonnegative also for negative inputs.
    """
    x = Fraction(x)
    fl = x.numerator // x.denominator
    return fl, x - fl


def format_rational(x: Fraction) -> str:
    """Render ``num/den`` in base 10, omitting ``/den`` when it is 1."""
    x = as_rational(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the ``num/den`` literal format accepted by the command line; a run of ASCII digits is read by int()."""
    literal = text.strip()
    if literal.isascii() and literal.isdigit():
        return Fraction(int(literal))
    try:
        return Fraction(literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal: {text!r}") from exc
