"""Exact scalar arithmetic used everywhere else in the package.

Integers are plain ``int``; rationals are ``fractions.Fraction``, which
already enforces the canonical form (reduced, positive denominator) on
construction.  The helpers below add the floor split and the one string
format the rest of the package relies on.
"""

from fractions import Fraction


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
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the ``num/den`` literal format accepted by the command line."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal: {text!r}") from exc
