from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qde.exact import format_rational, frac_floor_parts, parse_rational
from qde.padic import PadicConfig, PadicNum
from qde.qeuler import BaseLifted, PadicMode, RationalMode, SymbolicMode
from qde.ratfunc import Poly, RatFunc

rationals = st.fractions(max_denominator=1000)


def test_floor_parts_fixtures():
    assert frac_floor_parts(Fraction(7, 3)) == (2, Fraction(1, 3))
    assert frac_floor_parts(Fraction(-7, 3)) == (-3, Fraction(2, 3))
    assert frac_floor_parts(Fraction(5)) == (5, Fraction(0))
    assert frac_floor_parts(Fraction(-1, 2)) == (-1, Fraction(1, 2))


@given(rationals)
def test_floor_parts_recompose(x):
    fl, fr = frac_floor_parts(x)
    assert isinstance(fl, int)
    assert fl + fr == x
    assert 0 <= fr < 1


def test_format_fixtures():
    assert format_rational(Fraction(-1, 6)) == "-1/6"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(0)) == "0"


@given(rationals)
def test_format_parse_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@given(st.one_of(st.text(alphabet="0123456789+-/_. ٣１"), st.text()))
@example("٣")
@example("１２")
@example(" 007 ")
@example("²")
def test_parse_reads_what_fraction_reads(text):
    # the ASCII-digit fast path and the Fraction path give one value, and fail at the same texts
    try:
        want = Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError, match="^invalid rational literal: "):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert type(got) is Fraction and got == want


@given(st.one_of(st.integers(), rationals))
@example(True)
@example(0.5)
@example("-3/6")
def test_format_takes_an_exact_value_as_it_is(x):
    # an int or a Fraction is read as it is, any other type through Fraction()
    assert format_rational(x) == format_rational(Fraction(x))


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_rational("spam")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize("value,existing", [
    (RationalMode(2), "q0"),
    (SymbolicMode(3), "scale"),
    (PadicMode(PadicNum.from_rational(4, 3, 8), PadicConfig(3, 8)), "q"),
    (BaseLifted(RationalMode(2), 3), "base"),
    (PadicNum.from_rational(4, 3, 8), "unit"),
    (Poly([1, 2]), "_num"),
    (RatFunc(Poly([1]), Poly([1, 1])), "_n"),
])
def test_values_refuse_attribute_writes(value, existing):
    for name in (existing, "fresh"):
        with pytest.raises(AttributeError, match=rf"^{type(value).__name__} is immutable$"):
            setattr(value, name, 0)
