from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwell.rationals import dist_nearest_int, format_rational, parse_rational


def test_dist_nearest_int_examples():
    assert dist_nearest_int(Fraction(13, 6)) == Fraction(1, 6)
    assert dist_nearest_int(Fraction(1, 2)) == Fraction(1, 2)
    assert dist_nearest_int(Fraction(11, 10)) == Fraction(1, 10)


@given(
    st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
    st.integers(min_value=-1000, max_value=1000),
)
def test_dist_nearest_int_properties(x, k):
    d = dist_nearest_int(x)
    assert 0 <= d <= Fraction(1, 2)
    assert dist_nearest_int(x + k) == d
    assert dist_nearest_int(-x) == d
    assert dist_nearest_int(1 - x) == d


def test_parse_and_format_round_trip():
    assert parse_rational("2/15") == Fraction(2, 15)
    assert parse_rational("10.7") == Fraction(107, 10)
    assert parse_rational("3") == Fraction(3)
    assert format_rational(Fraction(2, 15)) == "2/15"
    assert format_rational(Fraction(0)) == "0/1"
    with pytest.raises(ValueError):
        parse_rational("x/y")
    # values whose float() overflows are refused; tiny ones are kept exactly
    for text in ("1e400", "-1e400", "10" * 200 + "/3"):
        with pytest.raises(ValueError, match="too large for a float"):
            parse_rational(text)
    assert parse_rational("1e-400") == Fraction(1, 10**400)
