import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwell.rationals import (
    dist_nearest_int,
    format_rational,
    mod_inverse,
    parse_rational,
)


def brute_force_inverse(a, q):
    for v in range(1, q):
        if (a * v) % q == 1:
            return v
    raise AssertionError(f"no inverse of {a} mod {q}")


def test_mod_inverse_examples():
    assert mod_inverse(3, 7) == 5
    for q in (2, 5, 9, 101):
        assert mod_inverse(1, q) == 1


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=3, max_value=499))
def test_mod_inverse_of_four_a_matches_brute_force(a, q):
    if q % 2 == 0:
        q += 1
    if math.gcd(a, q) != 1:
        return
    v = mod_inverse(4 * a, q)
    assert 1 <= v < q
    assert (4 * a * v - 1) % q == 0
    assert v == brute_force_inverse(4 * a % q, q)


def test_mod_inverse_rejects_non_coprime():
    with pytest.raises(ValueError, match="not invertible"):
        mod_inverse(4, 8)
    with pytest.raises(ValueError):
        mod_inverse(0, 5)


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=2, max_value=10**6))
def test_mod_inverse_is_an_involution(a, q):
    if math.gcd(a, q) != 1:
        return
    v = mod_inverse(a, q)
    assert (mod_inverse(v, q) - a) % q == 0


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


def bezout(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b) > 0."""
    if a == 0 and b == 0:
        raise ValueError("bezout(0, 0) is undefined")
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_u, u = u, old_u - quo * u
        old_v, v = v, old_v - quo * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def test_bezout_examples():
    assert bezout(3, 5) == (1, 2, -1)
    assert bezout(4, 8) == (4, 1, 0)
    with pytest.raises(ValueError):
        bezout(0, 0)


@given(st.integers(min_value=-10**9, max_value=10**9), st.integers(min_value=-10**9, max_value=10**9))
def test_bezout_identity(a, b):
    if a == 0 and b == 0:
        return
    g, u, v = bezout(a, b)
    assert g > 0
    assert u * a + v * b == g
    assert g == math.gcd(a, b)


@given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=2, max_value=10**4))
def test_bezout_coprime_gives_unit(p, s):
    if math.gcd(p, s) != 1:
        return
    g, _, _ = bezout(p, s)
    assert g == 1


small_fractions = st.fractions(min_value=-999, max_value=999, max_denominator=1000)


@given(small_fractions, small_fractions)
def test_fraction_arithmetic_agrees_with_floats(x, y):
    fx, fy = float(x), float(y)
    assert math.isclose(float(x + y), fx + fy, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(float(x - y), fx - fy, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(float(x * y), fx * fy, rel_tol=1e-12, abs_tol=1e-12)
    if y != 0:
        assert math.isclose(float(x / y), fx / fy, rel_tol=1e-12, abs_tol=1e-12)


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
