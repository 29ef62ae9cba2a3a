"""Exact rational helpers: Bezout identities, modular inverses and the
distance-to-the-nearest-integer map.

Reduced fractions are `fractions.Fraction` throughout (arbitrary precision,
auto-reduced, positive denominator), aliased as `Rational`.
"""
from __future__ import annotations

import math
from fractions import Fraction

Rational = Fraction


def mod_inverse(a: int, q: int) -> int:
    """Inverse of a modulo q, in [1, q) for q > 1 and 0 for q == 1.

    Raises ValueError when gcd(a, q) != 1.
    """
    if q < 1:
        raise ValueError("modulus must be positive")
    try:
        return pow(a, -1, q)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {q}") from None


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


def dist_nearest_int(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, always in [0, 1/2]."""
    x = Fraction(x)
    frac = x - math.floor(x)
    return min(frac, 1 - frac)


def parse_rational(text: str) -> Fraction:
    """Parse "u/v", an integer or a decimal like "10.7" exactly; refuse float overflow."""
    try:
        value = Fraction(text.strip())
        float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    except OverflowError:
        raise ValueError(f"too large for a float: {text!r}") from None
    return value


def format_rational(x: Fraction) -> str:
    """Serialize as "num/den" (never a float), e.g. Fraction(2, 15) -> "2/15"."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
