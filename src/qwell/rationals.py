"""Exact rational helpers: the distance-to-the-nearest-integer map, and
exact parsing and printing of rationals.

Reduced fractions are `fractions.Fraction` throughout (arbitrary precision,
auto-reduced, positive denominator).
"""
from __future__ import annotations

import math
from fractions import Fraction


def dist_nearest_int(x: Fraction) -> Fraction:
    """Distance from x to the nearest integer, always in [0, 1/2]."""
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
    return f"{x.numerator}/{x.denominator}"
