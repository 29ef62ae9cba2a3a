"""Exact arithmetic in Z[zeta_M], the ring of integer combinations of M-th
roots of unity.

Elements are dense integer coefficient vectors indexed by the exponent
0..M-1.  The zero test reduces the corresponding polynomial modulo the M-th
cyclotomic polynomial, which is the minimal polynomial of e(1/M) over the
rationals; the reduction therefore certifies vanishing exactly, with no
numeric thresholds.  sqrt(2) is representable as zeta_8 + zeta_8^7, so any
order divisible by 8 also houses the sqrt(2)-weighted terms that show up in
even-denominator Gauss coefficients.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coeffs ascending in degree, no trailing zeros."""

    coeffs: tuple[int, ...]

    @staticmethod
    def from_coeffs(seq) -> "IntPoly":
        cs = list(seq)
        while cs and cs[-1] == 0:
            cs.pop()
        return IntPoly(tuple(cs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c:
                for j, d in enumerate(other.coeffs):
                    out[i + j] += c * d
        return IntPoly.from_coeffs(out)


def _divexact_monic(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of num by the monic polynomial den; raises if not exact."""
    dn = len(den) - 1
    if len(num) - 1 < dn:
        if any(num):
            raise ArithmeticError("division is not exact")
        return [0]
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j in range(dn):
                num[i - dn + j] -= c * den[j]
            num[i] = 0
    if any(num):
        raise ArithmeticError("division is not exact")
    return out


def _divisors(n: int) -> list[int]:
    ds = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            ds.append(d)
            if d * d != n:
                ds.append(n // d)
    ds.sort()
    return ds


@lru_cache(maxsize=None)
def cyclotomic_poly(order: int) -> IntPoly:
    """The order-th cyclotomic polynomial, monic of degree phi(order).

    Computed by exact division of x^order - 1 by the product of the lower
    cyclotomic polynomials, one proper divisor at a time.  Cached per order;
    the cache is only ever appended to, so concurrent readers are safe.
    """
    if order < 1:
        raise ValueError("order must be positive")
    rem = [-1] + [0] * (order - 1) + [1]
    for d in _divisors(order)[:-1]:
        rem = _divexact_monic(rem, cyclotomic_poly(d).coeffs)
    return IntPoly.from_coeffs(rem)


@lru_cache(maxsize=512)
def unit_roots(order: int) -> tuple[complex, ...]:
    """Float table of e(j / order) for j = 0..order-1."""
    return tuple(cmath.exp(2j * cmath.pi * j / order) for j in range(order))


def _reduce_mod_cyclotomic(coeffs: list[int], order: int) -> tuple[int, ...]:
    """Remainder of sum(coeffs[j] x^j) modulo cyclotomic_poly(order)."""
    cm = cyclotomic_poly(order).coeffs
    dn = len(cm) - 1
    r = list(coeffs)
    deg = len(r) - 1
    while deg >= 0 and r[deg] == 0:
        deg -= 1
    while deg >= dn:
        c = r[deg]
        if c:
            base = deg - dn
            for j in range(dn):
                r[base + j] -= c * cm[j]
            r[deg] = 0
        deg -= 1
        while deg >= 0 and r[deg] == 0:
            deg -= 1
    del r[dn:]
    return tuple(r + [0] * (dn - len(r)))


@dataclass(frozen=True)
class CycInt:
    """An element of Z[zeta_M]: coeffs[j] is the coefficient of zeta_M^j.

    Structural equality (same order, same vector) is not equality of the
    represented complex numbers; use `equals` or compare `reduced()` forms
    for that.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        if len(self.coeffs) != self.order:
            raise ValueError("coefficient vector length must equal the order")

    @staticmethod
    def zero(order: int) -> "CycInt":
        return CycInt(order, (0,) * order)

    @staticmethod
    def root(order: int, exponent: int) -> "CycInt":
        """zeta_order^exponent."""
        cs = [0] * order
        cs[exponent % order] = 1
        return CycInt(order, tuple(cs))

    @staticmethod
    def integer(order: int, n: int) -> "CycInt":
        cs = [0] * order
        cs[0] = n
        return CycInt(order, tuple(cs))

    @staticmethod
    def sqrt_two(order: int) -> "CycInt":
        """sqrt(2) = zeta_8 + zeta_8^7; requires 8 | order."""
        if order % 8:
            raise ValueError("sqrt(2) needs an order divisible by 8")
        cs = [0] * order
        cs[order // 8] += 1
        cs[7 * order // 8] += 1
        return CycInt(order, tuple(cs))

    def _match(self, other: "CycInt") -> None:
        if self.order != other.order:
            raise ValueError("orders differ; embed into a common order first")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._match(other)
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._match(other)
        return CycInt(self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.order, tuple(other * a for a in self.coeffs))
        self._match(other)
        # cyclic convolution: zeta^M = 1
        out = [0] * self.order
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[(i + j) % self.order] += a * b
        return CycInt(self.order, tuple(out))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """Exact test: does this element equal 0 as a complex number?

        Fast paths: an even order lets us fold zeta^(j+M/2) = -zeta^j, which
        instantly clears sums that cancel in pairs; a single surviving term
        is a nonzero root-of-unity multiple.  The general case divides by the
        cyclotomic polynomial of the smallest order actually spanned by the
        surviving exponents.
        """
        order = self.order
        coeffs = self.coeffs
        if order % 2 == 0:
            half = order // 2
            folded = [coeffs[j] - coeffs[j + half] for j in range(half)]
        else:
            folded = list(coeffs)
        support = [j for j, c in enumerate(folded) if c]
        if not support:
            return True
        if len(support) == 1:
            return False
        g = math.gcd(order, *support)
        if g > 1:
            sub = order // g
            packed = [0] * sub
            for j in support:
                packed[j // g] = folded[j]
            folded = packed
            order = sub
        return not any(_reduce_mod_cyclotomic(folded, order))

    def reduced(self) -> tuple[int, ...]:
        """Canonical form: remainder modulo the order's cyclotomic polynomial.

        Two elements of equal order represent the same complex number iff
        their reduced forms coincide.
        """
        return _reduce_mod_cyclotomic(list(self.coeffs), self.order)

    def equals(self, other: "CycInt") -> bool:
        self._match(other)
        return (self - other).is_zero()

    def to_complex(self) -> complex:
        """Float shadow: sum of coeffs[j] * e(j / order)."""
        roots = unit_roots(self.order)
        return sum((c * roots[j] for j, c in enumerate(self.coeffs) if c), 0j)


def galois_conjugate(z: CycInt, m: int) -> CycInt:
    """Apply zeta -> zeta^m for gcd(m, order) = 1.

    Permutes exponents j -> m*j mod order; vanishing is preserved in both
    directions because the substitution fixes rational-coefficient relations
    among conjugate roots.
    """
    if math.gcd(m, z.order) != 1:
        raise ValueError(f"gcd({m}, {z.order}) != 1: not a valid conjugation")
    out = [0] * z.order
    for j, c in enumerate(z.coeffs):
        if c:
            out[(m * j) % z.order] += c
    return CycInt(z.order, tuple(out))


def embed(z: CycInt, target_order: int) -> CycInt:
    """Re-express z in Z[zeta_target]: zeta_M^j -> zeta_target^(j * target/M)."""
    if target_order % z.order:
        raise ValueError(f"{z.order} does not divide {target_order}")
    stride = target_order // z.order
    out = [0] * target_order
    for j, c in enumerate(z.coeffs):
        if c:
            out[j * stride] += c
    return CycInt(target_order, tuple(out))
