"""Exact zero tests in Z[zeta_M], the ring of integer combinations of M-th
roots of unity.

Elements are sparse: a canonical, sorted tuple of (exponent, coefficient)
pairs, made in one pass from a term list, so building an element, its float
shadow and the zero test cost the number of terms, not M.  The zero test
decides vanishing exactly, with no numeric thresholds, by splitting the order
one prime at a time (the structure of vanishing sums of roots of unity, Lam
and Leung, J. Algebra 224, 2000).  The cyclotomic polynomials, as coefficient
tuples, and the remainder modulo them (`reduced`) are kept as a canonical form
and as an independent oracle for that test.  `image_root` gives a ring map
Z[zeta_M] -> F_ell into a prime field, under which a nonzero image certifies a
nonzero element; ell lies just above 2^29, so it fits one 30-bit CPython
digit, and a false zero image (a chance of about 2^-29 per nonzero element)
only costs one exact test.
"""
from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache
from typing import NamedTuple


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder (deg den coefficients) of num by the monic
    polynomial den; num is consumed."""
    dn = len(den) - 1
    out = [0] * max(1, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j in range(dn):
                num[i - dn + j] -= c * den[j]
            num[i] = 0
    return out, (num + [0] * dn)[:dn]


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
def cyclotomic_poly(order: int) -> tuple[int, ...]:
    """The coefficient tuple of the order-th cyclotomic polynomial, ascending.

    Computed by exact division of x^order - 1 by the product of the lower
    cyclotomic polynomials, one proper divisor at a time; an exact quotient of
    monic polynomials is monic, so it has no trailing zero.  Cached per order;
    the cache is only ever appended to, so concurrent readers are safe.
    """
    if order < 1:
        raise ValueError("order must be positive")
    rem = [-1] + [0] * (order - 1) + [1]
    for d in _divisors(order)[:-1]:
        rem, left = _divmod_monic(rem, cyclotomic_poly(d))
        if any(left):
            raise ArithmeticError("division is not exact")
    return tuple(rem)


@lru_cache(maxsize=1)  # each caller reuses one order
def unit_roots(order: int) -> tuple[complex, ...]:
    """Float table of e(j / order) for j = 0..order-1."""
    return tuple(cmath.exp(2j * cmath.pi * j / order) for j in range(order))


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending, by trial division up to
    _TRIAL_BOUND = 2^20 (at most 0.15 s, CPython 3.11); a cofactor left must
    pass _is_prime, else this raises ValueError, as _is_prime does past its range."""
    primes, f = [], 2
    while f * f <= n and f <= _TRIAL_BOUND:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if f * f <= n and not _is_prime(n):
        raise ValueError(f"{n} has no prime factor up to {_TRIAL_BOUND} but is not a prime")
    return primes + [n] if n > 1 else primes


@lru_cache(maxsize=1024)
def _split(order: int) -> tuple[int, int, int, int]:
    """(p, m, u, w): the largest prime p of order > 1, m = order / p, and u = w = 0
    if p | m, else u = m^-1 mod p and w = p^-1 mod m (zeta^j = zeta_p^ju zeta_m^jw)."""
    p = _prime_factors(order)[-1]
    m = order // p
    if m % p == 0:
        return p, m, 0, 0
    return p, m, pow(m, -1, p), pow(p, -1, m)


# Miller-Rabin on the first 13 primes as bases is deterministic below this
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_TRIAL_BOUND = 1 << 20  # the largest trial divisor of _prime_factors


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _MR_LIMIT."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, twos = n - 1, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1024)
def image_root(order: int) -> tuple[int, int]:
    """(ell, r): the least prime ell > 2^29 with ell = 1 (mod order), and
    r = g^((ell - 1) / order) mod ell for the least g >= 2 that makes the
    multiplicative order of r exactly `order`.

    Then Phi_order(r) = 0 (mod ell), so zeta_order -> r is a ring
    homomorphism Z[zeta_order] -> F_ell: an element whose image is nonzero is
    nonzero.  A zero image proves nothing (a nonzero element maps to 0 with a
    chance of about 1/ell, about 2^-29), so vanishing is still decided
    exactly, by the detector's reflection congruences or by `is_zero`: a
    false zero image costs one exact test and never changes a verdict.  The
    floor is 2^29, not higher, because then ell < 2^30 is one
    30-bit CPython digit, as are the images and the factors of each product
    mod ell, for every order of the default scan and of large-q runs such
    as q = 199999 (the largest ell there is 538,397,309).
    """
    ell = ((1 << 29) // order + 1) * order + 1
    while not _is_prime(ell):
        ell += order
    primes = _prime_factors(order)
    for g in itertools.count(2):
        r = pow(g, (ell - 1) // order, ell)
        if all(pow(r, order // p, ell) != 1 for p in primes):
            return ell, r


def _vanishes(order: int, terms) -> bool:
    """Does sum c zeta_order^j over terms vanish?  terms are (j, c) pairs with
    distinct j in [0, order) and nonzero c.

    The exponents and the order are divided by their gcd, then the order is
    split at its largest prime p, m = order / p.  If p | m, zeta^0..zeta^(p-1)
    are a basis of Q(zeta_order) over Q(zeta_m), so each exponent class mod p
    vanishes on its own.  Otherwise the sum is sum_a zeta_p^a B_a with B_a in
    Z[zeta_m], and the only relation among the zeta_p^a over Q(zeta_m) is
    their full sum, so it vanishes iff all p class sums B_a are equal (a
    missing class counts as 0).  No cyclotomic polynomial is needed.
    """
    if len(terms) < 2:
        return not terms
    g = math.gcd(order, *(j for j, _ in terms))
    p, m, u, w = _split(order // g)
    classes: dict[int, dict[int, int]] = {}
    for j, c in terms:
        j //= g
        a, k = (j * u % p, j * w % m) if u else (j % p, j // p)
        classes.setdefault(a, {})[k] = c
    base = classes[0] if u and len(classes) == p else {}
    return all(_vanishes(m, _difference(b, base)) for b in classes.values())


def _difference(b: dict[int, int], base: dict[int, int]) -> list[tuple[int, int]]:
    out = dict(b)
    for k, c in base.items():
        out[k] = out.get(k, 0) - c
    return [t for t in out.items() if t[1]]


class _CycFields(NamedTuple):
    order: int
    terms: tuple[tuple[int, int], ...]


class CycInt(_CycFields):
    """An element of Z[zeta_M]: sum of c zeta_M^j over the (j, c) in terms.

    Any iterable of (exponent, coefficient) pairs may be passed, such as
    enumerate(dense_coeffs); it is stored canonically, as (j mod M, total
    coefficient) pairs sorted by j with the zero totals dropped.  _replace
    and _make skip that, so build a new CycInt instead.  Structural
    equality (same order, same terms) is not equality of the represented
    complex numbers; is_zero() on a's terms plus b's negated decides that.
    """

    __slots__ = ()

    def __new__(cls, order: int, terms):
        if order < 1:
            raise ValueError("order must be positive")
        acc: dict[int, int] = {}
        for j, c in terms:
            j %= order
            acc[j] = acc.get(j, 0) + c
        return tuple.__new__(cls, (order, tuple(sorted(t for t in acc.items() if t[1]))))

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Dense view: coeffs[j] is the coefficient of zeta_M^j."""
        out = [0] * self.order
        for j, c in self.terms:
            out[j] = c
        return tuple(out)

    def is_zero(self) -> bool:
        """Exact test: does this element equal 0 as a complex number?"""
        return _vanishes(self.order, self.terms)

    def reduced(self) -> tuple[int, ...]:
        """Canonical form: remainder modulo the order's cyclotomic polynomial.

        Two elements of equal order represent the same complex number iff
        their reduced forms coincide.
        """
        return tuple(_divmod_monic(list(self.coeffs), cyclotomic_poly(self.order))[1])

    def to_complex(self) -> complex:
        """Float shadow: sum of c * e(j / order) over the terms, in ascending j."""
        turn = 2 * math.pi  # rect(c, x) is bit for bit c * exp(ix)
        return sum([cmath.rect(c, turn * j / self.order) for j, c in self.terms], 0j)

