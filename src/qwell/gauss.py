"""Generalized quadratic Gauss sums G(a, k, q) = sum_l e((a l^2 + k l)/q).

Provides the direct q-term evaluation, the exact magnitude law, the exact
root-of-unity coefficient carrying the k-dependence, and the k-independent
phase that ties the two together:

    conj(G(a, k, q)) = sqrt(q) * exp(i*alpha(a, q)) * c(k)

The even-q coefficient exponent uses the mod-q inverse of a lifted to the
modulus 4q; any other lift of the inverse only shifts alpha, and the choice
made here is pinned down operationally by the factorization residual sweep
in the test suite.
"""
from __future__ import annotations

import cmath
import math

from .cyclotomic import unit_roots

SQRT2 = math.sqrt(2.0)


def _check_coprime(a: int, q: int) -> None:
    if q < 1:
        raise ValueError("q must be positive")
    if math.gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1: the sum needs an irreducible fraction")


def gauss_sum_direct(a: int, k: int, q: int) -> complex:
    """The q-term sum, evaluated in floating point via a shared root table."""
    _check_coprime(a, q)
    roots = unit_roots(q)
    total = 0j
    for l in range(q):
        total += roots[(a * l * l + k * l) % q]
    return total


def gauss_abs_sq(a: int, k: int, q: int) -> int:
    """Exact |G(a, k, q)|^2: q for odd q; 2q or 0 by the parity of k + q/2."""
    _check_coprime(a, q)
    if not contributing(range(k, k + 1), q):
        return 0
    return q if q % 2 else 2 * q


def coefficient_exponent(a: int, q: int) -> tuple[int, int]:
    """(inv, modulus) with c(k) = e((inv k^2 mod modulus) / modulus), times
    sqrt(2) for even q: inv(4a) mod q over q for odd q, and for even q the
    mod-q inverse of a lifted to the modulus 4q."""
    if q % 2:
        return pow(4 * a, -1, q), q
    return pow(a, -1, q), 4 * q


def contributing(ks: range, q: int) -> range:
    """The k of ks with c(k) != 0: all of them for odd q, those with
    k = q/2 (mod 2) for even q."""
    return ks if q % 2 else ks[(ks.start + q // 2) % 2 :: 2]


def coefficient_c(a: int, q: int, k: int) -> complex:
    """c(k) = conj(G(a, k, q)) / (sqrt(q) e^{i alpha}) as a complex number.

    Odd q: e(inv(4a) k^2 / q).  Even q: zero for the k that contributing
    drops (k + q/2 odd), else sqrt(2) e(inv(a) k^2 / (4q)).  The exponent is
    (inv k^2 mod modulus) / modulus from coefficient_exponent, one correctly
    rounded quotient; both branches are invariant under k -> -k.
    """
    _check_coprime(a, q)
    if not contributing(range(k, k + 1), q):
        return 0j
    inv, modulus = coefficient_exponent(a, q)
    c = cmath.exp(2j * cmath.pi * (inv * k * k % modulus / modulus))
    return c if q % 2 else c * SQRT2


def phase_alpha(a: int, q: int) -> float:
    """The k-independent phase alpha in radians, read off at k = 0 (odd q) or
    k = q/2 (even q)."""
    _check_coprime(a, q)
    k0 = 0 if q % 2 else q // 2
    g_conj = gauss_sum_direct(a, k0, q).conjugate()
    return cmath.phase(g_conj / (math.sqrt(q) * coefficient_c(a, q, k0)))


def factorization_residual(a: int, q: int, k: int | None = None) -> float:
    """Max |conj(G) - sqrt(q) e^{i alpha} c(k)| over k (or at a single k)."""
    scale = math.sqrt(q) * cmath.exp(1j * phase_alpha(a, q))
    ks = range(q) if k is None else (k,)
    worst = 0.0
    for kk in ks:
        model = scale * coefficient_c(a, q, kk)
        worst = max(worst, abs(gauss_sum_direct(a, kk, q).conjugate() - model))
    return worst
