import cmath
import functools
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qwell import cyclotomic
from qwell.cyclotomic import (
    CycInt,
    cyclotomic_poly,
    image_root,
)


def naive_divide(num, den):
    """Long division over the integers against a monic divisor, written
    independently of the package internals."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * max(1, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    return quot, num


def x_pow_minus_one(m):
    return [-1] + [0] * (m - 1) + [1]


def phi(m):
    return sum(1 for n in range(1, m + 1) if math.gcd(n, m) == 1)


def polymul(f, g):
    """The product of two coefficient sequences, ascending in degree."""
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        for j, d in enumerate(g):
            out[i + j] += c * d
    return tuple(out)


def test_cyclotomic_poly_first_orders():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    # divide x^4 - 1 by (x - 1)(x + 1) by hand
    quot, rem = naive_divide(x_pow_minus_one(4), [-1, 0, 1])
    assert not any(rem)
    assert cyclotomic_poly(4) == tuple(quot) == (1, 0, 1)
    # divide x^6 - 1 by (x - 1)(x + 1)(x^2 + x + 1)
    prod = (1,)
    for f in ([-1, 1], [1, 1], [1, 1, 1]):
        prod = polymul(prod, f)
    quot, rem = naive_divide(x_pow_minus_one(6), prod)
    assert not any(rem)
    assert cyclotomic_poly(6) == tuple(quot) == (1, -1, 1)


@pytest.mark.parametrize("m", [1, 2, 3, 8, 12, 30, 45, 64, 100, 105])
def test_cyclotomic_poly_is_monic_of_degree_phi(m):
    poly = cyclotomic_poly(m)
    assert poly[-1] == 1
    assert len(poly) - 1 == phi(m)


@pytest.mark.parametrize("m", range(1, 31))
def test_product_of_divisor_polys(m):
    prod = (1,)
    for d in range(1, m + 1):
        if m % d == 0:
            prod = polymul(prod, cyclotomic_poly(d))
    assert prod == tuple(x_pow_minus_one(m))


def test_is_zero_examples():
    cube = CycInt(3, enumerate((1, 1, 1)))  # full sum of cube roots of unity
    assert cube.is_zero()
    root2 = ((1, 1), (7, 1))  # zeta_8 + zeta_8^7 = sqrt(2)
    square = [(i + j, b * c) for i, b in root2 for j, c in root2]
    assert CycInt(8, square + [(0, -2)]).is_zero()
    assert not CycInt(5, ((0, 1), (1, 1))).is_zero()


def test_is_zero_matches_float_on_small_sums():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.choice([3, 4, 5, 6, 8, 12, 24, 30])
        coeffs = [0] * m
        for _ in range(rng.randint(0, 6)):
            coeffs[rng.randrange(m)] += rng.choice([-2, -1, 1, 2])
        z = CycInt(m, enumerate(coeffs))
        assert z.is_zero() == (abs(z.to_complex()) < 1e-9)


def random_zero_element(rng, m):
    """A guaranteed zero of Z[zeta_m]: a multiple of the m-th cyclotomic
    polynomial, folded into exponents mod m."""
    base = [0] * m
    for i, c in enumerate(cyclotomic_poly(m)):
        base[i % m] += c
    mult = [0] * m
    for _ in range(rng.randint(1, 4)):
        mult[rng.randrange(m)] += rng.choice([-3, -2, -1, 1, 2, 3])
    return CycInt(m, ((i + j, b * c) for i, b in enumerate(base) for j, c in enumerate(mult)))


@pytest.mark.parametrize("m", [5, 8, 12, 15, 24, 40])
def test_galois_conjugation_preserves_zero(m):
    rng = random.Random(m)
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    for _ in range(20):
        z = random_zero_element(rng, m)
        assert z.is_zero()
        for u in units:
            assert CycInt(m, ((u * j, c) for j, c in z.terms)).is_zero()


def embed(z: CycInt, target_order: int) -> CycInt:
    """Re-express z in Z[zeta_target]: zeta_M^j -> zeta_target^(j * target/M)."""
    if target_order % z.order:
        raise ValueError(f"{z.order} does not divide {target_order}")
    stride = target_order // z.order
    return CycInt(target_order, ((j * stride, c) for j, c in z.terms))


def test_embed_examples():
    assert embed(CycInt(2, ((1, 1),)), 4) == CycInt(4, ((2, 1),))
    assert embed(CycInt(3, ((1, 1),)), 12) == CycInt(12, ((4, 1),))
    with pytest.raises(ValueError):
        embed(CycInt(3, ((1, 1),)), 8)


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=6), st.data())
def test_embed_preserves_value(m, factor, data):
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    z = CycInt(m, enumerate(coeffs))
    w = embed(z, m * factor)
    assert abs(z.to_complex() - w.to_complex()) < 1e-12


def test_to_complex_examples():
    assert abs(CycInt(4, ((1, 1),)).to_complex() - 1j) < 1e-12
    assert abs(CycInt(8, ((1, 1), (7, 1))).to_complex() - math.sqrt(2.0)) < 1e-12


def test_to_complex_matches_term_by_term():
    rng = random.Random(3)
    for _ in range(50):
        m = rng.randint(1, 60)
        coeffs = tuple(rng.randint(-5, 5) for _ in range(m))
        z = CycInt(m, enumerate(coeffs))
        assert CycInt(m, enumerate(z.coeffs)) == z
        direct = sum(
            c * cmath.exp(2j * cmath.pi * j / m) for j, c in enumerate(coeffs) if c
        )
        assert abs(z.to_complex() - direct) < 1e-10


def test_reduced_equality_detects_equal_values():
    ones = CycInt(3, enumerate((1, 1, 1)))
    zero = CycInt(3, ())
    assert ones.reduced() == zero.reduced()
    assert CycInt(3, ones.terms + tuple((j, -c) for j, c in zero.terms)).is_zero()
    assert not CycInt(3, ((1, 1), (2, -1))).is_zero()


# orders with p^2 | M, products of many primes, and the detector's sizes
ORACLE_ORDERS = [2, 3, 4, 6, 8, 9, 12, 25, 27, 30, 72, 105, 210, 1155]
X = sympy.Symbol("x")


@functools.lru_cache(maxsize=None)
def sympy_cyclotomic(m):
    return sympy.Poly(sympy.cyclotomic_poly(m, X), X)


def sympy_is_zero(z):
    poly = sympy.Poly(list(reversed(z.coeffs)), X)
    return sympy.rem(poly, sympy_cyclotomic(z.order)).is_zero


def shifted_zero(m, d, shift, c):
    """c x^shift Phi_d(x^(m/d)) folded mod m, which vanishes at zeta_m for d | m."""
    stride = m // d
    coeffs = reversed(sympy_cyclotomic(d).all_coeffs())
    return CycInt(m, ((shift + i * stride, c * int(a)) for i, a in enumerate(coeffs)))


@st.composite
def oracle_cases(draw, orders):
    """(element, known_zero): random sparse sums, sums of shifted multiples of
    Phi_d for d | m, and those zeros perturbed by +-1."""
    m = draw(st.sampled_from(orders))
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.sampled_from(divisors))
        coefficient = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        terms += shifted_zero(m, d, draw(st.integers(0, m - 1)), coefficient).terms
    kind = draw(st.sampled_from(["zero", "perturbed", "random"]))
    if kind == "zero":
        return CycInt(m, terms), True
    if kind == "perturbed":
        root = (draw(st.integers(0, m - 1)), draw(st.sampled_from([-1, 1])))
        return CycInt(m, terms + [root]), False
    terms = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(-2, 2)), max_size=8))
    return CycInt(m, terms), None


def image(z):
    """z under zeta_M -> r in F_ell, term by term."""
    ell, r = image_root(z.order)
    return sum(c * pow(r, j, ell) for j, c in z.terms) % ell


def check_against_oracles(z, known_zero):
    dense = not any(z.reduced())
    assert z.is_zero() == dense == sympy_is_zero(z)
    if known_zero is not None:
        assert dense == known_zero
    # a ring map sends zero to zero: a nonzero image is never a zero
    assert not dense or image(z) == 0


@settings(max_examples=200, deadline=None)
@given(oracle_cases(ORACLE_ORDERS))
def test_is_zero_matches_dense_and_sympy_remainders(case):
    check_against_oracles(*case)


@settings(max_examples=6, deadline=None)
@given(oracle_cases([1064, 4200]))
def test_is_zero_matches_oracles_at_detector_orders(case):
    check_against_oracles(*case)


# the detector's large orders (q s for odd q, lcm(8, 4q, q s) for even q)
IMAGE_ORDERS = [
    1064, 4200, 7976, 12000,
    math.lcm(8, 4 * 12, 12 * 5),    # lam = 107/10, N = 2, q = 12
    math.lcm(8, 4 * 960, 960 * 2),  # lam = 5/2, N = 2, q = 960
    math.lcm(8, 4 * 18, 18 * 2),    # lam = 5/2, N = 3, q = 18
]


@pytest.mark.parametrize("m", sorted({1, *ORACLE_ORDERS, *IMAGE_ORDERS}))
def test_image_root_has_exact_order(m):
    ell, r = image_root(m)
    assert sympy.isprime(ell) and 2**29 < ell < 2**30
    assert (ell - 1) % m == 0
    # the least such prime: no m j + 1 between 2^29 and ell is prime
    assert not any(sympy.isprime(n) for n in range(ell - m, 2**29, -m))
    assert pow(r, m, ell) == 1
    assert all(pow(r, m // p, ell) != 1 for p in sympy.primefactors(m))
    # hence r is a root of Phi_m mod ell
    value = 0
    for a in sympy_cyclotomic(m).all_coeffs():
        value = (value * r + int(a)) % ell
    assert value == 0


@settings(max_examples=40, deadline=None)
@given(oracle_cases(IMAGE_ORDERS))
def test_image_map_at_detector_orders(case):
    """Orders too large for the dense oracles: constructed zeros are zero and
    map to 0; their perturbations are not zero; a zero never has a nonzero image."""
    z, known_zero = case
    zero = z.is_zero()
    if known_zero is not None:
        assert zero == known_zero
    assert not zero or image(z) == 0


def test_prime_factors_stop_trial_division_at_the_bound():
    """Trial division stops at _TRIAL_BOUND: a cofactor left above it is kept
    as a prime factor only if it is a prime, so 2^k P factors for any prime P
    above the bound, and a product of two such primes raises ValueError."""
    bound = cyclotomic._TRIAL_BOUND
    for big in (sympy.nextprime(bound), sympy.nextprime(bound**2)):
        for k in range(4):
            assert cyclotomic._prime_factors(2**k * big) == [2] * bool(k) + [big]
        assert cyclotomic._prime_factors(3 * 5**2 * 7 * big) == sympy.primefactors(105 * big)
    product = sympy.nextprime(2 * bound) * sympy.nextprime(4 * bound)
    with pytest.raises(ValueError, match="not a prime"):
        cyclotomic._prime_factors(product)
    with pytest.raises(ValueError, match="not a prime"):
        cyclotomic._prime_factors(6 * product)
