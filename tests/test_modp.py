"""GF(p) helpers of the smoothness screen against their rational counterparts."""

import random
from fractions import Fraction

from doublesix._modp import SCREEN_PRIMES, divide_out_root_mod, frac_mod, gcd_mod
from doublesix._poly import pgcd, pmul
from doublesix.torsion import _divide_out_root


def random_int_poly(rng, degree, bound=9):
    """Integer polynomial of exactly the given degree, low degree first."""
    lead = rng.choice([c for c in range(-bound, bound + 1) if c != 0])
    return [rng.randint(-bound, bound) for _ in range(degree)] + [lead]


def test_frac_mod_inverts_the_denominator_or_reports_none():
    rng = random.Random("modp-frac")
    for p in SCREEN_PRIMES:
        for _ in range(20):
            x = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
            r = frac_mod(x, p)
            assert 0 <= r < p
            assert r * x.denominator % p == x.numerator % p
        assert frac_mod(Fraction(-1, 2), p) == (p - 1) // 2
        assert frac_mod(Fraction(p, 7), p) == 0
        assert frac_mod(Fraction(1, p), p) is None
        assert frac_mod(Fraction(5, 3 * p), p) is None


def test_gcd_mod_is_the_rational_gcd_reduced_mod_p():
    rng = random.Random("modp-gcd")
    degrees = set()
    for p in SCREEN_PRIMES:
        for _ in range(12):
            common = random_int_poly(rng, rng.randint(0, 4))
            a = pmul(common, random_int_poly(rng, rng.randint(1, 5)))
            b = pmul(common, random_int_poly(rng, rng.randint(1, 5)))
            expected = pgcd(a, b)
            inv = pow(expected[-1], -1, p)
            assert gcd_mod(a, b, p) == [c * inv % p for c in expected]
            degrees.add(len(expected) - 1)
        assert gcd_mod([], [], p) == []
        assert gcd_mod([], [6, 3], p) == [2, 1]
    assert 0 in degrees and max(degrees) >= 3


def test_divide_out_root_mod_is_the_rational_division_reduced_mod_p():
    rng = random.Random("modp-root")
    counts = set()
    for p in SCREEN_PRIMES:
        for _ in range(12):
            num, den = rng.randint(-9, 9), rng.randint(1, 9)
            poly = random_int_poly(rng, rng.randint(0, 4))
            for _ in range(rng.randint(0, 3)):
                poly = pmul(poly, [-num, den])  # den * u - num vanishes at num / den
            root = Fraction(num, den)
            quotient, count = _divide_out_root(poly, root)
            assert all(isinstance(c, int) for c in quotient)
            got, got_count = divide_out_root_mod(poly, frac_mod(root, p), p)
            assert got_count == count
            # u - root = (den*u - num) / den in lowest terms, so the mod-p
            # quotient is den^count times the integer one.
            scale = pow(root.denominator, count, p)
            assert got == [c * scale % p for c in quotient]
            counts.add(count)
    assert {0, 1, 2, 3} <= counts
