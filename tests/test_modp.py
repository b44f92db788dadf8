"""GF(p) helpers of the smoothness degree count against their rational counterparts."""

import random
from fractions import Fraction

from doublesix._modp import SCREEN_PRIMES, frac_mod, gcd_mod
from doublesix._poly import pgcd, pmul


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
