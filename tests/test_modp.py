"""GF(p) helpers of the smoothness degree count against their rational counterparts."""

import math
import random
from fractions import Fraction

import pytest

from test_forms import pmul

from doublesix._modp import SCREEN_PRIMES, gcd_mod, rank_mod, resultant_mod
from doublesix._poly import pgcd
from doublesix.forms import TernaryForm, _newton_interpolate
from doublesix.linalg import Matrix, determinant, rank
from doublesix.plane import REF6, integer_multiplicity_rows, random_general_config
from doublesix.torsion import _modp_resultants_x


def _modp_resultant_x(f, g, p):
    """Res_x(f, g) mod p for one pair, through ``torsion._modp_resultants_x``."""
    return _modp_resultants_x(f, [g], p)[0]


def frac_mod(x, p):
    """x mod p, or None when the denominator is divisible by p."""
    den = x.denominator % p
    if den == 0:
        return None
    return x.numerator % p * pow(den, -1, p) % p


def peval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


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


def sylvester_mod(f, g, p):
    """Sylvester determinant of f and g at their list degrees, reduced mod p."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[0] * s + f[::-1] + [0] * (n - 1 - s) for s in range(n)]
    rows += [[0] * s + g[::-1] + [0] * (m - 1 - s) for s in range(m)]
    if not rows:
        return 1
    return int(determinant(Matrix(rows))) % p


def test_resultant_mod_is_the_sylvester_determinant_mod_p():
    rng = random.Random("modp-resultant")
    for p in (101,) + SCREEN_PRIMES:
        for _ in range(40):
            f, g = ([rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)]
                    for _ in range(2))
            assert resultant_mod(f, g, p) == sylvester_mod(f, g, p)
        # A shared root u = 3 makes the resultant vanish.
        a = pmul([-3, 1], random_int_poly(rng, 3))
        b = pmul([-3, 1], random_int_poly(rng, 4))
        assert resultant_mod(a, b, p) == 0 == sylvester_mod(a, b, p)
        # deg f < deg g: Res(f, g) = (-1)^(mn) Res(g, f).
        f, g = random_int_poly(rng, 2), random_int_poly(rng, 5)
        assert resultant_mod(f, g, p) == sylvester_mod(f, g, p) == resultant_mod(g, f, p)
        f, g = random_int_poly(rng, 3), random_int_poly(rng, 5)
        assert resultant_mod(f, g, p) == sylvester_mod(f, g, p) == -resultant_mod(g, f, p) % p
        # A constant: Res(f, c) = c^m and Res(c, g) = c^n.
        assert resultant_mod(f, [7], p) == pow(7, 3, p) == sylvester_mod(f, [7], p)
        assert resultant_mod([-2], g, p) == pow(-2, 5, p) == sylvester_mod([-2], g, p)


def interpolate_mod(xs, ys, p):
    """The polynomial of degree < len(xs) with value ys[i] at xs[i], over GF(p).

    Newton's divided differences, then the Newton form expanded by
    Horner's rule.  The xs must be distinct mod p.  The list has exactly
    len(xs) entries and is not trimmed.
    """
    n = len(xs)
    c = [y % p for y in ys]
    inverses = {}  # equally spaced xs repeat each difference
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            d = xs[i] - xs[i - k]
            if d not in inverses:
                inverses[d] = pow(d, -1, p)
            c[i] = (c[i] - c[i - 1]) * inverses[d] % p
    out = [0] * n
    for k in range(n - 1, -1, -1):
        # out <- out * (u - xs[k]) + c[k]; out has degree n - 2 - k here.
        xk = xs[k]
        for j in range(n - 1 - k, 0, -1):
            out[j] = (out[j - 1] - xk * out[j]) % p
        out[0] = (c[k] - xk * out[0]) % p
    return out


def newton_interpolate_mod(ys, p):
    """The interpolant at the nodes 0 .. n over GF(p), as
    ``torsion._modp_resultants_x`` reads it from ``_newton_interpolate``."""
    coeffs, weight = _newton_interpolate(ys)
    inv = pow(weight, -1, p)
    return [c * inv % p for c in coeffs]


def test_interpolate_mod_recovers_every_coefficient_untrimmed():
    """The Newton routine on the nodes 0 .. 25, reduced mod p, equals the
    divided-difference reference and the polynomial, untrimmed."""
    rng = random.Random("modp-interpolate")
    xs = list(range(26))
    for p in SCREEN_PRIMES:
        polys = [[0] * 26, [5] + [0] * 25, [0] * 20 + [1] + [0] * 5]
        polys += [[rng.randrange(p) for _ in range(rng.randint(1, 26))] for _ in range(12)]
        assert len(polys) == 15
        for poly in polys:
            poly = poly + [0] * (26 - len(poly))
            ys = [peval(poly, x) % p for x in xs]
            assert newton_interpolate_mod(ys, p) == interpolate_mod(xs, ys, p) == poly


def test_newton_interpolation_returns_n_factorial_times_the_polynomial_over_z():
    rng = random.Random("newton-z")
    for _ in range(40):
        n = rng.randint(0, 25)
        poly = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, n + 1))]
        poly += [0] * (n + 1 - len(poly))
        coeffs, weight = _newton_interpolate([peval(poly, t) for t in range(n + 1)])
        assert weight == math.factorial(n)
        assert coeffs == [weight * c for c in poly]


def test_modp_resultant_x_needs_a_prime_above_the_eliminant_degree():
    f = TernaryForm(5, {(5, 0, 0): 1, (0, 5, 0): 2, (1, 2, 2): 3})
    g = TernaryForm(5, {(5, 0, 0): 3, (0, 0, 5): -1, (2, 3, 0): 1})
    for p in (2, 23, 25):
        with pytest.raises(ValueError, match="needs p > 25"):
            _modp_resultant_x(f, g, p)
    assert len(_modp_resultant_x(f, g, 29)) == 26


def test_rank_mod_is_the_rational_rank_unless_p_divides_a_minor():
    rng = random.Random("modp-rank")
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -2, 3, 10**12)) for _ in range(ncols)]
                for _ in range(nrows)]
        for p in SCREEN_PRIMES:
            assert rank_mod(rows, p) == rank(Matrix(rows))
    p = SCREEN_PRIMES[0]
    # p divides the only 2 x 2 minor; the rank drops mod p, never rises.
    assert rank(Matrix([[1, 2], [3, 6 + p]])) == 2
    assert rank_mod([[1, 2], [3, 6 + p]], p) == 1
    assert rank_mod([], p) == 0


def test_the_quintic_conditions_have_rank_18_mod_p():
    for c in [REF6] + [random_general_config(random.Random(s), bound=1000) for s in range(3)]:
        rows = [row for q in c.points for row in integer_multiplicity_rows(5, q, 2)]
        assert len(rows) == 18
        assert rank(Matrix(rows)) == 18
        assert all(rank_mod(rows, p) == 18 for p in SCREEN_PRIMES)
