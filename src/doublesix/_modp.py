"""GF(p) helpers for the smoothness screen and the smoothness proof.

Univariate polynomials are int lists, low degree first, coefficients
reduced mod p.  The resultants mod p come from the exact
``forms.resultant_eliminate`` run on forms reduced by ``frac_mod``;
only the gcd runs here.

``gcd_mod`` proves facts in one place, the degree count of
``torsion.smooth_elsewhere``, which ``torsion.smooth_screen`` also runs
as its hint.  Reduction mod p preserves the two eliminants
Res_x(fx, fy) and Res_x(fx, fz) when p divides no denominator and
neither leading x-coefficient, and while both stay nonzero mod p their
gcd as binary forms can only gain degree.  The six distinct node
projections give it degree at least 6 over Q, so degree exactly 6 mod p
proves that the nodes are the only common roots, each simple.  Any other
answer leaves the decision to exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from ._poly import ptrim

#: The two fixed 30-bit primes the degree count tries in turn.
SCREEN_PRIMES = (1073741789, 1073741783)


def frac_mod(x: Fraction, p: int) -> int | None:
    """x mod p, or None when the denominator is divisible by p."""
    den = x.denominator % p
    if den == 0:
        return None
    return x.numerator % p * pow(den, -1, p) % p


def gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in GF(p)[u] by the Euclidean algorithm."""
    a = ptrim([x % p for x in a])
    b = ptrim([x % p for x in b])
    while b:
        # a mod b
        r = list(a)
        inv = pow(b[-1], -1, p)
        for i in range(len(r) - 1, len(b) - 2, -1):
            if r[i] == 0:
                continue
            c = r[i] * inv % p
            for j, bj in enumerate(b):
                r[i - len(b) + 1 + j] = (r[i - len(b) + 1 + j] - c * bj) % p
        a, b = b, ptrim(r)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a
