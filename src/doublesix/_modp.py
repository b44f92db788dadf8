"""GF(p) helpers for the smoothness screen and the smoothness proofs.

Univariate polynomials are int lists, low degree first, coefficients
reduced mod p.  The resultants mod p come from the exact
``forms.resultant_eliminate`` run on forms reduced by ``frac_mod``;
only the gcd and the root division run here.  The screen's hints never
decide anything user-facing on their own; exact confirmation over Q
always follows.

``gcd_mod`` also proves facts in ``torsion.smooth_elsewhere``, in two
places.  The degree count: reduction mod p preserves the two eliminants
Res_x(fx, fy) and Res_x(fx, fz) when p divides no denominator and
neither leading x-coefficient, and while both stay nonzero mod p their
gcd as binary forms can only gain degree.  The six distinct node
projections give it degree at least 6 over Q, so degree exactly 6 mod p
proves that the nodes are the only common roots, each simple.  The
coprimality audit: for integer polynomials a and b whose leading
coefficients p divides neither, a gcd of degree 0 in GF(p)[u] proves
gcd(a, b) = 1 over Q.  Any other answer, in either place, leaves the
decision to exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from ._poly import ptrim

#: The two fixed 30-bit primes used by the screen.
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


def divide_out_root_mod(poly: list[int], root: int, p: int) -> tuple[list[int], int]:
    """Synthetic division by (u - root) to exhaustion; returns (quotient, count)."""
    count = 0
    a = ptrim([x % p for x in poly])
    while a:
        # evaluate at root
        acc = 0
        for c in reversed(a):
            acc = (acc * root + c) % p
        if acc != 0:
            break
        out = [0] * (len(a) - 1)
        carry = 0
        for i in range(len(a) - 1, 0, -1):
            carry = (a[i] + carry * root) % p
            out[i - 1] = carry
        a = ptrim(out)
        count += 1
    return a, count
