"""Internal univariate polynomial helpers.

Polynomials are plain lists of coefficients, low degree first, with no
trailing zeros (the zero polynomial is the empty list).  The arithmetic
is generic over ints and Fractions; the fraction-free routines assume
int coefficients.  Binary (homogeneous two-variable) forms reuse the
same lists: a form of degree d is the length-(d+1) coefficient vector
of u^i v^(d-i), and the degree is carried by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def ptrim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def psub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    return ptrim(out)


def pmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ptrim(out)


def pscale(a: list, c) -> list:
    if c == 0:
        return []
    return [c * x for x in a]


def pdiv_exact(num: list, den: list) -> list:
    """Exact quotient num/den; raises if the division leaves a remainder."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return []
    if len(num) < len(den):
        raise ArithmeticError("inexact polynomial division")
    rem = list(num)
    dn = len(den) - 1
    lead = den[-1]
    q = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        ri = rem[i]
        if ri == 0:
            continue
        if isinstance(ri, int) and isinstance(lead, int):
            if ri % lead:
                raise ArithmeticError("inexact polynomial division")
            c = ri // lead
        else:
            c = Fraction(ri) / Fraction(lead)
        q[i - dn] = c
        for j, dj in enumerate(den):
            rem[i - dn + j] -= c * dj
    if any(rem[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return ptrim(q)


def peval(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pcontent(p: list[int]) -> int:
    g = 0
    for c in p:
        g = gcd(g, c)
    return g


def pprimitive(p: list) -> list[int]:
    """Primitive integer multiple with positive leading coefficient.

    Accepts int or Fraction coefficients; the denominators are cleared
    first.  The input must carry no trailing zeros.
    """
    if any(isinstance(c, Fraction) for c in p):
        m = lcm(*(Fraction(c).denominator for c in p))
        p = [int(c * m) for c in p]
    g = pcontent(p)
    if g == 0:
        return []
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def pgcd(a: list, b: list) -> list:
    """Gcd over Q via a primitive pseudo-remainder sequence over Z.

    Accepts int or Fraction coefficients; the result is a primitive
    integer polynomial with positive leading coefficient (or [] for
    gcd(0,0)).
    """
    a = pprimitive(ptrim(list(a)))
    b = pprimitive(ptrim(list(b)))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder: lead(b)^(deg a - deg b + 1) * a mod b
        d = len(a) - len(b)
        r = [x * b[-1] ** (d + 1) for x in a]
        for i in range(len(r) - 1, len(b) - 2, -1):
            if r[i] == 0:
                continue
            if r[i] % b[-1] != 0:
                raise ArithmeticError("pseudo-division invariant broken")
            c = r[i] // b[-1]
            for j, bj in enumerate(b):
                r[i - len(b) + 1 + j] -= c * bj
        a, b = b, pprimitive(ptrim(r))
    return pprimitive(a)


def pdet_bareiss(mat: list[list[list[int]]]) -> list[int]:
    """Fraction-free determinant of a matrix of integer polynomials."""
    n = len(mat)
    a = [[list(e) for e in row] for row in mat]
    sign = 1
    prev: list[int] = [1]
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return []
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                num = psub(pmul(a[i][j], akk), pmul(aik, a[k][j]))
                a[i][j] = pdiv_exact(num, prev) if prev != [1] else num
            a[i][k] = []
        prev = akk
    out = a[n - 1][n - 1]
    return pscale(out, sign) if sign < 0 else out

