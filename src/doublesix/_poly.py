"""Internal univariate polynomial helpers for ``torsion.smooth_elsewhere``.

Polynomials are plain lists of integer coefficients, low degree first,
with no trailing zeros (the zero polynomial is the empty list).  Binary
(homogeneous two-variable) forms reuse the same lists: a form of degree
d is the length-(d+1) coefficient vector of u^i v^(d-i), and the degree
is carried by the caller.  The helpers are exact division by a node
linear and a primitive gcd over Z, for the node audit of the exact
route and the check of the node lines.  Every caller reads its forms
through ``TernaryForm.integer_terms()``, so only ``int`` coefficients
arrive here.  The exact route's eliminants are built by evaluation in
``forms.resultant_eliminate``, with integer determinants, so no matrix
of polynomials is ever formed.
"""

from __future__ import annotations

from math import gcd


def ptrim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def pdiv_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient num/den over Z; raises if the division leaves a remainder."""
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
        if ri % lead:
            raise ArithmeticError("inexact polynomial division")
        c = ri // lead
        q[i - dn] = c
        for j, dj in enumerate(den):
            rem[i - dn + j] -= c * dj
    if any(rem[:dn]):
        raise ArithmeticError("inexact polynomial division")
    return ptrim(q)


def pprimitive(p: list[int]) -> list[int]:
    """Primitive multiple with positive leading coefficient.  The input
    must carry no trailing zeros."""
    g = gcd(*p)
    if g == 0:
        return []
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def pgcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd over Q via a primitive pseudo-remainder sequence over Z.

    The result is a primitive integer polynomial with positive leading
    coefficient (or [] for gcd(0,0)).
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
