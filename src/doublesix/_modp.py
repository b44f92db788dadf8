"""GF(p) helpers for the smoothness degree count and the quintic net.

Univariate polynomials are int lists, low degree first, coefficients
reduced mod p.  ``torsion._modp_resultants_x`` builds each eliminant mod
p as ``forms.resultant_eliminate`` builds it over Z: the forms
specialized at t = 0 .. mn by ``forms._specializations``, then
``resultant_mod`` at each point where Z uses an integer Sylvester
determinant, then the same ``forms._newton_interpolate`` and a division
by mn! mod p; ``gcd_mod`` then takes the gcd of the two eliminants.

A mod-p answer proves a fact in two places.  The first is ``rank_mod``
in ``association.second_model``: a minor that is nonzero mod p is a
nonzero integer, so an integer matrix of full row rank mod p has full
row rank over Q.  The second is ``gcd_mod`` in the degree count of
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

from ._poly import ptrim

#: The two fixed 30-bit primes the degree count and the net's rank try in turn.
SCREEN_PRIMES = (1073741789, 1073741783)


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of an integer matrix, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = pow(prow[c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """a mod b in GF(p)[u], trimmed; b is trimmed and nonzero."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(r) > db:
        # Cancel the top coefficient with c * b shifted to its degree.
        c = r.pop() * inv % p
        if c:
            i = len(r)
            r[i - db:i] = [(x - c * y) % p for x, y in zip(r[i - db:i], b)]
    return ptrim(r)


def gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in GF(p)[u] by the Euclidean algorithm."""
    a = ptrim([x % p for x in a])
    b = ptrim([x % p for x in b])
    while b:
        a, b = b, _rem_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def resultant_mod(f: list[int], g: list[int], p: int) -> int:
    """Res(f, g) over GF(p) by the Euclidean remainder sequence.

    The degrees m and n are those of the trimmed lists, so the answer is
    the Sylvester determinant of f and g at their true degrees.  With
    r = f mod g of degree k, Res(f, g) = (-1)^(mn) lc(g)^(m-k) Res(g, r);
    a zero remainder of a nonconstant g gives 0, and Res(f, c) = c^m for
    a constant c.  A zero polynomial gives 0.
    """
    f = ptrim([x % p for x in f])
    g = ptrim([x % p for x in g])
    if not f or not g:
        return 0
    res = 1
    while len(g) > 1:
        r = _rem_mod(f, g, p)
        if not r:
            return 0
        m, n = len(f) - 1, len(g) - 1
        if m * n % 2:
            res = -res
        res = res * pow(g[-1], m - len(r) + 1, p) % p
        f, g = g, r
    return res * pow(g[0], len(f) - 1, p) % p

