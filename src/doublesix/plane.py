"""Configurations of six labelled points in the projective plane.

A configuration is stored with an explicit 6x3 matrix of coordinate
representatives.  Most geometric predicates only depend on the points,
but the invariant calculus is a polynomial in the representatives, so
they are never normalized behind the caller's back: scaling a row or
hitting everything with a matrix transforms them exactly.  All of the
library's brackets and cross products are ``_bracket`` and ``_cross``.

"General position" means no three of the six points are collinear and
no conic passes through all six.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import mul
from typing import Iterable, Sequence

from .forms import Mono, TernaryForm, monomials_of_degree
from .linalg import Matrix, _bareiss_int, clear_denominators, kernel_basis, rat
from .perms import Perm, all_perms


class PointP2:
    """Point of the projective plane, stored in canonical scale.

    The representative is rescaled so the first nonzero coordinate is 1;
    equality and hashing use that canonical triple.  ``ints``, the one
    integer view of the point, is ``clear_denominators(coords)[0]``, with
    the lcm D of the denominators as its pivot.  It is primitive: a prime
    dividing D divides some denominator fully, and that entry not at all.
    """

    __slots__ = ("coords", "ints")

    def __init__(self, coords: Sequence) -> None:
        c = tuple(rat(x) for x in coords)
        if len(c) != 3:
            raise ValueError("a plane point needs three coordinates")
        lead = next((x for x in c if x != 0), None)
        if lead is None:
            raise ValueError("(0 : 0 : 0) is not a point")
        self.coords = tuple(x / lead for x in c)
        self.ints = tuple(clear_denominators(self.coords)[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, PointP2) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __repr__(self) -> str:
        return "(" + " : ".join(str(x) for x in self.coords) + ")"


class Config6:
    """Six labelled, pairwise distinct plane points with fixed representatives."""

    __slots__ = ("reps", "points")

    def __init__(self, reps: Iterable[Iterable]) -> None:
        rows = tuple(tuple(rat(x) for x in row) for row in reps)
        if len(rows) != 6 or any(len(r) != 3 for r in rows):
            raise ValueError("a configuration is six coordinate triples")
        pts = tuple(PointP2(r) for r in rows)
        if len(set(pts)) != 6:
            raise ValueError("configuration points must be pairwise distinct")
        self.reps = rows
        self.points = pts

    def apply(self, g: Matrix) -> "Config6":
        """Transform every representative by the invertible matrix g, exactly."""
        return Config6(tuple(g.apply(row) for row in self.reps))

    def rescale(self, factors: Sequence) -> "Config6":
        return Config6(
            tuple(tuple(rat(f) * x for x in row) for f, row in zip(factors, self.reps))
        )

    def relabel(self, sigma: Perm) -> "Config6":
        """Row i of the result is row sigma(i) of self (same representatives)."""
        return Config6(tuple(self.reps[sigma(i)] for i in range(6)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Config6) and self.reps == other.reps

    def __hash__(self) -> int:
        return hash(self.reps)

    def __repr__(self) -> str:
        return "Config6(" + ", ".join(repr(p) for p in self.points) + ")"

    def to_json(self) -> dict:
        return {"points": [[str(x) for x in row] for row in self.reps]}

    @classmethod
    def from_json(cls, data: dict) -> "Config6":
        if not isinstance(data, dict) or "points" not in data:
            raise ValueError('expected an object with a "points" key')
        return cls(data["points"])


#: Fixed reference configuration used by the test-suite and the CLI.
#: General position and trivial projective stabilizer are verified by
#: the test-suite, not assumed.
REF6 = Config6(
    [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 1),
        (1, 2, 3),
        (2, 5, 1),
    ]
)


@dataclass(frozen=True)
class GeneralPositionVerdict:
    ok: bool
    collinear_triple: tuple[int, int, int] | None = None  # 1-based labels
    conic: TernaryForm | None = None

    def describe(self) -> str:
        if self.ok:
            return "general position"
        if self.collinear_triple is not None:
            return "points %d, %d, %d are collinear" % self.collinear_triple
        return f"all six points lie on the conic {self.conic!r}"


def _cross(u: Sequence, v: Sequence) -> tuple:
    """The cross product u x v of triples: zero exactly when they are proportional."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _bracket(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> int:
    """The bracket [u v w] of integer triples, the determinant of those rows."""
    return sum(map(mul, u, _cross(v, w)))


def is_general_position(c: Config6) -> GeneralPositionVerdict:
    """No three collinear, no conic through all six; returns a witness on failure."""
    for triple in combinations(range(6), 3):
        if _bracket(*(c.points[i].ints for i in triple)) == 0:
            labels = tuple(i + 1 for i in triple)
            return GeneralPositionVerdict(False, collinear_triple=labels)
    # Order-0 rows: the conic monomials at each point, times a nonzero scale.
    ver = [integer_multiplicity_rows(2, p, 1)[0] for p in c.points]
    if _bareiss_int([row[:] for row in ver]) == 0:
        coeffs = kernel_basis(ver)[0]
        conic = TernaryForm.from_coefficient_vector(2, coeffs).canonical()
        return GeneralPositionVerdict(False, conic=conic)
    return GeneralPositionVerdict(True)


class DegenerateFiveTupleError(ValueError):
    """More than one conic passes through the five given points."""


def conic_through(pts: Sequence[PointP2]) -> TernaryForm:
    """The unique conic through five points, canonically scaled.

    Raises :class:`DegenerateFiveTupleError` when the five points fail
    to determine the conic (kernel dimension above one).
    """
    if len(pts) != 5:
        raise ValueError("a conic is determined by five points")
    basis = kernel_basis([integer_multiplicity_rows(2, p, 1)[0] for p in pts])
    if len(basis) != 1:
        raise DegenerateFiveTupleError(
            f"five-point system has a {len(basis)}-dimensional space of conics"
        )
    return TernaryForm.from_coefficient_vector(2, basis[0]).canonical()


# -- linear systems with assigned base multiplicities ----------------


def _integer_chart_columns(
    monos: Sequence[Mono], p: PointP2, orders: Sequence[tuple[int, int]]
) -> tuple[list[list[int]], int]:
    """Coefficient of u^i v^j in x^m(u e_a + v e_b + w p), one row per
    (i, j) in orders and one entry per monomial m of one degree n, row
    (i, j) scaled by d^(n - i - j) to integers; and d.

    The chart axis c is the pivot (first nonzero coordinate) of p and
    a < b are the other two, so the vertex (0:0:1) maps to p.  The
    Taylor coefficient of u^i v^j in x^m(u e_a + v e_b + w p) is
    C(m_a, i) C(m_b, j) p_a^(m_a - i) p_b^(m_b - j) p_c^(m_c).
    ``PointP2`` scales the pivot to p_c = 1, so with p = (n_a, n_b, d) / d
    read from ``p.ints``, and since m_a + m_b + m_c = n the scaled entry
    is the integer C(m_a, i) C(m_b, j) n_a^(m_a - i) n_b^(m_b - j) d^(m_c).
    An entry is nonzero only when i + j <= n.
    """
    c = next(i for i in range(3) if p.ints[i] != 0)
    a, b = (i for i in range(3) if i != c)
    degree = sum(monos[0]) if monos else 0
    na, nb, dc = ([p.ints[k] ** e for e in range(degree + 1)] for k in (a, b, c))
    rows = [
        [
            comb(m[a], i) * comb(m[b], j) * na[m[a] - i] * nb[m[b] - j] * dc[m[c]]
            if i <= m[a] and j <= m[b]
            else 0
            for m in monos
        ]
        for i, j in orders
    ]
    return rows, p.ints[c]


def _taylor_orders(mult: int) -> list[tuple[int, int]]:
    """The chart monomials u^i v^j of order i + j below mult."""
    return [(i, s - i) for s in range(mult) for i in range(s, -1, -1)]


def integer_multiplicity_rows(degree: int, p: PointP2, mult: int) -> list[list[int]]:
    """Linear conditions on a degree-d coefficient vector forcing
    multiplicity >= mult at p: one row per chart monomial u^i v^j of
    order i + j below mult, i.e. mult(mult+1)/2 rows.

    Row (i, j) holds, for each monomial x^m, its Taylor coefficient of
    u^i v^j in the chart at p, scaled by d^(degree - i - j) to an integer
    (see :func:`_integer_chart_columns`); nonzero row scales leave the
    kernel and every minor's vanishing unchanged.
    """
    return _integer_chart_columns(monomials_of_degree(degree), p, _taylor_orders(mult))[0]


@dataclass(frozen=True)
class CurveSystem:
    """Basis of the degree-d forms vanishing to assigned multiplicities."""

    degree: int
    conditions: tuple[tuple[PointP2, int], ...]
    basis: tuple[TernaryForm, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def linear_system(
    degree: int, conditions: Sequence[tuple[PointP2, int]] = ()
) -> CurveSystem:
    """All degree-d forms with multiplicity >= m_i at each point p_i.

    A point of multiplicity m imposes m(m+1)/2 conditions: every Taylor
    coefficient of order below m at the point, read in the chart of
    :func:`integer_multiplicity_rows`, must vanish.  The basis comes from
    the kernel of the stacked integer condition rows and is deterministic.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    for p, m in conditions:
        if m < 1:
            raise ValueError("multiplicities must be positive")
    monos = monomials_of_degree(degree)
    rows: list[list[int]] = []
    for p, m in conditions:
        rows.extend(integer_multiplicity_rows(degree, p, m))
    if rows:
        vectors = kernel_basis(rows)
    else:
        n = len(monos)
        vectors = [
            tuple(Fraction(1) if i == j else Fraction(0) for i in range(n))
            for j in range(n)
        ]
    basis = tuple(TernaryForm.from_coefficient_vector(degree, v) for v in vectors)
    return CurveSystem(degree, tuple((p, m) for p, m in conditions), basis)


# -- tangent cones ---------------------------------------------------


@dataclass(frozen=True)
class TangentCone:
    """Local data of a form at a point, read in the deterministic chart.

    quadric is the degree-2 chart part (u^2, uv, v^2 coefficients) and
    is only populated when the multiplicity is exactly 2; is_node then
    says whether it is nondegenerate (two distinct tangent directions).
    """

    multiplicity: int
    quadric: tuple[Fraction, Fraction, Fraction] | None
    is_node: bool


def chart_coefficients(f: TernaryForm, p: PointP2, order: int) -> tuple[Fraction, ...]:
    """Chart coefficients of f at p of the given total order, as the
    (order+1)-tuple of u^i v^(order-i) coefficients, i descending.

    These are the Taylor coefficients of f at p in the chart
    u e_a + v e_b + w p (see :func:`_integer_chart_columns`).  With f's
    coefficients cleared to integers over den, each is one integer dot
    product with a row of that function over den * d^(n - order).
    """
    return _chart_values(f.degree, f.integer_terms(), p, order)


def _chart_values(
    degree: int, terms: tuple[dict[Mono, int], int], p: PointP2, order: int
) -> tuple[Fraction, ...]:
    """``chart_coefficients`` of a form of this degree, from its ``integer_terms()``."""
    nums, den = terms
    orders = [(i, order - i) for i in range(order, -1, -1)]
    rows, d = _integer_chart_columns(list(nums), p, orders)
    scale = den * d ** max(degree - order, 0)  # rows above the degree are zero
    return tuple(Fraction(sum(map(mul, nums.values(), row)), scale) for row in rows)


def chart_quadratic_part(f: TernaryForm, p: PointP2) -> tuple[Fraction, Fraction, Fraction]:
    a, b, c = chart_coefficients(f, p, 2)
    return (a, b, c)


def tangent_cone(f: TernaryForm, p: PointP2) -> TangentCone:
    """Multiplicity of f at p plus the degree-2 cone when applicable; f's
    integer terms are read once for every order."""
    if f.is_zero:
        raise ValueError("the zero form has no well-defined multiplicity")
    terms = f.integer_terms()
    for s in range(f.degree + 1):
        coeffs = _chart_values(f.degree, terms, p, s)
        if any(c != 0 for c in coeffs):
            if s == 2:
                a, b, c = coeffs
                disc = b * b - 4 * a * c
                return TangentCone(2, (a, b, c), disc != 0)
            return TangentCone(s, None, False)
    raise AssertionError("nonzero form with no nonzero chart coefficient")


# -- projectivities --------------------------------------------------


def _adjugate(cols: Sequence[Sequence[int]]) -> list[tuple]:
    """adj(M) = det(M) M^-1, for the 3x3 matrix M with these columns."""
    return [_cross(cols[j - 2], cols[j - 1]) for j in range(3)]


def _frame(pts: Sequence[PointP2]) -> list[list[int]] | None:
    """The integer columns of ``frame_map``'s T for four points, or None."""
    p1, p2, p3, p4 = (p.ints for p in pts)
    lams = (_bracket(p4, p2, p3), _bracket(p1, p4, p3), _bracket(p1, p2, p4))
    if _bracket(p1, p2, p3) == 0 or 0 in lams:
        return None
    return [[lam * x for x in p] for lam, p in zip(lams, (p1, p2, p3))]


def _compose(cols: Sequence[Sequence[int]], adj: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer rows of T adj, for T given by its columns."""
    return [[sum(t[i] * a[k] for t, a in zip(cols, adj)) for k in range(3)] for i in range(3)]


def _normalized(g: Sequence[Sequence[int]]) -> Matrix:
    """The matrix g divided by its first nonzero entry."""
    lead = next(x for row in g for x in row if x != 0)
    return Matrix([[Fraction(x, lead) for x in row] for row in g])


def frame_map(source: Sequence[PointP2], target: Sequence[PointP2]) -> Matrix | None:
    """The projectivity sending four source points to four target points.

    Returns None when either quadruple has three collinear members (no
    valid frame).  On the points' ``ints``, T with columns l_j p_j sends
    e_1, e_2, e_3, (1, 1, 1) to p_1..p_4, where [p_1 p_2 p_3] l_j is the
    bracket with p_4 in place of p_j (Cramer): a frame exists when the
    four brackets are nonzero.  T_target adj(T_source) (``_adjugate``),
    unique up to scale, is divided by its first nonzero entry, whatever
    scale the integers had.
    """
    cols_s, cols_t = _frame(source), _frame(target)
    if cols_s is None or cols_t is None:
        return None
    return _normalized(_compose(cols_t, _adjugate(cols_s)))


def _projectivities(c1: Config6, c2: Config6, perms: Iterable[Perm]):
    """Yield (g, sigma) for each sigma of ``perms``, in order, for which the
    projectivity g of ``frame_map`` sends every p_i to q_sigma(i).  The
    source frame and its adjugate are built once; per sigma the integer
    T_target adj(T_source) is tested on p_5 and p_6, and only a match is
    divided into ``frame_map``'s matrix."""
    pts1, pts2 = c1.points, c2.points
    cols_s = _frame(pts1[:4])
    if cols_s is None:
        return
    adj = _adjugate(cols_s)
    for sigma in perms:
        cols_t = _frame([pts2[sigma(i)] for i in range(4)])
        if cols_t is None:
            continue
        g = _compose(cols_t, adj)
        if not any(
            any(_cross([sum(map(mul, row, pts1[i].ints)) for row in g], pts2[sigma(i)].ints))
            for i in range(4, 6)
        ):
            yield _normalized(g), sigma


def projective_stabilizer(c: Config6) -> list[tuple[Perm, Matrix]]:
    """All (permutation, matrix) pairs with g p_i proportional to p_sigma(i).

    Requires general position (any four points then form a frame).  The
    identity is always present; the list is sorted by image tuple.
    """
    return [(sigma, g) for g, sigma in _projectivities(c, c, all_perms(6))]


def projective_equivalence(
    c1: Config6, c2: Config6, respect_labels: bool = True
) -> tuple[Matrix, Perm] | None:
    """A projectivity g (and relabelling sigma) with g p_i ~ q_sigma(i).

    With respect_labels the permutation is forced to be the identity.
    Returns the first match in permutation order, or None.
    """
    perms = [Perm.identity(6)] if respect_labels else all_perms(6)
    return next(_projectivities(c1, c2, perms), None)


# -- sampling --------------------------------------------------------


def random_general_config(
    rng: random.Random, bound: int = 20, max_tries: int = 1000
) -> Config6:
    """Rejection-sample a general-position configuration with integer
    coordinates in [-bound, bound]."""
    for _ in range(max_tries):
        rows = []
        while len(rows) < 6:
            row = tuple(rng.randint(-bound, bound) for _ in range(3))
            if any(row):
                rows.append(row)
        try:
            c = Config6(rows)
        except ValueError:
            continue
        if is_general_position(c).ok:
            return c
    raise RuntimeError("failed to sample a general-position configuration")
