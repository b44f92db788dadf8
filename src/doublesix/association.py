"""Geometric realization of the double six: exceptional conics,
the second plane model, and the associated configuration.

Blowing up a general-position configuration gives a surface with two
plane models.  The second one contracts, for each label i, the conic
f_i through the five points other than x_i by the net V of quintics
double at all six points (Coble; Dolgachev & Ortland, Asterisque 165,
1988); the images of those conics are the associated configuration.
:func:`second_model` proves the contraction exactly in four steps:

1. Products.  The six conics come from one inverse: column i of the
   inverse of the 6x6 Veronese matrix of the points vanishes at every
   x_j with j != i and is 1 at x_i, so it spans f_i
   (:func:`exceptional_conics`).  g_i = f_i f_(i+1) L_(i,i+1), with
   L_(i,i+1) the line through x_i and x_(i+1) and indices mod 6, is
   double at all six points: two of its three factors vanish at each.
2. Dimension.  The 18 Taylor conditions of double points have rank 18
   mod a prime, hence over Q, so dim V = 3.  No f_i may be a line pair
   (that takes three collinear points), and dim V = 3 keeps the f_i
   pairwise distinct (six points on one smooth conic give dimension 4).
   So g_0, g_1, g_2 span V: a relation a g_0 + b g_1 + c g_2 = 0
   restricted to f_1 gives c = 0, and dividing by f_1 leaves a f_0 L_01
   = -b f_2 L_12, so a = b = 0.
3. Basis.  Reduced from the right, g_0, g_1, g_2 give the basis that
   the kernel of the conditions gives (``linalg.row_space_basis``), and
   the coordinates of every g_i in it are its entries at the identity
   columns F.
4. Images.  g_(i-1) and g_i both vanish on f_i, and g_(i+1) does not,
   so every point of f_i outside the finite base locus maps to
   g_(i-1)[F] x g_i[F], which is nonzero as g_(i-1) and g_i are not
   proportional: the conic is contracted at every point, not just at
   samples.

Everything here works with rational points only; torsion samples
conics through the rational configuration points they already contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ._modp import SCREEN_PRIMES, rank_mod
from .forms import Mono, TernaryForm, monomials_of_degree
from .linalg import _integer_row, _rref, rat, row_space_basis
from .plane import (
    Config6,
    DegenerateFiveTupleError,
    PointP2,
    _cross,
    conic_through,
    integer_multiplicity_rows,
    linear_system,
)


class ContractionError(RuntimeError):
    """The quintic net does not contract a conic to a point."""


def _inverse_veronese_columns(c: Config6) -> list[list[int]] | None:
    """The columns of V^-1 as primitive integer vectors, or None when V,
    the Veronese matrix of the configuration points, is singular.

    Row j of V holds the conic monomials at x_j, cleared of denominators
    (the one condition of ``integer_multiplicity_rows(2, x_j, 1)``; a row
    scale only rescales one column of V^-1).  Column i of V^-1 is row i
    of (V^T)^-1, and Gauss-Jordan of [V^T | I] leaves a multiple of that
    row in the right half of row i.
    """
    columns = [integer_multiplicity_rows(2, p, 1)[0] for p in c.points]
    red, pivots = _rref([[*row, *(int(r == k) for k in range(6))]
                         for r, row in enumerate(zip(*columns))])
    if pivots != list(range(6)):
        return None
    return [_integer_row(row[6:]) for row in red]


def exceptional_conics(c: Config6) -> tuple[TernaryForm, ...]:
    """The six conics f_i through all configuration points except x_i,
    each canonically scaled.

    f_i(x_j) = 0 exactly when i != j.  When the Veronese matrix V of the
    points is nonsingular, every five of them determine one conic, and
    f_i spans column i of V^-1, which takes one elimination for all six.
    Otherwise each five-tuple is solved with ``conic_through``: six
    points on one conic give six equal conics, and a five-tuple with
    more than one conic raises ``ValueError``.
    """
    vectors = _inverse_veronese_columns(c)
    if vectors is not None:
        leads = (next(x for x in v if x) for v in vectors)
        return tuple(TernaryForm.from_coefficient_vector(2, [Fraction(x, lead) for x in v])
                     for v, lead in zip(vectors, leads))
    out = []
    for i in range(6):
        others = [c.points[j] for j in range(6) if j != i]
        try:
            out.append(conic_through(others))
        except DegenerateFiveTupleError as exc:
            raise ValueError(
                f"configuration is not in general position near label {i + 1}: {exc}"
            ) from exc
    return tuple(out)


def _second_point_on_conic(f: TernaryForm, base: PointP2, direction: Sequence) -> PointP2 | None:
    """Second intersection of the conic with the line through base in
    the given direction.  None when the line is tangent at base or the
    direction degenerates."""
    d = tuple(rat(x) for x in direction)
    c2 = f.eval(d)
    mixed = f.eval(tuple(b + u for b, u in zip(base.coords, d))) - c2  # = 2 B(base, d)
    if c2 != 0:
        coords = tuple(c2 * b - mixed * u for b, u in zip(base.coords, d))
    elif mixed != 0:
        coords = d
    else:
        return None
    if all(x == 0 for x in coords):
        return None
    return PointP2(coords)


def sample_points_on_conic(
    f: TernaryForm, base: PointP2, avoid: Sequence[PointP2], count: int = 2
) -> list[PointP2]:
    """Deterministic rational points on the conic, away from `avoid`.

    Sweeps lines through the rational base point (which must lie on the
    conic) in directions (1, t, t^2).
    """
    if f.eval(base.coords) != 0:
        raise ValueError("base point does not lie on the conic")
    found: list[PointP2] = []
    banned = set(avoid)
    t = 0
    while len(found) < count and t < 200:
        p = _second_point_on_conic(f, base, (1, t, t * t))
        t += 1
        if p is None or p in banned or p in found:
            continue
        found.append(p)
    if len(found) < count:
        raise RuntimeError("could not sample enough rational points on the conic")
    return found


@dataclass(frozen=True)
class DoubleSixRealization:
    """A configuration together with its second plane model.

    associated.points[i] is the contraction image of the conic
    conics[i], which realizes the opposite sixer of the classical
    double six; quintic_basis spans the degree-5 forms double at all
    six points (always 3-dimensional in general position).
    """

    config: Config6
    conics: tuple[TernaryForm, ...]
    quintic_basis: tuple[TernaryForm, ...]
    associated: Config6


def _product(factors: Sequence[dict[Mono, int]]) -> dict[Mono, int]:
    """The product of integer forms given as {monomial: coefficient}."""
    out: dict[Mono, int] = {(0, 0, 0): 1}
    for f in factors:
        step: dict[Mono, int] = {}
        for (a, b, c), u in out.items():
            for (d, e, g), v in f.items():
                m = (a + d, b + e, c + g)
                step[m] = step.get(m, 0) + u * v
        out = step
    return out


def _is_line_pair(f: dict[Mono, int]) -> bool:
    """Whether the conic ax^2 + by^2 + cz^2 + dxy + exz + gyz, integer
    coefficients, is reducible: the test is half the determinant of its
    symmetric matrix [[2a, d, e], [d, 2b, g], [e, g, 2c]]."""
    a, b, c, d, e, g = (f.get(m, 0) for m in ((2, 0, 0), (0, 2, 0), (0, 0, 2),
                                              (1, 1, 0), (1, 0, 1), (0, 1, 1)))
    return 4 * a * b * c + d * e * g - a * g * g - b * e * e - c * d * d == 0


def second_model(c: Config6) -> DoubleSixRealization:
    """Contract the six exceptional conics and return the associated
    configuration, proved by the four steps of the module docstring.

    When neither prime of ``_modp.SCREEN_PRIMES`` shows the rank 18,
    ``linear_system(5)`` decides the dimension exactly, and any
    dimension but 3 raises ``ValueError``.  A conic that is a line pair
    raises :class:`ContractionError`, as would products that do not span
    the net or a zero cross product, which the proof rules out.
    """
    conics = exceptional_conics(c)
    rows = [row for p in c.points for row in integer_multiplicity_rows(5, p, 2)]
    if all(rank_mod(rows, prime) < 18 for prime in SCREEN_PRIMES):
        dimension = linear_system(5, [(p, 2) for p in c.points]).dimension
        if dimension != 3:
            raise ValueError(
                f"quintic system has dimension {dimension}, expected 3; "
                "the configuration is degenerate"
            )
    factors = [f.integer_terms()[0] for f in conics]
    for i, factor in enumerate(factors):
        if _is_line_pair(factor):
            raise ContractionError(
                f"conic {i + 1} is a line pair: three configuration points are collinear"
            )
    ints = [p.ints for p in c.points]
    quintics = monomials_of_degree(5)
    products = []
    for i in range(6):
        j = (i + 1) % 6
        line = dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), _cross(ints[i], ints[j])))
        g = _product([factors[i], factors[j], line])
        products.append([g.get(m, 0) for m in quintics])
    basis, free = row_space_basis(products[:3])
    if len(free) != 3:
        raise ContractionError(
            f"the products g_0, g_1, g_2 span {len(free)} dimensions of the quintic net"
        )
    coords = [[g[k] for k in free] for g in products]
    images = []
    for i in range(6):
        image = _cross(coords[i - 1], coords[i])
        if not any(image):
            raise ContractionError(
                f"conic {i + 1} has no image: the two products through it are proportional"
            )
        images.append(PointP2(image))
    associated = Config6([p.coords for p in images])
    qs = tuple(TernaryForm.from_coefficient_vector(5, v) for v in basis)
    return DoubleSixRealization(c, conics, qs, associated)
