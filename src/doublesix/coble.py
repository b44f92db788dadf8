"""Bracket invariants of six labelled points and the symmetric-group
action on them.

The five degree-one generators are products of complementary 3x3
bracket determinants of the 6x3 representative matrix, and the sixth
is a difference of two degree-two bracket monomials:

    x0 = D123 D456   x1 = D124 D356   x2 = D125 D346
    x3 = D134 D256   x4 = D135 D246
    x5 = D123 D145 D246 D356 - D124 D135 D236 D456

They scale with weight (1,1,1,1,1,2): multiplying representative rows
by t_i multiplies x0..x4 by prod(t_i) and x5 by its square; a matrix g
on coordinates contributes det(g)^2 and det(g)^4.

Relabelling the points acts linearly on (x0..x4) and by the sign of
the permutation on x5.  A relabelling only permutes brackets, so each
action matrix is read off a table of the ten complementary bracket
products in terms of x0..x4 (five Grassmann-Pluecker relations), and
the sign follows from x5 being, up to a constant, the Veronese
determinant of the six points.  The classical table rows are kept as
reference data and cross-checked in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .association import second_model
from .linalg import Matrix, clear_denominators, rat
from .perms import Perm, class_size
from .plane import Config6, _bracket

#: Index triples (1-based) whose complementary bracket products give x0..x4.
GENERATOR_PARTITIONS: tuple[tuple[int, int, int], ...] = (
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 4),
    (1, 3, 5),
)

#: Weights of the six generators under the representative scaling action.
GENERATOR_WEIGHTS = (1, 1, 1, 1, 1, 2)


def bracket(c: Config6, labels: tuple[int, int, int]) -> Fraction:
    """Determinant of the representative rows picked by 1-based labels.

    Labels must be strictly increasing; a bracket vanishes exactly when
    the three points are collinear.
    """
    if len(labels) != 3 or not (1 <= labels[0] < labels[1] < labels[2] <= 6):
        raise ValueError(f"bracket labels must be strictly increasing in 1..6: {labels}")
    (ni, di), (nj, dj), (nk, dk) = (clear_denominators(c.reps[i - 1]) for i in labels)
    return Fraction(_bracket(ni, nj, nk), di * dj * dk)


def _complement(triple: tuple[int, int, int]) -> tuple[int, int, int]:
    return tuple(i for i in range(1, 7) if i not in triple)


@dataclass(frozen=True)
class CobleVector:
    """The six generator values on a configuration's representatives."""

    values: tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]
    reps: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    @property
    def degree_one(self) -> tuple[Fraction, ...]:
        return self.values[:5]

    def to_json(self) -> dict:
        return {
            "x": [str(v) for v in self.values],
            "representatives": [[str(x) for x in row] for row in self.reps],
        }


def coble_vector(c: Config6) -> CobleVector:
    """Evaluate the six generators on the configuration as given.

    The values depend on the chosen representatives (not only on the
    points), transforming with weights (1,1,1,1,1,2).  With row i as
    n_i / d_i, each bracket D_T is the integer determinant of the n_i
    over the product of its three d_i.  Each of x0..x4 uses every label
    once and each monomial of x5 every label twice, so with d the
    product of all six d_i, x0..x4 are integers over d and x5 one over
    d^2: one ``Fraction`` per value.
    """
    ints, dens = zip(*(clear_denominators(rep) for rep in c.reps))
    d = prod(dens)
    D = {t: _bracket(*(ints[i - 1] for i in t)) for t in combinations(range(1, 7), 3)}
    xs = [Fraction(D[t] * D[_complement(t)], d) for t in GENERATOR_PARTITIONS]
    x5 = Fraction(
        D[1, 2, 3] * D[1, 4, 5] * D[2, 4, 6] * D[3, 5, 6]
        - D[1, 2, 4] * D[1, 3, 5] * D[2, 3, 6] * D[4, 5, 6],
        d * d,
    )
    return CobleVector(tuple(xs) + (x5,), c.reps)


# -- the quartic relation ---------------------------------------------

RELATION_VARIANTS = ("plus", "minus")

#: Sign of the y0 term inside the last factor of the quartic relation.
#: Proved in the test-suite: the residual scales by det(g)^8 prod(t_i^4),
#: so it vanishes identically iff it vanishes on the frame chart e1, e2,
#: e3, (1,1,1), (1,a,b), (1,c,d), where its degree in each of a, b, c, d
#: is at most 4.  "plus" vanishes on the whole 5^4 grid {0..4}^4, hence
#: everywhere; "minus" does not.
CERTIFIED_RELATION_VARIANT = "plus"


def y_basis(values) -> tuple[Fraction, ...]:
    """Change of basis (y0..y5) = (x0, x1, x4, -x0-x2, -x0-x3, x5)."""
    x = [rat(v) for v in values]
    if len(x) != 6:
        raise ValueError("expected six generator values")
    return (x[0], x[1], x[4], -x[0] - x[2], -x[0] - x[3], x[5])


def relation_residual(values, variant: str = CERTIFIED_RELATION_VARIANT) -> Fraction:
    """Exact residual of the weighted quartic relation.

    Computes y5^2 - [(y0 y1 + y0 y2 + y1 y2 - y3 y4)^2
                     - 4 y0 y1 y2 (sign * y0 + y1 + y2 + y3 + y4)]
    where sign is +1 for variant "plus" and -1 for "minus".  A zero
    residual certifies vector membership in the relation hypersurface.
    """
    if variant not in RELATION_VARIANTS:
        raise ValueError(f"variant must be one of {RELATION_VARIANTS}")
    if isinstance(values, CobleVector):
        values = values.values
    y0, y1, y2, y3, y4, y5 = y_basis(values)
    sign = 1 if variant == "plus" else -1
    square = (y0 * y1 + y0 * y2 + y1 * y2 - y3 * y4) ** 2
    tail = 4 * y0 * y1 * y2 * (sign * y0 + y1 + y2 + y3 + y4)
    return y5 * y5 - (square - tail)


# -- symmetric-group action -------------------------------------------


@dataclass(frozen=True)
class ActionRecord:
    """Linear data of one relabelling: x' = matrix . x on (x0..x4),
    x5' = sign * x5."""

    perm: Perm
    matrix: Matrix
    sign: int

    @property
    def trace(self) -> Fraction:
        return sum(self.matrix.at(i, i) for i in range(5))


#: Each complementary bracket product D_T D_T' as an integer row in
#: (x0..x4), keyed by the triple T that contains label 1.  Five rows are
#: the generators themselves; the other five are Grassmann-Pluecker
#: relations (the test-suite proves every row on all 3^6 tuples of
#: coordinate basis vectors, which suffices since both sides are linear
#: in each representative row).
_PARTITION_PRODUCTS: dict[tuple[int, int, int], tuple[int, ...]] = {
    (1, 2, 3): (1, 0, 0, 0, 0),
    (1, 2, 4): (0, 1, 0, 0, 0),
    (1, 2, 5): (0, 0, 1, 0, 0),
    (1, 2, 6): (1, -1, 1, 0, 0),
    (1, 3, 4): (0, 0, 0, 1, 0),
    (1, 3, 5): (0, 0, 0, 0, 1),
    (1, 3, 6): (-1, 0, 0, -1, 1),
    (1, 4, 5): (-1, 1, -1, -1, 1),
    (1, 4, 6): (-1, 0, -1, 0, 1),
    (1, 5, 6): (1, -1, 0, 1, 0),
}


def _sorted_with_sign(labels: list[int]) -> tuple[tuple[int, int, int], int]:
    """Sort three distinct labels; the sign is that of the sorting permutation."""
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if labels[i] > labels[j])
    return tuple(sorted(labels)), -1 if inversions % 2 else 1


def s6_action(sigma: Perm) -> ActionRecord:
    """The exact matrix of a relabelling on the generators, read off the brackets.

    Row i of ``c.relabel(sigma)`` is row sigma(i) of c, so
    D_ijk(sigma c) = +-D_U(c) with U the sorted image labels and the
    sign that of the sort.  Generator g = D_T D_T' therefore becomes a
    signed complementary product D_U D_U' of c, whose row in (x0..x4)
    is read from ``_PARTITION_PRODUCTS``.

    x5 equals -det V, where V is the 6x6 Veronese matrix with columns
    x^2, y^2, z^2, xy, xz, yz on the representative rows (the classical
    conic condition; the test-suite proves the identity on a chart grid).
    Relabelling permutes the rows of V, so x5 changes by sign(sigma).
    """
    rows = []
    for triple in GENERATOR_PARTITIONS:
        image, sign = _sorted_with_sign([sigma(i - 1) + 1 for i in triple])
        co_image, co_sign = _sorted_with_sign([sigma(i - 1) + 1 for i in _complement(triple)])
        key = image if image[0] == 1 else co_image
        rows.append([sign * co_sign * a for a in _PARTITION_PRODUCTS[key]])
    return ActionRecord(sigma, Matrix(rows), sigma.sign())


#: Conjugacy-class representatives in a fixed order (cycle notation).
CONJUGACY_REPRESENTATIVES: tuple[tuple[str, tuple[tuple[int, ...], ...]], ...] = (
    ("id", ()),
    ("(12)", ((1, 2),)),
    ("(12)(34)", ((1, 2), (3, 4))),
    ("(12)(34)(56)", ((1, 2), (3, 4), (5, 6))),
    ("(123)", ((1, 2, 3),)),
    ("(123)(45)", ((1, 2, 3), (4, 5))),
    ("(123)(456)", ((1, 2, 3), (4, 5, 6))),
    ("(1234)", ((1, 2, 3, 4),)),
    ("(1234)(56)", ((1, 2, 3, 4), (5, 6))),
    ("(12345)", ((1, 2, 3, 4, 5),)),
    ("(123456)", ((1, 2, 3, 4, 5, 6),)),
)


def representative_perm(name: str) -> Perm:
    for label, cycles in CONJUGACY_REPRESENTATIVES:
        if label == name:
            return Perm.from_cycles(cycles)
    raise KeyError(name)


#: Classical table of the action on (x0..x4) for the ten non-identity
#: representatives; rows are images of (x0..x4) as integer vectors.
#: ``s6_action`` must reproduce these exactly.
REFERENCE_ACTION_ROWS: dict[str, tuple[tuple[int, ...], ...]] = {
    "(12)": ((-1, 0, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0), (1, -1, 0, 1, 0), (-1, 0, -1, 0, 1)),
    "(12)(34)": ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (-1, 1, 0, -1, 0), (-1, 0, 0, -1, 1)),
    "(12)(34)(56)": ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (1, -1, 1, 0, 0), (1, -1, 0, 1, 0), (0, 0, 0, 0, 1)),
    "(123)": ((1, 0, 0, 0, 0), (1, -1, 0, 1, 0), (-1, 0, -1, 0, 1), (0, -1, 0, 0, 0), (0, 0, -1, 0, 0)),
    "(1234)": ((1, -1, 0, 1, 0), (1, 0, 0, 0, 0), (1, 0, 1, 0, -1), (0, 1, 0, 0, 0), (1, 0, 0, 1, -1)),
    "(1234)(56)": ((-1, 1, 0, -1, 0), (-1, 0, 0, 0, 0), (1, -1, 1, 1, -1), (0, -1, 0, 0, 0), (0, 0, 0, 0, -1)),
    "(12345)": ((-1, 1, 0, -1, 0), (1, 0, 1, 0, -1), (1, 0, 0, 0, 0), (1, 0, 0, 1, -1), (0, 1, 0, 0, 0)),
    "(123)(45)": ((-1, 0, 0, 0, 0), (-1, 0, -1, 0, 1), (1, -1, 0, 1, 0), (0, 0, -1, 0, 0), (0, -1, 0, 0, 0)),
    "(123456)": ((1, -1, 0, 1, 0), (-1, 0, -1, 0, 1), (-1, 1, -1, -1, 1), (-1, 0, 0, -1, 1), (0, 0, 0, 0, 1)),
    "(123)(456)": ((1, 0, 0, 0, 0), (1, 0, 1, 0, -1), (1, -1, 1, 1, -1), (0, 0, 1, 0, 0), (1, -1, 1, 0, 0)),
}


# -- character ---------------------------------------------------------


@dataclass(frozen=True)
class CharacterRow:
    class_name: str
    size: int
    trace: Fraction
    standard_trace: int


@dataclass(frozen=True)
class CharacterReport:
    rows: tuple[CharacterRow, ...]
    norm: Fraction
    irreducible: bool
    differs_from_standard: bool

    def to_json(self) -> dict:
        return {
            "classes": [
                {
                    "class": r.class_name,
                    "size": r.size,
                    "trace": str(r.trace),
                    "standard_trace": r.standard_trace,
                }
                for r in self.rows
            ],
            "norm": str(self.norm),
            "irreducible": self.irreducible,
            "differs_from_standard": self.differs_from_standard,
        }


def character_report() -> CharacterReport:
    """Traces per conjugacy class, the character norm, and a comparison
    with the standard five-dimensional character (#fixed points - 1).

    Norm 1 certifies irreducibility; the character agrees with the
    standard one only up to the outer twist, so at least one class must
    differ.
    """
    rows = []
    total = Fraction(0)
    for name, cycles in CONJUGACY_REPRESENTATIVES:
        perm = Perm.from_cycles(cycles)
        record = s6_action(perm)
        size = class_size(perm.cycle_type())
        trace = record.trace
        rows.append(CharacterRow(name, size, trace, perm.fixed_points() - 1))
        total += size * trace * trace
    norm = total / 720
    differs = any(r.trace != r.standard_trace for r in rows)
    return CharacterReport(tuple(rows), norm, norm == 1, differs)


# -- association sign --------------------------------------------------


@dataclass(frozen=True)
class SchlaefliCheck:
    """Outcome of comparing generator vectors across the double six."""

    accepted: bool
    scale: Fraction
    vector: CobleVector
    associated_vector: CobleVector

    def to_json(self) -> dict:
        return {
            "accepted": self.accepted,
            "scale": str(self.scale),
            "x": [str(v) for v in self.vector.values],
            "x_associated": [str(v) for v in self.associated_vector.values],
        }


def schlaefli_sign_check(c: Config6) -> SchlaefliCheck:
    """Verify the sign flip of x5 across the association.

    The associated configuration (contraction images of the six
    conics, in matching labels) must satisfy x'_j = t x_j for j <= 4
    for a single scale t, and x'_5 = -t^2 x_5.
    """
    v = coble_vector(c)
    w = coble_vector(second_model(c).associated)
    scale = None
    for j in range(5):
        if v[j] != 0:
            scale = w[j] / v[j]
            break
    if scale is None:
        raise ValueError("all degree-one generators vanish; sign is undetermined")
    proportional = all(w[j] == scale * v[j] for j in range(5))
    accepted = proportional and w[5] == -(scale * scale) * v[5]
    return SchlaefliCheck(accepted, scale, v, w)
