"""Geometric realization of the double six: exceptional conics,
the second plane model, and the associated configuration.

Blowing up a general-position configuration gives a surface with two
plane models.  The second one contracts, for each label i, the conic
through the five points other than x_i; the images of those conics are
the associated configuration.  Everything here works with rational
points only: conics are sampled through the rational configuration
points they already contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .forms import TernaryForm
from .linalg import rat
from .plane import (
    Config6,
    DegenerateFiveTupleError,
    PointP2,
    conic_through,
    linear_system,
)


class ContractionError(RuntimeError):
    """The two sample points of a conic mapped to different images."""


def exceptional_conics(c: Config6) -> tuple[TernaryForm, ...]:
    """The six conics f_i through all configuration points except x_i.

    f_i(x_j) = 0 exactly when i != j; requires general position (five
    points of such a configuration always determine one conic).
    """
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


def second_model(c: Config6) -> DoubleSixRealization:
    """Contract the six exceptional conics and return the associated
    configuration.

    Each conic is sampled in two rational points; their images under
    the quintic system must agree projectively (this is the
    contraction), otherwise :class:`ContractionError` is raised.
    """
    conics = exceptional_conics(c)
    system = linear_system(5, [(p, 2) for p in c.points])
    if system.dimension != 3:
        raise ValueError(
            f"quintic system has dimension {system.dimension}, expected 3; "
            "the configuration is degenerate"
        )
    qs = system.basis
    images = []
    for i in range(6):
        base = c.points[(i + 1) % 6]  # a configuration point on f_i
        samples = sample_points_on_conic(conics[i], base, c.points, count=2)
        vecs = [tuple(q.eval(p.coords) for q in qs) for p in samples]
        if any(all(x == 0 for x in v) for v in vecs):
            raise ContractionError(f"conic {i + 1} sample hit the base locus")
        p0, p1 = PointP2(vecs[0]), PointP2(vecs[1])
        if p0 != p1:
            raise ContractionError(
                f"conic {i + 1} images disagree: {p0!r} vs {p1!r}"
            )
        images.append(p0)
    associated = Config6([p.coords for p in images])
    return DoubleSixRealization(c, conics, tuple(qs), associated)
