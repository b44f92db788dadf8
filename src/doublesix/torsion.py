"""Three-torsion detection on six-nodal plane sextics.

A plane sextic with ordinary nodes exactly at the six points of a
general-position configuration pulls back, on the associated double
cover, to a divisor class that is either trivial or of order three.
The certificates built here decide which, in exact arithmetic:

* ``node_profile`` checks that a candidate form really has six nodes,
* ``torsion_rank`` computes the matching space of nodal sextics whose
  local data agree with the candidate along each node (side ``"E"``)
  or along each exceptional conic (side ``"F"``),
* ``smooth_elsewhere`` certifies the curve has no singular points
  beyond the six nodes,
* ``certify`` bundles the above into an accept/reject verdict, and
  ``certify_pencil`` sweeps the distinguished pencil of products of
  complementary conic triples until a member certifies.

Rank two on side ``"E"`` is the torsion signature: the candidate then
moves in a pencil whose two distinguished members cut out the two
nontrivial torsion classes, inverse to one another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Sequence, Union

from . import _modp
from ._poly import pdiv_exact, pgcd, pprimitive, ptrim
from .association import _is_line_pair, exceptional_conics, sample_points_on_conic
from .forms import (
    TernaryForm,
    _newton_interpolate,
    _specializations,
    monomials_of_degree,
    resultant_eliminate,
)
from .linalg import Matrix, Rational, clear_denominators, kernel_basis, rat
from .plane import (
    Config6,
    PointP2,
    _adjugate,
    _integer_chart_columns,
    integer_multiplicity_rows,
    is_general_position,
    linear_system,
    tangent_cone,
)


# ----------------------------------------------------------------------
# Node profiles


@dataclass(frozen=True)
class NodeDiagnosis:
    """First failure found while checking the six required nodes."""

    point_label: int  # 1-based index of the offending configuration point
    multiplicity: int
    kind: str  # "smooth-point", "multiplicity-m", "degenerate-tangent-cone"

    @property
    def ok(self) -> bool:
        return False

    def describe(self) -> str:
        return f"point {self.point_label}: {self.kind}"


@dataclass(frozen=True)
class NodalSextic:
    """A degree-six form with ordinary nodes at all six configuration points."""

    config: Config6
    form: TernaryForm
    cones: tuple[tuple[Rational, Rational, Rational], ...]

    @property
    def ok(self) -> bool:
        return True


def node_profile(config: Config6, form: TernaryForm) -> Union[NodalSextic, NodeDiagnosis]:
    """Check that ``form`` has an ordinary node at every point of ``config``.

    Returns a ``NodalSextic`` carrying the six tangent-cone quadrics on
    success, or a ``NodeDiagnosis`` describing the first failure.
    """
    if form.degree != 6:
        raise ValueError("node profiles are defined for degree-six forms")
    if form.is_zero:
        raise ValueError("zero form has no node profile")
    cones = []
    for label, p in enumerate(config.points, start=1):
        tc = tangent_cone(form, p)
        if tc.multiplicity != 2:
            kind = (
                "smooth-point"
                if tc.multiplicity < 2
                else f"multiplicity-{tc.multiplicity}"
            )
            return NodeDiagnosis(label, tc.multiplicity, kind)
        if not tc.is_node:
            return NodeDiagnosis(label, 2, "degenerate-tangent-cone")
        cones.append(tc.quadric)
    return NodalSextic(config, form, tuple(cones))


# ----------------------------------------------------------------------
# Matching spaces and torsion rank


@dataclass(frozen=True)
class TorsionRank:
    """Dimension and basis of a matching space of nodal sextics."""

    side: str  # "E" or "F"
    dimension: int
    basis: tuple[TernaryForm, ...]

    @property
    def nontrivial(self) -> bool:
        # The candidate itself always matches, so dimension two means a
        # genuinely independent partner exists.
        return self.dimension == 2


def _proportionality_rows(
    vectors: Sequence[Sequence[Rational]], reference: Sequence[Rational]
) -> list[list[Rational]]:
    """Linear conditions forcing a combination of ``vectors`` onto the line
    spanned by ``reference``.

    Each vector and the reference live in Q^3.  When the reference is zero
    the conditions force every coordinate of the combination to vanish.
    """
    rows = []
    if all(x == 0 for x in reference):
        for t in range(3):
            rows.append([vec[t] for vec in vectors])
        return rows
    r0, r1, r2 = reference
    rows.append([r1 * vec[0] - r0 * vec[1] for vec in vectors])
    rows.append([r2 * vec[0] - r0 * vec[2] for vec in vectors])
    rows.append([r2 * vec[1] - r1 * vec[2] for vec in vectors])
    return rows


def _integer_vectors(forms: Sequence[TernaryForm]) -> list[list[int]]:
    """The forms' coefficient vectors over one common denominator, the lcm
    of their own."""
    cleared = [g.integer_terms() for g in forms]
    common = lcm(*(den for _, den in cleared))
    monos = monomials_of_degree(forms[0].degree)
    return [[nums.get(m, 0) * (common // den) for m in monos] for nums, den in cleared]


def _canonical_combination(coeffs: Sequence, members: Sequence[TernaryForm]) -> TernaryForm:
    """``canonical()`` of sum coeffs[i] * members[i], summed on integers and
    divided by its first nonzero entry, which removes the cleared scale."""
    cs, _ = clear_denominators(coeffs)
    total = [sum(map(mul, cs, column)) for column in zip(*_integer_vectors(members))]
    lead = next((t for t in total if t), 1)
    degree = members[0].degree
    return TernaryForm.from_coefficient_vector(degree, [Fraction(t, lead) for t in total])


def _matching_vectors(
    sextic: NodalSextic, side: str, basis: Sequence[TernaryForm]
) -> list[tuple[list[list[int]], list[int]]]:
    """Per node or conic: the integer vector of each basis member and the
    candidate's, at one positive scale per site (see :func:`torsion_rank`)."""
    config = sextic.config
    # Per site: integer rows, one per entry of a vector.
    tables = []
    if side == "E":
        monos = monomials_of_degree(6)
        for p in config.points:
            # The order-2 Taylor rows, those chart_quadratic_part reads.
            tables.append(_integer_chart_columns(monos, p, ((2, 0), (1, 1), (0, 2)))[0])
    else:
        if not _singular_at(sextic.form, config.points):
            raise ArithmeticError("the candidate is not singular at every configuration point")
        for i, conic in enumerate(exceptional_conics(config)):
            # The Hessian determinant is twice the line-pair discriminant.
            if _is_line_pair(conic.integer_terms()[0]):
                raise ValueError(f"exceptional conic {i + 1} is singular")
            base = config.points[(i + 1) % 6]
            samples = sample_points_on_conic(conic, base, config.points, count=3)
            tables.append([integer_multiplicity_rows(6, q, 1)[0] for q in samples])
    vecs = _integer_vectors([*basis, sextic.form])
    sites = [[[sum(map(mul, row, vec)) for row in table] for vec in vecs] for table in tables]
    return [(site[:-1], site[-1]) for site in sites]


def torsion_rank(sextic: NodalSextic, side: str) -> TorsionRank:
    """Dimension of the space of nodal sextics matching ``sextic`` locally.

    Side ``"E"`` matches tangent cones at the six nodes; side ``"F"``
    matches restrictions to the six exceptional conics.  Both sides must
    agree, and dimension two signals nontrivial three-torsion.

    Each site, a node or a conic, maps a sextic g to a vector in Q^3; the
    conditions ask a combination of the basis members' vectors to be
    proportional to the candidate's.  A site's vectors matter only up to
    one shared nonzero scale s: it multiplies each row of
    ``_proportionality_rows`` by s^2 (by s if the reference is zero), which
    keeps the kernel and the unique reduced echelon basis ``kernel_basis``
    returns.  So the members and the candidate are cleared over one common
    denominator D, and each integer coefficient vector is dotted with the
    integer rows of each site; ``_canonical_combination`` sums the basis
    on the same integers, as canonical(sum c_i D b_i) = canonical(sum c_i b_i).

    * At a node p the rows are the order-2 rows of ``_integer_chart_columns``,
      d^4 times the (2, 0), (1, 1), (0, 2) Taylor rows, so g's vector is
      D d^4 times its chart quadric.
    * On conic C they are the order-0 rows of ``integer_multiplicity_rows``
      at three rational points P_k of C off the configuration points
      (``sample_points_on_conic``), the sextic monomials at P_k cleared to
      integers, so entry k is g(P_k) times a factor set by P_k.

    Why these vectors give the rank of the conic restrictions: a smooth
    conic has a rational parametrization theta of degree two, and a sextic
    g that is singular at the five configuration points on C restricts to
    g(theta) = forced * q_g, where forced is the squared product of the
    five points' parameters and q_g is a binary quadric.  Each P_k is
    theta(t_k) up to a scalar, for distinct t_k with forced(t_k) != 0, so
    g(P_k) = c_k q_g(t_k) with c_k != 0 the same for every g and for the
    candidate.  The map q -> (q(t_1), q(t_2), q(t_3)) is invertible on
    binary quadrics for distinct t_k, so it keeps every proportionality
    condition, and scaling entry k by c_k only multiplies each row of
    ``_proportionality_rows`` by a nonzero factor.  So the kernel, and the
    basis below, are those of the quadric coefficients.

    The argument needs its two premises, so side ``"F"`` checks them:
    a candidate not singular at every configuration point raises
    ``ArithmeticError``, and a singular exceptional conic (a line pair,
    which has no such parametrization) raises ``ValueError``.
    """
    if side not in ("E", "F"):
        raise ValueError("side must be 'E' or 'F'")
    system = linear_system(6, [(p, 2) for p in sextic.config.points])
    rows: list[list[int]] = []
    for vectors, reference in _matching_vectors(sextic, side, system.basis):
        rows.extend(_proportionality_rows(vectors, reference))
    kernel = kernel_basis(rows)
    basis = tuple(_canonical_combination(vec, system.basis) for vec in kernel)
    return TorsionRank(side, len(kernel), basis)


# ----------------------------------------------------------------------
# Smoothness away from the nodes


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Outcome of the singular-locus certification."""

    certified: bool
    attempts: int
    detail: str
    node_orders: tuple[int, ...] | None = None  # gcd multiplicity per node
    route: str | None = None  # "degree count" or "exact"; None if not certified

    def describe(self) -> str:
        status = "smooth away from the nodes" if self.certified else "not certified"
        return f"{status} ({self.detail})"


#: The coordinate frames tried in turn by ``smooth_elsewhere`` and
#: ``smooth_screen``, as (matrix, integer adjugate) pairs; the first is the identity.
_FRAMES = [
    (m, _adjugate([[int(x) for x in col] for col in m.transpose().rows]))
    for m in (
        Matrix.identity(3),
        Matrix([[3, -2, -3], [-3, -3, -3], [-3, -1, -3]]),
        Matrix([[2, 1, 1], [0, 1, -3], [1, -1, -3]]),
        Matrix([[3, -2, 1], [-2, -3, 3], [2, 1, -1]]),
    )
]


def _binary_coefficients(form: TernaryForm) -> list[int]:
    """Coefficient list of a form in (y, z) only, indexed by the y-degree,
    as integers over the form's common denominator."""
    nums, _ = form.integer_terms()
    if any(i for i, _, _ in nums):
        raise ValueError("form still involves the eliminated variable")
    return [nums.get((0, j, form.degree - j), 0) for j in range(form.degree + 1)]


def _restrict_line(form: TernaryForm, ys: list[int], zs: list[int]) -> list[int]:
    """Integer coefficients of form(s, Y, Z) as a polynomial in s, over the
    form's common denominator; ys and zs hold the powers of Y and Z."""
    nums, _ = form.integer_terms()
    out = [0] * (form.degree + 1)
    for (i, j, k), c in nums.items():
        out[i] += c * ys[j] * zs[k]
    return ptrim(out)


def _divide_out_root(poly: list[int], num: int, den: int) -> tuple[list[int], int]:
    """Divide an integer u-polynomial by den*u - num, made primitive, to exhaustion.

    As the linear is primitive, by Gauss's lemma each quotient that
    exists over Q is integral and ``pdiv_exact`` finds it over Z.
    Returns (quotient, count).
    """
    root = Fraction(num, den)
    linear = [-root.numerator, root.denominator]
    count = 0
    while poly:
        try:
            poly = pdiv_exact(poly, linear)
        except ArithmeticError:
            break
        count += 1
    return poly, count


def _trailing_v_split(coeffs: list) -> tuple[list, int]:
    """Split a binary form into (dehomogenized u-poly, power of v)."""
    trimmed = ptrim(list(coeffs))
    return trimmed, len(coeffs) - len(trimmed)


def _node_factor_audit(
    a_poly: list[int],
    b_poly: list[int],
    v_power: int,
    projections: list[tuple[int, int]],
) -> tuple[tuple[int, ...] | None, str]:
    """Divide node-projection linears out of both eliminants, then audit the rest.

    Returns (per-node orders, detail); the orders are None when the common
    factor is not explained by the nodes, and ``detail`` says why.  A
    node's order is the smaller of its two counts, which is its
    multiplicity in gcd(a, b).  Each finite node must divide both
    eliminants, only a node at z = 0 may absorb the common power of v, and
    an exact ``pgcd`` must find the cofactors coprime.
    """
    orders = []
    for y, z in projections:
        if z == 0:
            if v_power < 1:
                return None, "node projection missing from the common factor"
            orders.append(v_power)
            v_power = 0
            continue
        a_poly, count_a = _divide_out_root(a_poly, y, z)
        b_poly, count_b = _divide_out_root(b_poly, y, z)
        if min(count_a, count_b) < 1:
            return None, "node projection missing from the common factor"
        orders.append(min(count_a, count_b))
    if v_power > 0:
        return None, "unexplained common root at infinity"
    degree = len(pgcd(a_poly, b_poly)) - 1
    if degree > 0:
        return None, f"residual common factor of degree {degree}"
    return tuple(orders), ""


def _node_ints(nodes: Sequence) -> list:
    """The nodes' ``PointP2.ints``, or raw triples (even (0, 0, 0)) cleared."""
    out = [p.ints if isinstance(p, PointP2) else clear_denominators(list(map(rat, p)))[0]
           for p in nodes]
    if any(len(q) != 3 for q in out):
        raise ValueError("a plane point needs three coordinates")
    return out


def _admissible_frames(form: TernaryForm, node_ints: list):
    """Coordinate frames in which the vertical projection is usable.

    Yields (moved form, moved nodes) for each frame of ``_FRAMES`` under
    which the projection vertex avoids the curve, the eliminations stay
    proper, and the nodes project to distinct points.  The adjugate moves
    integer nodes to multiples of their images; projections (y1, z1) and
    (y2, z2) meet when y1 z2 = y2 z1 and (y1 = 0) = (y2 = 0).
    """
    for index, (transform, adj) in enumerate(_FRAMES):
        # Frame 0 is the identity, under which the form is its own image.
        moved = form.substitute(transform) if index else form
        if (
            moved.coefficient((6, 0, 0)) == 0
            or moved.coefficient((5, 1, 0)) == 0
            or moved.coefficient((5, 0, 1)) == 0
        ):
            yield None, "projection center or axis meets the curve"
            continue
        moved_nodes = [tuple(sum(map(mul, row, q)) for row in adj) for q in node_ints]
        if any(
            y1 * z2 == y2 * z1 and (y1 == 0) == (y2 == 0)
            for (_, y1, z1), (_, y2, z2) in combinations(moved_nodes, 2)
        ):
            yield None, "two nodes share a projection line"
            continue
        yield (moved, moved_nodes), ""


def _singular_at(form: TernaryForm, points: list) -> bool:
    """Exact check that every point is nonzero and the form is singular there.

    The double-point rows ``integer_multiplicity_rows(d, p, 2)``, which
    ``linear_system`` imposes, are the chart rows of orders 0 and 1.  If
    they annihilate f's coefficients, f(p) = 0 and f's derivatives along
    e_a and e_b vanish at p; Euler gives p . grad f(p) = d f(p) = 0, and
    {e_a, e_b, p} is a basis, so grad f(p) = 0; the converse holds for
    d >= 1.  (0, 0, 0) gives False; other points ``PointP2`` rejects raise.
    """
    nums, _ = form.integer_terms()
    vec = [nums.get(m, 0) for m in monomials_of_degree(form.degree)]
    return all(
        any(rat(c) != 0 for c in q)
        and not any(
            sum(map(mul, row, vec))
            for row in integer_multiplicity_rows(form.degree, PointP2(q), 2)
        )
        for q in points
    )


def _modp_resultants_x(f: TernaryForm, others: Sequence[TernaryForm], p: int) -> list:
    """Res_x(f, g) mod p for each g in ``others``, as a binary coefficient
    list, or None on bad reduction.

    Entry j is the coefficient of y^j z^(mn - j), as in
    ``resultant_eliminate``.  A denominator divisible by p, or an x^m or
    x^n coefficient divisible by p (a form that vanishes mod p among
    them), gives None.

    This is the construction of ``resultant_eliminate`` over GF(p).
    Each form's integer numerators, over its common denominator, are
    reduced mod p with one inverse of that denominator and specialized
    at (y, z) = (t, 1) by ``forms._specializations``; f once, at
    t = 0 .. mn for the largest n, whose prefix serves a smaller n.
    Both leading x-coefficients are nonzero constants mod p, so the
    resultant commutes with reduction and with specialization:
    Res_x(f, g)(t, 1) = Res(f(x, t, 1), g(x, t, 1)) over GF(p), with both
    univariate polynomials at full degree.  That binary form has degree
    mn, so its values at t = 0 .. mn determine it: each value comes from
    ``_modp.resultant_mod``, ``forms._newton_interpolate`` returns mn!
    times the interpolant over Z, and multiplying by the inverse of mn!
    mod p, which exists because p > mn, leaves the interpolant.  Each
    list is the exact eliminant of the reduced forms, reduced mod p,
    entry by entry.
    """
    m = f.degree
    top = m * max(g.degree for g in others)
    if p <= top:
        raise ValueError(f"interpolating a degree-{top} eliminant needs p > {top}")
    fs = _modp_specialized(f, p, top + 1)
    out = []
    for g in others:
        gs = None if fs is None else _modp_specialized(g, p, m * g.degree + 1)
        if gs is None:
            out.append(None)
            continue
        values = [_modp.resultant_mod(fu, gu, p) for fu, gu in zip(fs, gs)]
        coeffs, weight = _newton_interpolate(values)
        inv = pow(weight, -1, p)
        out.append([c * inv % p for c in coeffs])
    return out


def _modp_specialized(form: TernaryForm, p: int, count: int) -> list[list[int]] | None:
    """The form mod p at (y, z) = (t, 1) for t = 0 .. count - 1, as
    polynomials in x; None when p divides the common denominator or the
    x^deg coefficient."""
    nums, den = form.integer_terms()
    if den % p == 0:  # p divides a coefficient's denominator
        return None
    inv = pow(den, -1, p)
    reduced = ((mono, c * inv % p) for mono, c in nums.items())
    polys = _specializations(form.degree, reduced, 0, count)
    if polys[0][-1] == 0:  # the x^deg coefficient vanishes mod p
        return None
    return polys


def _modp_gcd_degree(fx: TernaryForm, fy: TernaryForm, fz: TernaryForm) -> int | None:
    """Degree of gcd(Res_x(fx, fy), Res_x(fx, fz)) as binary forms over GF(p).

    p is the first prime of ``_modp.SCREEN_PRIMES`` at which both
    eliminants reduce and neither vanishes; None when there is no such
    prime; ``_modp_resultants_x`` reduces and specializes fx once per
    prime for both.  The gcd of binary forms is the gcd of the
    dehomogenized parts times the smaller of the two powers of v.
    """
    for p in _modp.SCREEN_PRIMES:
        elims = _modp_resultants_x(fx, (fy, fz), p)
        if any(e is None or not any(e) for e in elims):
            continue
        (a_poly, a_v), (b_poly, b_v) = (_trailing_v_split(e) for e in elims)
        return len(_modp.gcd_mod(a_poly, b_poly, p)) - 1 + min(a_v, b_v)
    return None


def smooth_elsewhere(form: TernaryForm, nodes: Sequence) -> SmoothnessVerdict:
    """Certify that ``form`` is singular only at the given node points.

    Projects the singular locus away from a coordinate vertex by
    eliminating the first variable from two partial-derivative pairs,
    shows that the two eliminants share exactly the node projections,
    each once, and insists on a unique singular point on each node's
    vertical line.  Coordinate changes from a fixed catalog retry any
    coincidental failure.

    In each admissible frame a degree count mod p is tried first.  The
    leading x-coefficients of the partials are nonzero constants, so each
    node, where fx = fy = fz = 0, projects to a root of both binary forms
    a = Res_x(fx, fy) and b = Res_x(fx, fz) of degree 25, and the n node
    projections are distinct: deg gcd(a, b) >= n over Q.  Reduction mod a
    prime p that divides no denominator and neither leading x-coefficient
    preserves each resultant.  When a and b stay nonzero mod p, their
    primitive gcd g over Z divides both, and g mod p is a nonzero binary
    form of the same degree, so reduction can only raise the degree of
    the gcd (Brown 1971 and Collins 1971, J. ACM 18(4)).  A gcd
    of degree exactly n mod p therefore proves that gcd(a, b) is the
    product of the n node linears, each of order 1; route "degree count".
    The argument needs every given node to be a singular point, which is
    checked exactly first, since the caller may not have run
    ``node_profile``.

    Any other outcome (a gcd of higher degree, no prime with a good and
    nonzero reduction, a node that is not singular) falls back to the
    exact eliminants in the same frame, which ``resultant_eliminate``
    builds by the same evaluation at t = 0 .. 25, over Z.  Their audit
    divides each node projection out of both and asks an exact ``pgcd``
    whether the cofactors are coprime; route "exact".  Both routes reach
    the same verdict, attempts and node orders; only the route differs.
    ``_admissible_frames`` already requires nonzero x^6, x^5 y and x^5 z
    coefficients, so fx, fy and fz have constant leading x-coefficients,
    and ``resultant_eliminate`` cannot raise there.
    """
    if form.degree != 6:
        raise ValueError("smoothness certification targets degree-six forms")
    node_ints = _node_ints(nodes)
    nodes_singular = _singular_at(form, node_ints)
    last_detail = "no admissible coordinate system found"
    used = 0
    for frame, why in _admissible_frames(form, node_ints):
        used += 1
        if frame is None:
            last_detail = why
            continue
        moved, moved_nodes = frame
        fx = moved.partial(0)
        fy = moved.partial(1)
        fz = moved.partial(2)
        if nodes_singular and _modp_gcd_degree(fx, fy, fz) == len(node_ints):
            orders, route = (1,) * len(node_ints), "degree count"
        else:
            elim_y = resultant_eliminate(fx, fy, 0)
            elim_z = resultant_eliminate(fx, fz, 0)
            if elim_y.is_zero or elim_z.is_zero:
                return SmoothnessVerdict(
                    False, used, "partial derivatives share a factor: the curve is not reduced"
                )
            a_poly, a_v = _trailing_v_split(_binary_coefficients(elim_y))
            b_poly, b_v = _trailing_v_split(_binary_coefficients(elim_z))
            projections = [(q[1], q[2]) for q in moved_nodes]
            orders, detail = _node_factor_audit(
                pprimitive(a_poly), pprimitive(b_poly), min(a_v, b_v), projections
            )
            if orders is None:
                last_detail = detail
                continue
            route = "exact"
        # Each node's vertical line may contain no second singular point.
        line_ok = True
        for x, y, z in moved_nodes:
            # The line is {(s : y : z)}, and the node is s = x.
            ys, zs = ([v**e for e in range(fx.degree + 1)] for v in (y, z))
            polys = [_restrict_line(g, ys, zs) for g in (fx, fy, fz)]
            gcd_line = pgcd(pgcd(polys[0], polys[1]), polys[2])
            if not gcd_line:
                line_ok = False
                last_detail = "a node line lies in the singular locus"
                break
            reduced, count = _divide_out_root(gcd_line, x, 1)
            if count < 1 or len(reduced) > 1:
                line_ok = False
                last_detail = "extra singular point on a node line"
                break
        if not line_ok:
            continue
        return SmoothnessVerdict(True, used, "only the six nodes are singular", orders, route)
    return SmoothnessVerdict(False, used, last_detail)


# ----------------------------------------------------------------------
# GF(p) screen for the smoothness check


def smooth_screen(form: TernaryForm, nodes: Sequence) -> bool | None:
    """Fast mod-p screen for ``smooth_elsewhere``: its degree count alone.

    Returns False when a given node is not a singular point, True as soon
    as the gcd of the two eliminants mod p has degree equal to the number
    of nodes in some coordinate frame, False when two frames (or the only
    conclusive one) read a higher degree, and None when no frame is
    conclusive.  This is the degree count that ``smooth_elsewhere`` runs
    first, without its check of the node lines, and a higher degree mod p
    may come from the prime, so the hint never replaces the exact check.
    """
    if form.degree != 6:
        raise ValueError("smoothness screens target degree-six forms")
    node_ints = _node_ints(nodes)
    if not _singular_at(form, node_ints):
        return False
    alarms = 0
    for frame, _ in _admissible_frames(form, node_ints):
        if frame is None:
            continue
        moved = frame[0]
        degree = _modp_gcd_degree(moved.partial(0), moved.partial(1), moved.partial(2))
        if degree == len(node_ints):
            return True
        if degree is not None:
            alarms += 1
            if alarms >= 2:
                return False
    return False if alarms else None


# ----------------------------------------------------------------------
# Pencils and certificates


@dataclass(frozen=True)
class Pencil:
    """The pencil spanned by the two products of complementary conic triples."""

    config: Config6
    first: TernaryForm  # product of the conics omitting points 4, 5, 6
    second: TernaryForm  # product of the conics omitting points 1, 2, 3

    def member(self, lam: object, mu: object) -> TernaryForm:
        lam_r, mu_r = rat(lam), rat(mu)
        if lam_r == 0 and mu_r == 0:
            raise ValueError("pencil member requires a nonzero parameter pair")
        return self.first.scale(lam_r) + self.second.scale(mu_r)


def conic_product_pencil(config: Config6) -> Pencil:
    """Products of the two complementary triples of exceptional conics.

    Every member has multiplicity two at all six configuration points, so
    the pencil lives inside the ten-dimensional nodal system; its general
    member is the torsion candidate swept by ``certify_pencil``.
    """
    conics = exceptional_conics(config)
    first = (conics[3] * conics[4] * conics[5]).canonical()
    second = (conics[0] * conics[1] * conics[2]).canonical()
    return Pencil(config, first, second)


@dataclass(frozen=True)
class TorsionCertificate:
    """Accept/reject verdict for nontrivial three-torsion, with evidence."""

    config: Config6
    form: TernaryForm | None
    accepted: bool
    reasons: tuple[str, ...]
    rank_node_side: TorsionRank | None = None
    rank_conic_side: TorsionRank | None = None
    smoothness: SmoothnessVerdict | None = None
    member: tuple[str, str] | None = None  # pencil parameters when swept
    screened: bool = False

    def to_json(self) -> dict:
        data = {
            "accepted": self.accepted,
            "reasons": list(self.reasons),
            "config": self.config.to_json(),
            "screened": self.screened,
        }
        if self.form is not None:
            data["form"] = self.form.to_json()
        if self.rank_node_side is not None:
            data["rank_node_side"] = self.rank_node_side.dimension
        if self.rank_conic_side is not None:
            data["rank_conic_side"] = self.rank_conic_side.dimension
        if self.smoothness is not None:
            data["smooth_elsewhere"] = {
                "certified": self.smoothness.certified,
                "attempts": self.smoothness.attempts,
                "detail": self.smoothness.detail,
            }
        if self.member is not None:
            data["member"] = list(self.member)
        return data


def certify(config: Config6, form: TernaryForm) -> TorsionCertificate:
    """Full three-torsion certificate for one candidate sextic.

    Acceptance requires general position, six ordinary nodes, matching
    rank two on the node side, and certified smoothness elsewhere.  The
    conic-side rank is computed as a cross-check and reported.
    """
    verdict = is_general_position(config)
    if not verdict.ok:
        reason = f"configuration is not in general position: {verdict.describe()}"
        return TorsionCertificate(config, form, False, (reason,))
    profile = node_profile(config, form)
    if not profile.ok:
        return TorsionCertificate(
            config, form, False, (f"node profile failed: {profile.describe()}",)
        )
    return _certify_nodal(profile)


def _certify_nodal(profile: NodalSextic) -> TorsionCertificate:
    """The part of ``certify`` after the node profile, for a checked sextic."""
    config, form = profile.config, profile.form
    rank_e = torsion_rank(profile, "E")
    rank_f = torsion_rank(profile, "F")
    reasons = []
    hint = smooth_screen(form, config.points)
    if hint is False:
        reasons.append("prime screen predicts extra singular points")
    smooth = smooth_elsewhere(form, config.points)
    if rank_e.dimension != rank_f.dimension:
        reasons.append(
            "matching ranks disagree between the node and conic sides: "
            f"{rank_e.dimension} vs {rank_f.dimension}"
        )
    if rank_e.dimension < 2:
        reasons.append("no independent matching partner: torsion class is trivial")
    elif rank_e.dimension > 2:
        reasons.append("matching space too large: candidate is degenerate")
    if not smooth.certified:
        reasons.append(f"smoothness not certified: {smooth.detail}")
    accepted = (
        rank_e.dimension == 2 and rank_f.dimension == 2 and smooth.certified
    )
    if accepted:
        reasons = ["six ordinary nodes, matching rank two on both sides, smooth elsewhere"]
    return TorsionCertificate(
        config,
        form,
        accepted,
        tuple(reasons),
        rank_e,
        rank_f,
        smooth,
        screened=hint is not None,
    )


#: Pencil members (1 : k), k = 1 .. PENCIL_MEMBERS, swept by ``certify_pencil``.
PENCIL_MEMBERS = 25


def certify_pencil(config: Config6) -> TorsionCertificate:
    """Sweep the conic-product pencil until a member certifies.

    Members (1 : k) for k = 1, 2, ... with six ordinary nodes go through
    ``smooth_screen``, the mod-p degree count, and a member it flags is
    rejected without the exact certificate; the others are certified
    exactly and the first accepted member is returned.  A few members can
    fail by coincidence (an extra singular point), so the sweep continues
    past rejections up to ``PENCIL_MEMBERS``.
    """
    verdict = is_general_position(config)
    if not verdict.ok:
        reason = f"configuration is not in general position: {verdict.describe()}"
        return TorsionCertificate(config, None, False, (reason,))
    pencil = conic_product_pencil(config)
    last: TorsionCertificate | None = None
    for k in range(1, PENCIL_MEMBERS + 1):
        candidate = pencil.member(1, k).canonical()
        profile = node_profile(config, candidate)
        if not profile.ok:
            last = TorsionCertificate(
                config,
                candidate,
                False,
                (f"node profile failed: {profile.describe()}",),
                member=("1", str(k)),
            )
            continue
        if smooth_screen(candidate, config.points) is False:
            last = TorsionCertificate(
                config,
                candidate,
                False,
                ("prime screen predicts extra singular points",),
                member=("1", str(k)),
                screened=True,
            )
            continue
        cert = replace(_certify_nodal(profile), member=("1", str(k)))
        if cert.accepted:
            return cert
        last = cert
    if last is None:
        return TorsionCertificate(
            config, None, False, ("no pencil member was admissible",)
        )
    return last


def random_nodal_sextic(config: Config6, rng: random.Random, bound: int = 9) -> TernaryForm:
    """Random member of the ten-dimensional nodal system, for trials: a
    nonzero combination of independent members, so never zero, summed on
    integers and canonically scaled by ``_canonical_combination``."""
    system = linear_system(6, [(p, 2) for p in config.points])
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in system.basis]
        if any(coeffs):
            return _canonical_combination(coeffs, system.basis)
