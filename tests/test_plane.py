"""Configurations, general position, linear systems, and tangent cones."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from doublesix import plane
from doublesix.forms import TernaryForm, monomials_of_degree
from doublesix.linalg import Matrix, clear_denominators, determinant, inverse
from doublesix.perms import Perm, all_perms
from doublesix.plane import (
    REF6,
    Config6,
    DegenerateFiveTupleError,
    PointP2,
    chart_coefficients,
    conic_through,
    frame_map,
    integer_multiplicity_rows,
    is_general_position,
    linear_system,
    projective_equivalence,
    projective_stabilizer,
    random_general_config,
    tangent_cone,
)

X, Y, Z = (TernaryForm.variable(i) for i in range(3))


def config(rows):
    return Config6([tuple(Fraction(x) for x in row) for row in rows])


COLLINEAR = config(
    [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 2, 3), (2, 5, 1)]
)
# Six points on the conic xz = y^2.
ON_CONIC = config(
    [(1, 0, 0), (0, 0, 1), (1, 1, 1), (4, 2, 1), (9, 3, 1), (1, -1, 1)]
)


def test_point_canonicalization_and_equality():
    assert PointP2((2, 4, 6)) == PointP2((1, 2, 3))
    assert PointP2((0, -3, 6)) == PointP2((0, 1, -2))
    with pytest.raises(ValueError):
        PointP2((0, 0, 0))


def test_point_ints_are_the_cleared_canonical_coordinates():
    """``PointP2.ints`` is ``clear_denominators(coords)[0]``: a primitive
    triple with a positive pivot, on integer, rational, ~60-bit and
    zero-leading points."""
    rng = random.Random("point-ints")
    rows = [(2, 4, 6), (-3, 5, 7), (0, -3, 6), (0, 0, -4), (0, 5, -10)]
    rows += [(Fraction(1, 2), Fraction(-3, 4), 2), ("-3/4", 6, 0), (0, Fraction(-5, 6), "7/10")]
    for bound in (20, 2**60):
        rows += [tuple(rng.randint(-bound, bound) for _ in range(3)) for _ in range(20)]
        rows += [(0, rng.randint(1, bound), rng.randint(-bound, bound)) for _ in range(5)]
    rows += [tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3))
             for _ in range(40)]
    points = [PointP2(r) for r in rows if any(Fraction(x) for x in r)]
    points += [p for c in (REF6, SYMMETRIC, random_general_config(rng, bound=2**60))
               for p in c.points]
    assert len(points) > 100
    for p in points:
        assert list(p.ints) == clear_denominators(p.coords)[0]
        assert all(type(x) is int for x in p.ints)
        assert gcd(*p.ints) == 1
        assert next(x for x in p.ints if x) > 0
        assert PointP2(p.ints) == p


def test_config_requires_six_distinct_points():
    with pytest.raises(ValueError):
        config([(1, 0, 0), (2, 0, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, 5, 1)])


def test_config_json_round_trip_preserves_representatives():
    payload = REF6.to_json()
    again = Config6.from_json(payload)
    assert again.reps == REF6.reps


def test_reference_configuration_is_general():
    assert is_general_position(REF6).ok


def test_collinear_witness_is_first_in_lex_order():
    verdict = is_general_position(COLLINEAR)
    assert not verdict.ok
    assert verdict.collinear_triple == (1, 2, 3)
    assert verdict.conic is None


def test_conic_witness():
    verdict = is_general_position(ON_CONIC)
    assert not verdict.ok
    assert verdict.collinear_triple is None
    witness = verdict.conic
    for p in ON_CONIC.points:
        assert witness.eval(p.coords) == 0
    assert witness.canonical() == (X * Z - Y * Y).canonical()


def test_conic_through_five_points_frozen_example():
    pts = [PointP2(p) for p in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)]]
    conic = conic_through(pts)
    expected = TernaryForm(
        2, {(1, 1, 0): Fraction(2), (1, 0, 1): Fraction(-3), (0, 1, 1): Fraction(1)}
    )
    assert conic.canonical() == expected.canonical()
    for p in pts:
        assert conic.eval(p.coords) == 0


def test_conic_through_three_collinear_still_unique():
    # Three collinear points force the line as a component; the conic is
    # still unique because the remaining two points pin the second line.
    pts = [PointP2(p) for p in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 2, 4)]]
    conic = conic_through(pts)
    for p in pts:
        assert conic.eval(p.coords) == 0


def test_conic_through_degenerate_five_tuple_raises():
    # Four collinear points leave a pencil of conics, not a single one.
    pts = [PointP2(p) for p in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1)]]
    with pytest.raises(DegenerateFiveTupleError):
        conic_through(pts)


def test_linear_system_dimensions_on_reference():
    double_all = [(p, 2) for p in REF6.points]
    assert linear_system(6, double_all).dimension == 10
    assert linear_system(5, double_all).dimension == 3
    assert linear_system(6, []).dimension == 28


def test_seventh_double_point_cuts_three_more():
    conditions = [(p, 2) for p in REF6.points] + [(PointP2((1, 3, 7)), 2)]
    assert linear_system(6, conditions).dimension == 7


def test_linear_system_members_satisfy_multiplicities():
    system = linear_system(6, [(p, 2) for p in REF6.points])
    for g in system.basis:
        for p in REF6.points:
            assert g.eval(p.coords) == 0
            for v in range(3):
                assert g.partial(v).eval(p.coords) == 0


def test_tangent_cone_node_and_cusp():
    node = tangent_cone(Y * Z, PointP2((1, 0, 0)))
    assert node.multiplicity == 2 and node.is_node
    cusp = tangent_cone(Y * Y * Z - X * X * X, PointP2((0, 0, 1)))
    assert cusp.multiplicity == 2 and not cusp.is_node
    smooth = tangent_cone(X + Y, PointP2((1, -1, 0)))
    assert smooth.multiplicity == 1
    triple = tangent_cone(X * Y * (X + Y), PointP2((0, 0, 1)))
    assert triple.multiplicity == 3


def test_tangent_cone_invariant_under_scaling_representative():
    f = (X + Y + Z) * (X - Y) * (2 * X + 3 * Z) * (X + 5 * Y)
    p = PointP2((0, 0, 1))
    a = tangent_cone(f, p)
    b = tangent_cone(f.scale(Fraction(7, 3)), p)
    assert a.multiplicity == b.multiplicity
    assert a.is_node == b.is_node


# Reference path for chart coefficients: substitute the full chart
# matrix A, with A (0:0:1) = p, into the form and read coefficients off
# the result.  The library reads the same numbers from Taylor
# coefficients at p instead.


def reference_chart_matrix(p):
    pivot = next(i for i in range(3) if p.coords[i] != 0)
    cols = [i for i in range(3) if i != pivot]
    e = [[Fraction(1) if r == c else Fraction(0) for r in range(3)] for c in range(3)]
    a_cols = [e[cols[0]], e[cols[1]], list(p.coords)]
    return Matrix([[a_cols[c][r] for c in range(3)] for r in range(3)])


def reference_multiplicity_rows(degree, p, mult):
    a = reference_chart_matrix(p)
    substituted = [TernaryForm.monomial(m).substitute(a) for m in monomials_of_degree(degree)]
    targets = [(i, s - i, degree - s) for s in range(mult) for i in range(s, -1, -1)]
    return [[g.coefficient(t) for g in substituted] for t in targets]


def reference_chart_coefficients(f, p, order):
    g = f.substitute(reference_chart_matrix(p))
    d = f.degree
    return tuple(g.coefficient((i, order - i, d - order)) for i in range(order, -1, -1))


def reference_tangent_cone(f, p):
    g = f.substitute(reference_chart_matrix(p))
    d = f.degree
    for s in range(d + 1):
        coeffs = tuple(g.coefficient((i, s - i, d - s)) for i in range(s, -1, -1))
        if any(c != 0 for c in coeffs):
            if s == 2:
                a, b, c = coeffs
                return (2, (a, b, c), b * b - 4 * a * c != 0)
            return (s, None, False)


def chart_test_points():
    """REF6, two seeded configurations, and points with first coordinate 0,
    so the chart pivot is y or z rather than x."""
    rng = random.Random("chart-differential")
    points = list(REF6.points)
    for _ in range(2):
        points.extend(random_general_config(rng, bound=7).points[:3])
    points += [
        PointP2((0, 3, -2)),
        PointP2((0, 0, 5)),
        PointP2((0, Fraction(2, 3), Fraction(-5, 7))),
        PointP2((Fraction(1, 2), Fraction(-3, 4), 2)),
    ]
    assert any(p[0] == 0 and p[1] == 0 for p in points)
    assert any(p[0] == 0 and p[1] != 0 for p in points)
    return points


def random_form(rng, degree, density=0.6):
    return TernaryForm(
        degree,
        {
            m: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for m in monomials_of_degree(degree)
            if rng.random() < density
        },
    )


def test_multiplicity_rows_match_the_substitution_path():
    # Integer row (i, j) is the Taylor row scaled by d^(degree - i - j),
    # with d the common denominator of p's canonical coordinates.
    for p in chart_test_points():
        d = lcm(*(x.denominator for x in p.coords))
        for degree in (2, 5, 6):
            for mult in (1, 2, 3):
                rows = integer_multiplicity_rows(degree, p, mult)
                assert len(rows) == mult * (mult + 1) // 2
                assert all(type(x) is int for row in rows for x in row)
                orders = [(i, s - i) for s in range(mult) for i in range(s, -1, -1)]
                scaled = [
                    [Fraction(x, d ** (degree - i - j)) for x in row]
                    for row, (i, j) in zip(rows, orders)
                ]
                assert scaled == reference_multiplicity_rows(degree, p, mult)


def test_chart_coefficients_and_tangent_cones_match_the_substitution_path():
    rng = random.Random("chart-coefficients-differential")
    seen = set()
    for p in chart_test_points():
        # Random forms, and their products with lines through p, which
        # raise the multiplicity at p up to 3.
        lines = []
        for q in (PointP2((1, 1, 1)), PointP2((2, -1, 3)), PointP2((0, 1, 4))):
            if q != p:
                a, b, c = p.coords
                u, v, w = q.coords
                cross = (b * w - c * v, c * u - a * w, a * v - b * u)
                lines.append(TernaryForm(1, dict(zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], cross))))
        forms = [random_form(rng, 2), random_form(rng, 5), random_form(rng, 6)]
        forms.append(lines[0] * random_form(rng, 4))
        forms.append(lines[0] * lines[1] * random_form(rng, 3))
        forms.append(lines[0] * lines[1] * lines[0] * random_form(rng, 2, density=1.0))
        forms.append(lines[0] * lines[0])
        forms = [f for f in forms if not f.is_zero]
        for f in forms:
            for order in range(4):
                got = chart_coefficients(f, p, order)
                assert got == reference_chart_coefficients(f, p, order)
                assert all(isinstance(x, Fraction) for x in got)
            tc = tangent_cone(f, p)
            assert (tc.multiplicity, tc.quadric, tc.is_node) == reference_tangent_cone(f, p)
            seen.add((tc.multiplicity, tc.is_node))
    assert seen >= {(0, False), (1, False), (2, True), (2, False), (3, False)}
    system = linear_system(6, [(q, 2) for q in REF6.points])
    for g in system.basis[:4]:
        for q in REF6.points:
            tc = tangent_cone(g, q)
            assert (tc.multiplicity, tc.quadric, tc.is_node) == reference_tangent_cone(g, q)


def test_stabilizer_of_reference_is_trivial():
    stab = projective_stabilizer(REF6)
    assert len(stab) == 1
    perm, matrix = stab[0]
    assert perm.images == tuple(range(6))


SYMMETRIC = config([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, 1, 3)])


def test_stabilizer_detects_symmetry():
    symmetric = SYMMETRIC
    assert is_general_position(symmetric).ok
    stab = projective_stabilizer(symmetric)
    # This configuration carries a full order-12 symmetry group.
    assert len(stab) == 12
    perms = [s[0] for s in stab]
    assert len({p.images for p in perms}) == 12
    assert any(p.cycles() == [(1, 2), (5, 6)] for p in perms)
    for perm, matrix in stab:
        for i in range(6):
            image = matrix.apply(symmetric.points[i].coords)
            assert PointP2(image) == symmetric.points[perm(i)]
    images = {p.images for p in perms}
    assert all((a * b).images in images for a in perms for b in perms)


def test_projective_equivalence_finds_transporter():
    rng = random.Random("equiv")
    g = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    assert determinant(g) != 0
    moved = REF6.apply(g)
    result = projective_equivalence(REF6, moved, respect_labels=True)
    assert result is not None
    transporter, perm = result
    assert perm.images == tuple(range(6))
    for i in range(6):
        assert PointP2(transporter.apply(REF6.points[i].coords)) == moved.points[i]


def test_projective_equivalence_distinguishes():
    other = config([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (3, 1, 5)])
    assert is_general_position(other).ok
    assert projective_equivalence(REF6, other, respect_labels=True) is None


def test_relabel_moves_points():
    sigma = Perm.from_cycles(((1, 2),))
    swapped = REF6.relabel(sigma)
    assert swapped.points[0] == REF6.points[1]
    assert swapped.points[1] == REF6.points[0]
    assert swapped.points[2:] == REF6.points[2:]


def test_random_general_config_is_general_and_seeded():
    rng1 = random.Random("sampling")
    rng2 = random.Random("sampling")
    c1 = random_general_config(rng1)
    c2 = random_general_config(rng2)
    assert c1.reps == c2.reps
    assert is_general_position(c1).ok


# -- brackets against the rational-matrix references ------------------


def reference_collinear_triple(c):
    """The collinearity loop of ``is_general_position`` as it was: one
    ``determinant(Matrix(rows))`` per triple on the representatives."""
    for triple in combinations(range(6), 3):
        if determinant(Matrix([c.reps[i] for i in triple])) == 0:
            return tuple(i + 1 for i in triple)
    return None


def reference_frame_map(source, target):
    """``frame_map`` as it was: a Gauss-Jordan inverse on Fractions."""

    def basis_matrix(pts):
        cols = Matrix([[pts[j][i] for j in range(3)] for i in range(3)])
        if determinant(cols) == 0:
            return None
        lam = inverse(cols).apply(pts[3].coords)
        if any(l == 0 for l in lam):
            return None
        return Matrix([[lam[j] * pts[j][i] for j in range(3)] for i in range(3)])

    ms = basis_matrix(source)
    mt = basis_matrix(target)
    if ms is None or mt is None:
        return None
    g = mt @ inverse(ms)
    lead = next(x for x in g.entries if x != 0)
    return g.scale(1 / lead)


def reference_projectivities(c1, c2):
    """Every (sigma, g) with g p_i ~ q_sigma(i), through the reference frame
    map, comparing the images of points 5 and 6 as canonical points."""
    out = []
    for sigma in all_perms(6):
        g = reference_frame_map(c1.points[:4], [c2.points[sigma(i)] for i in range(4)])
        if g is not None and all(
            PointP2(g.apply(c1.points[i].coords)) == c2.points[sigma(i)] for i in (4, 5)
        ):
            out.append((sigma, g))
    return out


def bracket_configs(rng):
    """Configurations whose brackets the new and old routes must agree on:
    seeded general ones, small rows (many collinear triples), ~60-bit rows
    with and without a collinear triple, rational representatives, and
    points whose first coordinates vanish (pivot further right)."""

    def draw(row):
        while True:
            try:
                return Config6([row() for _ in range(6)])
            except ValueError:  # a zero row or two equal points
                continue

    small = lambda: tuple(rng.randint(-2, 2) for _ in range(3))
    wide = lambda: tuple(rng.randint(-(2**60), 2**60) for _ in range(3))
    rational = lambda: tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 40)) for _ in range(3))
    pivot = lambda: (0, rng.randint(-1, 1), rng.randint(-9, 9)) if rng.random() < 0.6 else small()
    configs = [REF6, SYMMETRIC, COLLINEAR, ON_CONIC]
    configs += [random_general_config(rng, bound=20) for _ in range(4)]
    configs += [random_general_config(rng, bound=2**60) for _ in range(2)]
    configs += [draw(small) for _ in range(40)] + [draw(rational) for _ in range(8)]
    configs += [draw(pivot) for _ in range(20)]
    for _ in range(4):
        c = draw(wide)
        a, b = rng.randint(-(2**30), 2**30), rng.randint(1, 2**30)
        third = tuple(a * x + b * y for x, y in zip(c.reps[0], c.reps[1]))
        configs.append(Config6([*c.reps[:4], third, c.reps[5]]))
    return configs


def test_collinearity_matches_the_determinant_reference():
    configs = bracket_configs(random.Random("collinear"))
    witnesses = []
    for c in configs:
        expected = reference_collinear_triple(c)
        verdict = is_general_position(c)
        assert verdict.collinear_triple == expected
        assert expected is not None or verdict.ok or verdict.conic is not None
        witnesses.append(expected)
    assert sum(w is None for w in witnesses) >= 10
    assert sum(w is not None and w != (1, 2, 5) for w in witnesses) >= 10
    assert all(
        reference_collinear_triple(c) == (1, 2, 5) for c in configs[-4:]
    )  # the wide rows with point 5 on line 12


def test_frame_map_matches_the_inverse_reference():
    rng = random.Random("frames")
    configs = bracket_configs(rng)
    quads = [[c.points[i] for i in q] for c in configs for q in ((0, 1, 2, 3), (2, 3, 4, 5))]
    quads += [[PointP2(r) for r in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1))]]
    results = []
    for source in quads:
        for target in rng.sample(quads, 6) + [source[::-1]]:
            got = frame_map(source, target)
            assert got == reference_frame_map(source, target)
            results.append(got)
    assert sum(g is None for g in results) >= 20
    assert sum(g is not None for g in results) >= 100


def test_frame_map_and_stabilizer_match_the_reference_on_every_relabelling():
    points = SYMMETRIC.points
    for sigma in all_perms(6):
        target = [points[sigma(i)] for i in range(4)]
        assert frame_map(points[:4], target) == reference_frame_map(points[:4], target)
    for c in (SYMMETRIC, REF6):
        assert projective_stabilizer(c) == reference_projectivities(c, c)
    sigma = Perm.from_cycles(((1, 4, 2), (3, 6)))
    moved = REF6.apply(Matrix([[2, 1, 0], [0, 1, 3], [1, 0, 1]])).relabel(sigma)
    (tau, g), = reference_projectivities(REF6, moved)
    assert projective_equivalence(REF6, moved, respect_labels=False) == (g, tau)
    assert tau != Perm.identity(6)


def test_stabilizer_builds_the_source_frame_once_and_a_matrix_per_match(monkeypatch):
    """One source frame per call, then one target frame per permutation;
    only the matches become ``Matrix`` objects."""
    frames, matrices = [], []
    frame, normalized = plane._frame, plane._normalized
    monkeypatch.setattr(plane, "_frame", lambda pts: frames.append(tuple(pts)) or frame(pts))
    monkeypatch.setattr(plane, "_normalized", lambda g: matrices.append(g) or normalized(g))
    for c in (SYMMETRIC, REF6, random_general_config(random.Random(1), bound=20)):
        frames.clear()
        matrices.clear()
        found = projective_stabilizer(c)
        assert len(frames) == 1 + 720 and frames[0] == tuple(c.points[:4])
        assert len(matrices) == len(found) >= 1
    assert len(found) == 1 and found[0][0] == Perm.identity(6)
