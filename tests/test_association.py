"""Exceptional conics, contraction to the second model, and the involution."""

import random
from fractions import Fraction

import pytest

from test_integer_evaluation import near_degenerate_configs

from doublesix import association, plane
from doublesix.association import (
    ContractionError,
    DoubleSixRealization,
    exceptional_conics,
    sample_points_on_conic,
    second_model,
)
from doublesix.linalg import Matrix, determinant
from doublesix.plane import (
    REF6,
    Config6,
    DegenerateFiveTupleError,
    PointP2,
    conic_through,
    is_general_position,
    linear_system,
    projective_equivalence,
    random_general_config,
)


def reference_exceptional_conics(c):
    """The former ``exceptional_conics``: one 5 x 6 kernel per five-tuple."""
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


def reference_second_model(c):
    """The former ``second_model``: the kernel of the 18 x 21 conditions
    of ``linear_system(5)``, and two sampled points per conic whose
    images must agree."""
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
            raise ContractionError(f"conic {i + 1} images disagree: {p0!r} vs {p1!r}")
        images.append(p0)
    associated = Config6([p.coords for p in images])
    return DoubleSixRealization(c, conics, tuple(qs), associated)


#: Six points of the smooth conic xy + yz + zx = 0, no three collinear.
ON_A_CONIC = Config6([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 2, -1), (3, 6, -2), (1, -2, -2)])
#: Points 1, 2, 3 lie on z = 0.
COLLINEAR = Config6([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 2, 3), (2, 5, 1)])


def differential_configs():
    """REF6, seeded configurations of bound 20 and 1000, ~60-bit rows and
    near-degenerate ones, each followed by its associated configuration."""
    rng = random.Random("second-model-differential")
    configs = [REF6]
    configs += [random_general_config(rng, bound=20) for _ in range(3)]
    configs += [random_general_config(rng, bound=1000) for _ in range(3)]
    configs.append(random_general_config(rng, bound=2**60))
    configs += near_degenerate_configs(rng, 2)
    return [d for c in configs for d in (c, second_model(c).associated)]


def conic_matrix(f):
    """Symmetric 3x3 matrix of a quadratic form."""
    a = f.coefficient((2, 0, 0))
    b = f.coefficient((0, 2, 0))
    c = f.coefficient((0, 0, 2))
    d = f.coefficient((1, 1, 0)) / 2
    e = f.coefficient((1, 0, 1)) / 2
    g = f.coefficient((0, 1, 1)) / 2
    return Matrix([[a, d, e], [d, b, g], [g, e, c]])


def test_conics_incidence_pattern():
    conics = exceptional_conics(REF6)
    assert len(conics) == 6
    for i in range(6):
        for j in range(6):
            value = conics[i].eval(REF6.points[j].coords)
            assert (value == 0) == (j != i)


def test_conics_are_irreducible():
    # A conic with three of the five base points never collinear is
    # irreducible exactly when its symmetric matrix is nonsingular.
    for f in exceptional_conics(REF6):
        assert determinant(conic_matrix(f)) != 0


def test_conics_on_degenerate_five_tuple_raises():
    # Four collinear points leave some five-point subsets without a
    # unique conic; the error propagates, with the reference's text.
    degenerate = Config6(
        [
            tuple(Fraction(x) for x in row)
            for row in [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0), (1, 1, 1), (1, 2, 3)]
        ]
    )
    with pytest.raises(ValueError) as want:
        reference_exceptional_conics(degenerate)
    with pytest.raises(ValueError) as got:
        exceptional_conics(degenerate)
    assert str(got.value) == str(want.value)
    assert "near label 5" in str(got.value)


def test_exceptional_conics_match_the_five_tuple_reference():
    rng = random.Random("conics-differential")
    configs = [REF6] + [random_general_config(rng, bound=20) for _ in range(4)]
    configs.append(random_general_config(rng, bound=2**60))
    configs += near_degenerate_configs(rng, 2)
    configs += [second_model(c).associated for c in configs]
    # Line-pair conics: the Veronese matrix is nonsingular all the same.
    configs += [COLLINEAR, ON_A_CONIC]
    assert association._inverse_veronese_columns(COLLINEAR) is not None
    assert association._inverse_veronese_columns(ON_A_CONIC) is None
    for c in configs:
        got, want = exceptional_conics(c), reference_exceptional_conics(c)
        assert got == want
        assert [f.to_json() for f in got] == [f.to_json() for f in want]


def test_general_position_takes_one_elimination(monkeypatch):
    """No five-tuple kernel in general position, and step 3 reduces only
    g_0, g_1, g_2; six points on a conic still solve all six five-tuples."""
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(association, "conic_through", counting("conic_through", conic_through))
    monkeypatch.setattr(plane, "kernel_basis", counting("kernel_basis", plane.kernel_basis))
    reduced = []
    row_space_basis = association.row_space_basis

    def recording(rows):
        reduced.append(len(rows))
        return row_space_basis(rows)

    monkeypatch.setattr(association, "row_space_basis", recording)
    c = random_general_config(random.Random("one-elimination"), bound=20)
    exceptional_conics(c)
    second_model(c)
    second_model(second_model(c).associated)
    assert calls == []
    assert reduced == [3, 3, 3]
    exceptional_conics(ON_A_CONIC)
    assert calls.count("conic_through") == 6 and calls.count("kernel_basis") == 6


def test_two_conics_meet_exactly_in_shared_points():
    # Bezout count: two exceptional conics meet in four points, namely
    # the four configuration points they both pass through.  Certified
    # by matching the elimination resultant against the product of the
    # four projection linears.
    from doublesix.forms import resultant_eliminate
    from doublesix.linalg import inverse

    conics = exceptional_conics(REF6)
    catalog = [
        [(1, -3, 3), (0, 3, -2), (2, -3, -2)],
        [(1, 1, 2), (0, 1, 3), (1, 0, 1)],
    ]
    for i, j in ((0, 1), (2, 5)):
        for rows in catalog:
            transform = Matrix([[Fraction(a) for a in row] for row in rows])
            if determinant(transform) == 0:
                continue
            undo = inverse(transform)
            fi = conics[i].substitute(transform)
            fj = conics[j].substitute(transform)
            if fi.coefficient((2, 0, 0)) == 0 or fj.coefficient((2, 0, 0)) == 0:
                continue
            shared = [undo.apply(REF6.points[k].coords) for k in range(6) if k not in (i, j)]
            projections = [(q[1], q[2]) for q in shared]
            if len({(y / z if z else None) for y, z in projections}) == 4:
                break
        else:
            raise AssertionError("no admissible frame for pair (%d, %d)" % (i, j))
        res = resultant_eliminate(fi, fj, 0)
        # Expected binary form: product of (z_k*Y - y_k*Z), as a list
        # indexed by the Y-exponent.
        expected = [Fraction(1)]
        for y, z in projections:
            expanded = [Fraction(0)] * (len(expected) + 1)
            for k, c in enumerate(expected):
                expanded[k + 1] += c * z
                expanded[k] -= c * y
            expected = expanded
        coeffs = [Fraction(0)] * 5
        for (a, b, c), value in res.terms():
            assert a == 0
            coeffs[b] += value
        pivot = next(k for k, c in enumerate(expected) if c != 0)
        assert coeffs[pivot] != 0
        scale = coeffs[pivot] / expected[pivot]
        assert coeffs == [scale * c for c in expected]


def test_sampled_points_lie_on_conic_and_differ():
    conics = exceptional_conics(REF6)
    f = conics[0]
    base = REF6.points[1]
    avoid = set(REF6.points)
    pts = sample_points_on_conic(f, base, avoid, count=3)
    assert len(pts) == 3
    assert len(set(pts)) == 3
    for p in pts:
        assert f.eval(p.coords) == 0
        assert p not in avoid


def test_second_model_realization_shape():
    realization = second_model(REF6)
    assert len(realization.quintic_basis) == 3
    assert len(realization.conics) == 6
    assert is_general_position(realization.associated).ok
    for g in realization.quintic_basis:
        assert g.degree == 5


def test_association_is_an_involution_on_reference():
    assoc = second_model(REF6).associated
    back = second_model(assoc).associated
    assert projective_equivalence(REF6, back, respect_labels=True) is not None


def test_association_moves_the_reference_configuration():
    # The reference configuration is not self-associated.
    assoc = second_model(REF6).associated
    assert projective_equivalence(REF6, assoc, respect_labels=False) is None


def test_association_involution_on_random_configurations():
    for seed in ("inv-a", "inv-b", "inv-c"):
        c = random_general_config(random.Random(seed))
        assoc = second_model(c).associated
        back = second_model(assoc).associated
        assert projective_equivalence(c, back, respect_labels=True) is not None


def test_association_is_projectively_equivariant():
    rng = random.Random("equivariance")
    base_assoc = second_model(REF6).associated
    for _ in range(3):
        while True:
            g = Matrix([[Fraction(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)])
            if determinant(g) != 0:
                break
        moved = REF6.apply(g)
        if not is_general_position(moved).ok:
            continue
        moved_assoc = second_model(moved).associated
        assert projective_equivalence(base_assoc, moved_assoc, respect_labels=True) is not None


def test_contraction_points_match_conic_labels():
    # The i-th associated point is the contraction of the i-th conic:
    # quintics of the net restricted to that conic map it to one point.
    realization = second_model(REF6)
    conics = realization.conics
    basis = realization.quintic_basis
    for i in range(6):
        base = REF6.points[(i + 1) % 6]
        pts = sample_points_on_conic(conics[i], base, set(REF6.points), count=2)
        images = []
        for p in pts:
            v = tuple(g.eval(p.coords) for g in basis)
            assert any(x != 0 for x in v)
            images.append(PointP2(v))
        assert len(set(images)) == 1
        assert images[0] == realization.associated.points[i]


def test_second_model_matches_the_kernel_and_sampling_reference():
    for c in differential_configs():
        got, want = second_model(c), reference_second_model(c)
        assert got.quintic_basis == want.quintic_basis
        assert got.associated.to_json() == want.associated.to_json()
        assert got.conics == want.conics


def test_second_model_builds_no_linear_system(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return linear_system(*args, **kwargs)

    monkeypatch.setattr(association, "linear_system", counting)
    second_model(REF6)
    assert calls == []


def test_a_declining_rank_takes_the_exact_route(monkeypatch):
    configs = [REF6, random_general_config(random.Random("exact-route"), bound=1000)]
    fast = [second_model(c) for c in configs]
    ranks, systems = [], []

    def declining(rows, p):
        ranks.append(p)
        return 17

    def counting(*args, **kwargs):
        systems.append(args)
        return linear_system(*args, **kwargs)

    monkeypatch.setattr(association, "rank_mod", declining)
    monkeypatch.setattr(association, "linear_system", counting)
    for c, want in zip(configs, fast):
        assert second_model(c) == want
    assert len(ranks) == 2 * len(configs)  # both primes tried
    assert len(systems) == len(configs)


def test_six_points_on_a_conic_have_a_net_of_dimension_four():
    assert all(f == exceptional_conics(ON_A_CONIC)[0] for f in exceptional_conics(ON_A_CONIC))
    message = "quintic system has dimension 4, expected 3"
    with pytest.raises(ValueError, match=message):
        second_model(ON_A_CONIC)
    with pytest.raises(ValueError, match=message):
        reference_second_model(ON_A_CONIC)


def test_a_collinear_configuration_names_a_line_pair():
    # The conics through points 1, 2, 3 contain the line z = 0.
    with pytest.raises(ContractionError, match="conic 4 is a line pair"):
        second_model(COLLINEAR)
