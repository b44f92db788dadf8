"""Node profiles, matching ranks, smoothness certificates, and the sweep."""

import functools
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from test_forms import pmul
from test_integer_evaluation import awkward_points, near_degenerate_configs
from test_modp import _modp_resultant_x, frac_mod, peval
from test_plane import reference_tangent_cone

from doublesix import _modp, _poly, forms, linalg, plane, torsion
from doublesix._poly import pgcd, pprimitive, ptrim
from doublesix.association import exceptional_conics, sample_points_on_conic
from doublesix.forms import TernaryForm, resultant_eliminate
from doublesix.linalg import Matrix, determinant, inverse, kernel_basis, rank
from doublesix.plane import (
    REF6,
    Config6,
    PointP2,
    chart_quadratic_part,
    linear_system,
    random_general_config,
    tangent_cone,
)
from doublesix.torsion import (
    NodalSextic,
    NodeDiagnosis,
    _admissible_frames,
    _binary_coefficients,
    _node_factor_audit,
    _trailing_v_split,
    certify,
    certify_pencil,
    conic_product_pencil,
    node_profile,
    random_nodal_sextic,
    smooth_elsewhere,
    smooth_screen,
    torsion_rank,
)

COLLINEAR = Config6([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 2, 3), (2, 5, 1)])


def coefficient_vector(form, degree=6):
    monos = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree - i + 1)]
    return [form.coefficient(m) for m in monos]


def parallel(u, v):
    return all(u[i] * v[j] == u[j] * v[i] for i in range(3) for j in range(i + 1, 3))


def binary_mul(a, b):
    """Product of binary forms given as full-length coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_triple_products_are_rejected_by_the_node_profile():
    pencil = conic_product_pencil(REF6)
    # Each conic of one triple passes through all three opposite points,
    # so the bare product acquires triple points there.
    second = node_profile(REF6, pencil.second)
    assert isinstance(second, NodeDiagnosis)
    assert (second.point_label, second.multiplicity) == (4, 3)
    assert second.describe() == "point 4: multiplicity-3"
    first = node_profile(REF6, pencil.first)
    assert isinstance(first, NodeDiagnosis)
    assert (first.point_label, first.multiplicity) == (1, 3)


def test_generic_member_has_six_nodes():
    pencil = conic_product_pencil(REF6)
    profile = node_profile(REF6, pencil.member(1, 1))
    assert isinstance(profile, NodalSextic)
    assert profile.ok
    assert len(profile.cones) == 6
    assert all(any(c != 0 for c in cone) for cone in profile.cones)


def test_node_profile_input_validation():
    with pytest.raises(ValueError):
        node_profile(REF6, exceptional_conics(REF6)[0])
    with pytest.raises(ValueError):
        node_profile(REF6, TernaryForm.zero(6))


def test_member_requires_nonzero_parameters():
    pencil = conic_product_pencil(REF6)
    with pytest.raises(ValueError):
        pencil.member(0, 0)


def test_member_cones_come_from_the_opposite_triple():
    # At each node only one triple product contributes a quadratic
    # part, so the tangent cone is parameter independent up to the
    # pencil coefficient in front of that product.
    pencil = conic_product_pencil(REF6)
    p1 = node_profile(REF6, pencil.member(1, 1))
    p7 = node_profile(REF6, pencil.member(1, 7))
    for i in range(3):
        assert p7.cones[i] == tuple(7 * c for c in p1.cones[i])
    for i in range(3, 6):
        assert p7.cones[i] == p1.cones[i]
    assert p1.cones[3] == tangent_cone(pencil.first, REF6.points[3]).quadric
    assert tuple(p1.cones[0]) == tangent_cone(pencil.second, REF6.points[0]).quadric


def test_matching_space_contains_both_triple_products():
    pencil = conic_product_pencil(REF6)
    profile = node_profile(REF6, pencil.member(1, 1))
    matched = torsion_rank(profile, "E")
    assert matched.dimension == 2
    vectors = [coefficient_vector(g) for g in matched.basis]
    for extra in (pencil.first.canonical(), pencil.second.canonical()):
        assert rank(Matrix(vectors + [coefficient_vector(extra)])) == 2


def test_matching_members_have_parallel_cones():
    pencil = conic_product_pencil(REF6)
    profile = node_profile(REF6, pencil.member(1, 1))
    matched = torsion_rank(profile, "E")
    for g in matched.basis:
        for i, p in enumerate(REF6.points):
            assert parallel(chart_quadratic_part(g, p), profile.cones[i])


def test_rank_sides_agree_on_the_torsion_candidate():
    pencil = conic_product_pencil(REF6)
    profile = node_profile(REF6, pencil.member(1, 1))
    rank_e = torsion_rank(profile, "E")
    rank_f = torsion_rank(profile, "F")
    assert rank_e.dimension == rank_f.dimension == 2
    assert rank_e.nontrivial and rank_f.nontrivial


def test_rank_is_one_on_a_random_nodal_sextic():
    rng = random.Random("torsion-random-module")
    form = random_nodal_sextic(REF6, rng)
    profile = node_profile(REF6, form)
    assert profile.ok
    rank_e = torsion_rank(profile, "E")
    rank_f = torsion_rank(profile, "F")
    assert rank_e.dimension == rank_f.dimension == 1
    assert not rank_e.nontrivial
    # The only matching member is the candidate itself.
    assert rank_e.basis[0] == form.canonical()


def test_torsion_rank_validates_side():
    pencil = conic_product_pencil(REF6)
    profile = node_profile(REF6, pencil.member(1, 1))
    with pytest.raises(ValueError):
        torsion_rank(profile, "G")


def test_torsion_rank_is_a_projective_invariant():
    g = Matrix([[Fraction(a) for a in row] for row in [(1, 1, 2), (0, 1, 3), (1, 0, 1)]])
    assert determinant(g) != 0
    pencil = conic_product_pencil(REF6)
    member = pencil.member(1, 1)
    moved_config = REF6.apply(g)
    moved_member = member.substitute(inverse(g))
    profile = node_profile(REF6, member)
    moved_profile = node_profile(moved_config, moved_member)
    assert moved_profile.ok
    for side in ("E", "F"):
        assert torsion_rank(moved_profile, side).dimension == torsion_rank(profile, side).dimension


def test_pencil_base_locus_matches_pairwise_conic_intersections():
    # Eliminating x from the two triple products factors the resultant
    # as the product of the nine pairwise conic resultants: the base
    # locus is exactly the 36 = 9 * 4 pairwise intersection points.
    frame = Matrix([[Fraction(a) for a in row] for row in [(1, -2, -2), (3, 1, 0), (2, 1, 3)]])
    assert determinant(frame) != 0
    conics = [c.substitute(frame) for c in exceptional_conics(REF6)]
    assert all(c.coefficient((2, 0, 0)) != 0 for c in conics)
    pencil = conic_product_pencil(REF6)
    res = resultant_eliminate(pencil.first.substitute(frame), pencil.second.substitute(frame), 0)
    expected = None
    for i in (3, 4, 5):
        for j in (0, 1, 2):
            r = resultant_eliminate(conics[i], conics[j], 0)
            expected = r if expected is None else expected * r
    assert res.degree == expected.degree == 36
    assert res == expected


def test_smooth_elsewhere_certifies_the_torsion_candidate():
    pencil = conic_product_pencil(REF6)
    verdict = smooth_elsewhere(pencil.member(1, 1).canonical(), REF6.points)
    assert verdict.certified
    assert verdict.node_orders is not None and len(verdict.node_orders) == 6
    assert all(order >= 1 for order in verdict.node_orders)


def reducible_candidate():
    """A conic times a quartic: nodal at all six points of REF6 but
    singular wherever the two components meet besides them."""
    conic = exceptional_conics(REF6)[5]
    system = linear_system(4, [(REF6.points[5], 2)] + [(p, 1) for p in REF6.points[:5]])
    rng = random.Random("reducible-pick")
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in system.basis]
    quartic = TernaryForm.zero(4)
    for c, member in zip(coeffs, system.basis):
        if c != 0:
            quartic = quartic + member.scale(c)
    return (conic * quartic).canonical()


def test_smooth_elsewhere_rejects_a_reducible_candidate():
    candidate = reducible_candidate()
    assert node_profile(REF6, candidate).ok
    verdict = smooth_elsewhere(candidate, REF6.points)
    assert not verdict.certified
    assert "residual" in verdict.detail
    assert smooth_screen(candidate, REF6.points) is False


# Reference for the node audit of ``smooth_elsewhere``, which divides the
# node linears out of both eliminants over Z and takes the exact ``pgcd``
# of the cofactors: the exact gcd of the eliminants by ``pgcd``, with the
# node roots then divided out of it by synthetic division over Q.


def reference_divide_out_root(poly, root):
    count = 0
    current = [Fraction(c) for c in poly]
    while current and peval(current, root) == 0:
        quotient = [Fraction(0)] * (len(current) - 1)
        carry = Fraction(0)
        for i in range(len(current) - 1, 0, -1):
            carry = current[i] + carry * root
            quotient[i - 1] = carry
        current = ptrim(quotient)
        count += 1
    return current, count


def reference_node_factor_audit(a_poly, b_poly, v_power, projections):
    current = pgcd(a_poly, b_poly)
    orders = []
    for y, z in projections:
        if z == 0:
            if v_power < 1:
                return None, "node projection missing from the common factor"
            orders.append(v_power)
            v_power = 0
            continue
        current, count = reference_divide_out_root(current, y / z)
        if count < 1:
            return None, "node projection missing from the common factor"
        orders.append(count)
    if v_power > 0:
        return None, "unexplained common root at infinity"
    if len(current) > 1:
        return None, f"residual common factor of degree {len(current) - 1}"
    return tuple(orders), ""


#: General position, and the second coordinate frame of its pencil member
#: (1 : 1) sends a node to z = 0, so the audit reads that node's order from
#: the common power of v.
Z0_CONFIG = Config6([(5, -1, 0), (0, 5, 3), (-5, 2, -2), (5, -5, -3), (-4, 0, 2), (-2, 1, 3)])


def smooth_audit_cases():
    """REF6 (4 frames), pencil members k = 1..3 and a random nodal sextic on
    three seeded configurations, the z = 0 member and the reducible candidate."""
    rng = random.Random("smooth-audit-differential")
    cases = [(REF6, conic_product_pencil(REF6).member(1, 1).canonical())]
    for _ in range(3):
        config = random_general_config(rng, bound=5)
        pencil = conic_product_pencil(config)
        cases += [(config, pencil.member(1, k).canonical()) for k in (1, 2, 3)]
        cases.append((config, random_nodal_sextic(config, rng)))
    cases.append((Z0_CONFIG, conic_product_pencil(Z0_CONFIG).member(1, 1).canonical()))
    cases.append((REF6, reducible_candidate()))
    return cases


def verdict_key(verdict):
    return verdict.certified, verdict.attempts, verdict.detail, verdict.node_orders


def decline_degree_count(monkeypatch):
    monkeypatch.setattr(torsion, "_modp_gcd_degree", lambda fx, fy, fz: None)


def test_smooth_elsewhere_matches_the_pgcd_reference(monkeypatch):
    # The degree count would certify every case before either audit ran.
    decline_degree_count(monkeypatch)
    cases = smooth_audit_cases()
    fast = [smooth_elsewhere(form, config.points) for config, form in cases]
    monkeypatch.setattr(torsion, "_node_factor_audit", reference_node_factor_audit)
    exact = [smooth_elsewhere(form, config.points) for config, form in cases]
    assert [verdict_key(v) for v in fast] == [verdict_key(v) for v in exact]
    assert fast[0].attempts == 4
    # Every certified case took the exact route.
    assert all(v.certified and v.route == "exact" for v in fast[:-1])
    assert fast[-1].detail.startswith("residual common factor of degree")
    assert fast[-1].route is None


def test_smooth_elsewhere_certifies_by_the_exact_route_when_mod_p_declines(monkeypatch):
    form = conic_product_pencil(REF6).member(1, 1).canonical()
    fast = smooth_elsewhere(form, REF6.points)
    monkeypatch.setattr(_modp, "gcd_mod", lambda a, b, p: [0, 1])
    exact = smooth_elsewhere(form, REF6.points)
    assert verdict_key(exact) == verdict_key(fast)
    # A gcd of degree 1 mod p also makes the degree count decline.
    assert (fast.route, exact.route) == ("degree count", "exact")


def test_smoothness_route_stays_out_of_the_certificate_json():
    cert = certify(REF6, conic_product_pencil(REF6).member(1, 1).canonical())
    assert cert.smoothness.route == "degree count"
    assert set(cert.to_json()["smooth_elsewhere"]) == {"certified", "attempts", "detail"}


def count_exact_eliminations(monkeypatch):
    """Patch ``resultant_eliminate`` where the library binds it to log each call."""
    calls = []
    original = forms.resultant_eliminate

    def counted(f, g, var):
        calls.append(var)
        return original(f, g, var)

    monkeypatch.setattr(forms, "resultant_eliminate", counted)
    monkeypatch.setattr(torsion, "resultant_eliminate", counted)
    return calls


def test_degree_count_runs_no_exact_elimination(monkeypatch):
    form = conic_product_pencil(REF6).member(1, 1).canonical()
    calls = count_exact_eliminations(monkeypatch)
    verdict = smooth_elsewhere(form, REF6.points)
    assert verdict.certified and verdict.route == "degree count"
    assert smooth_screen(form, REF6.points) is True
    assert calls == []


def record_gcd_degrees(monkeypatch):
    """Patch ``_modp_gcd_degree`` to log every degree it returns."""
    degrees = []
    original = torsion._modp_gcd_degree

    def recorded(fx, fy, fz):
        degrees.append(original(fx, fy, fz))
        return degrees[-1]

    monkeypatch.setattr(torsion, "_modp_gcd_degree", recorded)
    return degrees


def test_degree_count_matches_the_exact_eliminants(monkeypatch):
    cases = smooth_audit_cases()
    degrees = record_gcd_degrees(monkeypatch)
    counted = []
    for config, form in cases:
        degrees.clear()
        counted.append((smooth_elsewhere(form, config.points), list(degrees)))
    decline_degree_count(monkeypatch)
    exact = [smooth_elsewhere(form, config.points) for config, form in cases]
    assert [verdict_key(v) for v, _ in counted] == [verdict_key(v) for v in exact]
    # Every certified case was proved by the count, in its first admissible
    # frame, with degree exactly 6: REF6 in frame 4, the z = 0 member in 2.
    for (verdict, seen), reference in zip(counted[:-1], exact):
        assert verdict.certified and verdict.route == "degree count"
        assert verdict.node_orders == (1,) * 6 and seen == [6]
        assert reference.route == "exact"
    assert counted[0][0].attempts == 4
    assert counted[-2][0].attempts == 2
    # The reducible candidate is singular at the 8 - 5 = 3 further points where
    # the conic meets the quartic: the count reads 6 + 3 in its one admissible
    # frame and declines, and the exact audit reports the residual factor.
    reducible, seen = counted[-1]
    assert not reducible.certified and reducible.route is None
    assert seen == [9] and reducible.detail == "residual common factor of degree 3"


@pytest.mark.parametrize("extra", [[3, 1], [1, 0]], ids=["linear", "power-of-v"])
def test_degree_count_above_six_falls_back_to_the_exact_eliminants(monkeypatch, extra):
    """A common factor u + 3v (or v) added to both eliminants mod p lifts the
    gcd to degree 7, which proves nothing; the exact route must decide."""
    form = conic_product_pencil(REF6).member(1, 1).canonical()
    original = torsion._modp_resultants_x

    def with_extra_factor(f, others, p):
        return [None if res is None else [c % p for c in binary_mul(res, extra)]
                for res in original(f, others, p)]

    degrees = record_gcd_degrees(monkeypatch)
    calls = count_exact_eliminations(monkeypatch)
    monkeypatch.setattr(torsion, "_modp_resultants_x", with_extra_factor)
    verdict = smooth_elsewhere(form, REF6.points)
    assert degrees == [7]
    assert len(calls) == 2
    assert verdict_key(verdict) == (True, 4, "only the six nodes are singular", (1,) * 6)
    assert verdict.route == "exact"


@pytest.mark.parametrize("bad", [None, [0] * 26], ids=["bad-reduction", "zero-reduction"])
@pytest.mark.parametrize("primes", [1, 2])
def test_degree_count_moves_to_the_next_prime(monkeypatch, bad, primes):
    """An eliminant that reduces badly or to zero at the first prime sends the
    count to the second; at both primes the exact route decides."""
    form = conic_product_pencil(REF6).member(1, 1).canonical()
    original = torsion._modp_resultants_x
    broken = _modp.SCREEN_PRIMES[:primes]
    seen = []

    def failing(f, others, p):
        seen.append(p)
        return [bad] * len(others) if p in broken else original(f, others, p)

    monkeypatch.setattr(torsion, "_modp_resultants_x", failing)
    verdict = smooth_elsewhere(form, REF6.points)
    assert verdict_key(verdict) == (True, 4, "only the six nodes are singular", (1,) * 6)
    assert verdict.route == ("degree count" if primes == 1 else "exact")
    assert set(seen) == set(_modp.SCREEN_PRIMES)


def test_degree_count_needs_every_node_to_be_singular(monkeypatch):
    form = conic_product_pencil(REF6).member(1, 1).canonical()
    # (7, -3, 11) is not on the curve, and point 6 is left out, so the six
    # given projections are still the gcd's six roots mod p: without the
    # exact precheck the count would certify.
    fake_nodes = [q.coords for q in REF6.points[:5]] + [(7, -3, 11)]
    assert not torsion._singular_at(form, fake_nodes)
    assert not torsion._singular_at(form, [(0, 0, 0)])
    assert torsion._singular_at(form, [q.coords for q in REF6.points])
    # Each partial is checked: the sextic line x_v^6 is singular exactly
    # where x_v = 0, and only its v-th partial is nonzero at (1, 1, 1).
    for v in range(3):
        power = TernaryForm.monomial(tuple(6 if w == v else 0 for w in range(3)))
        assert not torsion._singular_at(power, [(1, 1, 1)])
        assert torsion._singular_at(power, [tuple(Fraction(w != v, 3) for w in range(3))])
    frames = [frame for frame, _ in _admissible_frames(form, fake_nodes) if frame is not None]
    moved = frames[0][0]
    assert torsion._modp_gcd_degree(*(moved.partial(v) for v in range(3))) == 6
    degrees = record_gcd_degrees(monkeypatch)
    verdict = smooth_elsewhere(form, fake_nodes)
    assert smooth_screen(form, fake_nodes) is False
    assert degrees == []
    decline_degree_count(monkeypatch)
    assert verdict_key(verdict) == verdict_key(smooth_elsewhere(form, fake_nodes))
    assert not verdict.certified and verdict.route is None
    assert verdict.detail == "node projection missing from the common factor"


def seventh_double_point_case(seed):
    """(config, q, form): a seeded member of the 7-dimensional system of
    sextics double at the six points and at q = point 1 + (1, 0, 0), which
    lies on point 1's vertical line, the line frame 0 projects to a point."""
    config = random_general_config(random.Random(f"seventh:{seed}"), bound=3)
    x, y, z = config.points[0].coords
    q = PointP2((x + 1, y, z))
    system = linear_system(6, [(p, 2) for p in config.points] + [(q, 2)])
    assert len(system.basis) == 7
    rng = random.Random(f"seventh-member:{seed}")
    form = TernaryForm.zero(6)
    while form.is_zero:
        for b in system.basis:
            form = form + b.scale(rng.randint(-9, 9))
    return config, q, form


@pytest.mark.parametrize(
    "seed, detail",
    [
        (0, "extra singular point on a node line"),
        (4, "residual common factor of degree 1"),
        (14, "residual common factor of degree 1"),
        (16, "extra singular point on a node line"),
    ],
)
def test_a_seventh_double_point_is_rejected_by_the_exact_route(monkeypatch, seed, detail):
    """The six nodes are ordinary, so ``node_profile`` passes.  The seventh
    singular point lifts the count to degree 7 in every admissible frame, so
    the exact eliminants decide: the detail is the last frame's, a residual
    factor where q projects apart from the nodes, or q found on a node line."""
    config, q, form = seventh_double_point_case(seed)
    assert node_profile(config, form).ok
    assert torsion._singular_at(form, [q.coords])
    degrees = record_gcd_degrees(monkeypatch)
    calls = count_exact_eliminations(monkeypatch)
    verdict = smooth_elsewhere(form, config.points)
    assert verdict_key(verdict) == (False, 4, detail, None) and verdict.route is None
    assert set(degrees) == {7} and len(calls) == 2 * len(degrees)
    assert smooth_screen(form, config.points) is False


@pytest.mark.parametrize("seed", [14, 16])
def test_a_seventh_double_point_on_a_node_line_is_found_in_the_identity_frame(
    monkeypatch, seed
):
    """In the identity frame q and point 1 project to the same point, so only
    the check of the node lines can see q."""
    config, _, form = seventh_double_point_case(seed)
    monkeypatch.setattr(torsion, "_FRAMES", torsion._FRAMES[:1])
    verdict = smooth_elsewhere(form, config.points)
    assert verdict_key(verdict) == (False, 1, "extra singular point on a node line", None)


def reference_singular_at(form, points):
    """The partial-derivative body of ``_singular_at`` before it read the
    double-point rows: every point is nonzero and all three partials vanish."""
    partials = [form.partial(v) for v in range(3)]
    return all(
        any(linalg.rat(c) != 0 for c in q) and all(g.eval(q) == 0 for g in partials)
        for q in points
    )


def singular_at_cases():
    """(form, point) pairs: nodal sextics on seeded, ~60-bit and
    near-degenerate configurations (pencil members and random members) at
    their nodes, at the awkward points (zero pivot coordinates, large
    denominators), and at a point the form was shifted to vanish at; every
    degree-6 monomial at the coordinate points and a few others."""
    rng = random.Random("singular-at-reference")
    configs = [REF6, Z0_CONFIG] + [random_general_config(rng, bound=20) for _ in range(2)]
    configs += [random_general_config(rng, bound=2**60)] + near_degenerate_configs(rng, 2)
    extra = [q for q in awkward_points() if any(linalg.rat(x) for x in q)]
    cases = []
    for config in configs:
        pencil = conic_product_pencil(config)
        nodes = [q.coords for q in config.points]
        for form in (pencil.member(1, 1), pencil.member(2, -3), random_nodal_sextic(config, rng)):
            cases += [(form, q) for q in nodes + extra]
            # Subtract a multiple of x^6 so that the form vanishes at an
            # off-curve point, where it is then smooth or singular.
            q = (rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            shifted = form + TernaryForm.monomial((6, 0, 0), -form.eval(q) / q[0] ** 6)
            cases += [(shifted, q)] + [(shifted, p) for p in nodes]
    corners = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 2, -1), (1, 1, 1)]
    for mono in forms.monomials_of_degree(6):
        cases += [(TernaryForm.monomial(mono, 5), q) for q in corners]
    return cases


def test_singular_at_matches_the_partial_derivative_reference(monkeypatch):
    cases = singular_at_cases()

    def refuse(*args):
        raise AssertionError("_singular_at reads the double-point rows only")

    monkeypatch.setattr(TernaryForm, "partial", refuse)
    monkeypatch.setattr(TernaryForm, "eval", refuse)
    got = [torsion._singular_at(form, [q]) for form, q in cases]
    monkeypatch.undo()
    assert got == [reference_singular_at(form, [q]) for form, q in cases]
    # Both verdicts occur, at nodes with a zero pivot coordinate too.
    assert True in got and False in got
    assert torsion._singular_at(conic_product_pencil(REF6).member(1, 1), [(0, 1, 0), (0, 0, 1)])
    # A list is singular only where every point is.
    nodal, node = cases[0]
    assert torsion._singular_at(nodal, [node] * 3)
    assert not torsion._singular_at(nodal, [node, (0, 0, 0)])
    for form in (nodal, TernaryForm.zero(6)):
        assert not torsion._singular_at(form, [(0, 0, 0)])
        assert not reference_singular_at(form, [(0, 0, 0)])
    for q in [(1, 2), (1, 2, 3, 4)]:
        for check in (torsion._singular_at, reference_singular_at):
            with pytest.raises(ValueError, match="a plane point needs three coordinates"):
                check(nodal, [q])


def record_polynomial_coefficients(monkeypatch):
    """Wrap ``pgcd``, ``pdiv_exact`` and ``pprimitive`` in ``_poly`` and
    wherever ``torsion`` binds them; log (name, type) per coefficient read."""
    seen = []
    for name in ("pgcd", "pdiv_exact", "pprimitive"):
        original = getattr(_poly, name)

        def wrapped(*polys, _name=name, _original=original):
            seen.extend((_name, type(c)) for p in polys for c in p)
            return _original(*polys)

        monkeypatch.setattr(_poly, name, wrapped)
        if hasattr(torsion, name):
            monkeypatch.setattr(torsion, name, wrapped)
    return seen


def test_smooth_elsewhere_hands_the_polynomial_helpers_only_integers(monkeypatch):
    """REF6 and seeded members (degree count and node lines), and the
    seventh-point cases (exact route: the node audit over Z)."""
    seen = record_polynomial_coefficients(monkeypatch)
    rng = random.Random("integer-polynomials")
    cases = [(REF6, conic_product_pencil(REF6).member(1, 1))]
    for _ in range(2):
        config = random_general_config(rng, bound=20)
        cases += [(config, conic_product_pencil(config).member(1, 2))]
        cases += [(config, random_nodal_sextic(config, rng))]
    for config, form in cases:
        verdict = smooth_elsewhere(form, config.points)
        assert verdict.certified and verdict.route == "degree count"
    assert {name for name, _ in seen} == {"pgcd", "pdiv_exact", "pprimitive"}
    assert {kind for _, kind in seen} == {int}
    seen.clear()
    for seed in (0, 4, 14, 16):
        config, _, form = seventh_double_point_case(seed)
        assert not smooth_elsewhere(form, config.points).certified
    assert {name for name, _ in seen} == {"pgcd", "pdiv_exact", "pprimitive"}
    assert {kind for _, kind in seen} == {int}


def test_smooth_elsewhere_builds_no_frame_matrix(monkeypatch):
    """The frames and their inverses are built once, at import: a call that
    moves the form into every frame computes no inverse and no determinant."""
    calls = []

    def record(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for module in (linalg, forms, plane, torsion):
        for name in ("inverse", "determinant"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, record(name, getattr(module, name)))
    form = conic_product_pencil(REF6).member(1, 1).canonical()
    verdict = smooth_elsewhere(form, REF6.points)
    assert verdict.certified and verdict.attempts == len(torsion._FRAMES) == 4
    assert calls == []


def frame_eliminants(config, form):
    """(a_poly, b_poly, v_power, projections) for every admissible frame."""
    out = []
    for frame, _ in _admissible_frames(form, [q.coords for q in config.points]):
        if frame is None:
            continue
        moved, nodes = frame
        fx, fy, fz = (moved.partial(v) for v in range(3))
        a_poly, a_v = _trailing_v_split(_binary_coefficients(resultant_eliminate(fx, fy, 0)))
        b_poly, b_v = _trailing_v_split(_binary_coefficients(resultant_eliminate(fx, fz, 0)))
        projections = [(q[1], q[2]) for q in nodes]
        out.append((pprimitive(a_poly), pprimitive(b_poly), min(a_v, b_v), projections))
    return out


def test_node_audit_reads_a_node_at_z_zero_from_the_v_power():
    form = conic_product_pencil(Z0_CONFIG).member(1, 1).canonical()
    frames = frame_eliminants(Z0_CONFIG, form)
    assert any(v_power >= 1 and any(z == 0 for _, z in projections)
               for _, _, v_power, projections in frames)
    for a_poly, b_poly, v_power, projections in frames:
        orders, detail = _node_factor_audit(a_poly, b_poly, v_power, projections)
        assert (orders, detail) == reference_node_factor_audit(a_poly, b_poly, v_power, projections)
    verdict = smooth_elsewhere(form, Z0_CONFIG.points)
    assert verdict.certified and verdict.attempts == 2 and verdict.route == "degree count"


# Synthetic eliminant pairs: products of the node linears den*u - num and
# chosen cofactors, audited by ``_node_factor_audit`` and the reference.
NODE_ROOTS = [Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(0), Fraction(-3, 4)]
P1, P2 = _modp.SCREEN_PRIMES


def node_product(powers):
    out = [1]
    for root, power in zip(NODE_ROOTS, powers):
        for _ in range(power):
            out = pmul(out, [-root.numerator, root.denominator])
    return out


def audit_both(a_poly, b_poly, v_power=0, projections=None):
    if projections is None:
        projections = [(r, Fraction(1)) for r in NODE_ROOTS]
    got = _node_factor_audit(a_poly, b_poly, v_power, projections)
    assert got == reference_node_factor_audit(a_poly, b_poly, v_power, projections)
    return got


def test_node_audit_counts_node_orders_as_the_gcd_multiplicity():
    a_poly = pmul(node_product([2, 1, 3, 1, 1, 2]), [7, 0, 1])
    b_poly = pmul(node_product([1, 2, 3, 1, 4, 1]), [1, 1, 3])
    assert audit_both(a_poly, b_poly) == ((1, 1, 3, 1, 1, 1), "")
    missing = node_product([1, 1, 1, 1, 1, 0])
    assert audit_both(pmul(missing, [7, 0, 1]), node_product([1] * 6)) == (
        None,
        "node projection missing from the common factor",
    )


def test_node_audit_declines_a_shared_non_node_factor():
    shared = [1, 0, 1]  # u^2 + 1, no node root
    a_rest, b_rest = pmul(shared, [7, 0, 1]), pmul(shared, [1, 1, 3])
    a_poly = pmul(node_product([1] * 6), a_rest)
    b_poly = pmul(node_product([1] * 6), b_rest)
    assert audit_both(a_poly, b_poly) == (None, "residual common factor of degree 2")


def test_node_audit_falls_back_when_both_primes_divide_the_leading_coefficient():
    nodes = node_product([1] * 6)
    # Coprime cofactors: the audit certifies.
    a_poly = pmul(nodes, [1, 1, P1 * P2])
    b_poly = pmul(nodes, [1, 3])
    assert audit_both(a_poly, b_poly) == ((1,) * 6, "")
    assert audit_both(b_poly, a_poly) == ((1,) * 6, "")
    assert audit_both(pmul(nodes, [1, 1, P1]), b_poly) == ((1,) * 6, "")
    # A shared factor P1*P2*u + 1 is a unit mod either prime, so a mod-p
    # gcd has degree 0 although the cofactors are not coprime; pgcd sees it.
    a_rest, b_rest = pmul([1, P1 * P2], [2, 1]), pmul([1, P1 * P2], [1, 3])
    assert all(len(_modp.gcd_mod(a_rest, b_rest, p)) == 1 for p in (P1, P2))
    a_poly, b_poly = pmul(nodes, a_rest), pmul(nodes, b_rest)
    assert audit_both(a_poly, b_poly) == (None, "residual common factor of degree 1")


def test_node_audit_handles_a_node_at_z_zero():
    at_infinity = [(r, Fraction(1)) for r in NODE_ROOTS[:5]] + [(Fraction(3), Fraction(0))]
    a_poly = pmul(node_product([1, 1, 1, 1, 1, 0]), [7, 0, 1])
    b_poly = pmul(node_product([2, 1, 1, 1, 1, 0]), [1, 1, 3])
    assert audit_both(a_poly, b_poly, 2, at_infinity) == ((1, 1, 1, 1, 1, 2), "")
    assert audit_both(a_poly, b_poly, 0, at_infinity) == (
        None,
        "node projection missing from the common factor",
    )
    finite = [(r, Fraction(1)) for r in NODE_ROOTS[:5]]
    assert audit_both(a_poly, b_poly, 1, finite) == (
        None,
        "unexplained common root at infinity",
    )


def test_smooth_screen_passes_the_torsion_candidate():
    pencil = conic_product_pencil(REF6)
    assert smooth_screen(pencil.member(1, 1).canonical(), REF6.points) is True


def test_certify_accepts_the_reference_candidate():
    pencil = conic_product_pencil(REF6)
    cert = certify(REF6, pencil.member(1, 1).canonical())
    assert cert.accepted
    assert cert.rank_node_side.dimension == 2
    assert cert.rank_conic_side.dimension == 2
    assert cert.smoothness.certified
    assert cert.screened
    assert cert.reasons == ("six ordinary nodes, matching rank two on both sides, smooth elsewhere",)
    data = cert.to_json()
    assert data["accepted"] is True
    assert data["rank_node_side"] == data["rank_conic_side"] == 2


def test_certify_rejects_triple_point_candidates():
    pencil = conic_product_pencil(REF6)
    cert = certify(REF6, pencil.second)
    assert not cert.accepted
    assert cert.reasons == ("node profile failed: point 4: multiplicity-3",)


def test_certify_rejects_trivial_torsion():
    rng = random.Random("torsion-random-module")
    form = random_nodal_sextic(REF6, rng)
    cert = certify(REF6, form)
    assert not cert.accepted
    assert cert.rank_node_side.dimension == 1
    assert "no independent matching partner: torsion class is trivial" in cert.reasons


def test_certify_rejects_degenerate_configurations():
    pencil = conic_product_pencil(REF6)
    cert = certify(COLLINEAR, pencil.first)
    assert not cert.accepted
    witness = "configuration is not in general position: points 1, 2, 3 are collinear"
    assert cert.reasons == (witness,)
    sweep = certify_pencil(COLLINEAR)
    assert not sweep.accepted
    assert sweep.reasons == (witness,)


def test_certify_pencil_accepts_the_reference_configuration():
    cert = certify_pencil(REF6)
    assert cert.accepted
    assert cert.member == ("1", "1")
    assert cert.rank_node_side.dimension == cert.rank_conic_side.dimension == 2
    assert cert.smoothness.certified


def test_random_nodal_sextics_live_in_the_nodal_system():
    rng = random.Random("nodal-system-membership")
    for _ in range(3):
        form = random_nodal_sextic(REF6, rng)
        assert form.degree == 6
        for p in REF6.points:
            assert tangent_cone(form, p).multiplicity >= 2


def reference_random_nodal_sextic(config, rng, bound=9):
    """``random_nodal_sextic`` by summing scaled ``TernaryForm``s."""
    system = linear_system(6, [(p, 2) for p in config.points])
    while True:
        coeffs = [Fraction(rng.randint(-bound, bound)) for _ in system.basis]
        if not any(coeffs):
            continue
        g = TernaryForm.zero(6)
        for c, member in zip(coeffs, system.basis):
            if c != 0:
                g = g + member.scale(c)
        if not g.is_zero:
            return g.canonical()


def test_random_nodal_sextic_matches_the_form_sum_reference():
    rng = random.Random("random-nodal-reference")
    configs = [REF6] + [random_general_config(rng) for _ in range(3)]
    configs += [random_general_config(rng, bound=2**60)] + near_degenerate_configs(rng, 2)
    for config in configs:
        for seed in range(3):
            got_rng, want_rng = random.Random(seed), random.Random(seed)
            got = random_nodal_sextic(config, got_rng, bound=seed + 1)
            assert got == reference_random_nodal_sextic(config, want_rng, bound=seed + 1)
            assert got_rng.getstate() == want_rng.getstate()


# Reference for side "F" of ``torsion_rank``: a rational chart of each
# exceptional conic, the composition of a sextic with the chart in Fraction
# arithmetic, and the exact division by the forced divisor.  Binary forms
# in (u, v) are full-length coefficient lists: entry i is the coefficient
# of u^i v^(d - i).


def det3(a, b, c):
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


DIRECTION_CATALOG = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 3),
    (2, 1, 5),
)


def integer_point(coords):
    scale = lcm(*(c.denominator for c in coords))
    return tuple(int(c * scale) for c in coords)


def reference_conic_chart(config, conic, conic_index):
    """(theta, forced, parameter) for one exceptional conic.

    A line through the base point, the first configuration point on the
    conic, with direction d(u, v) = u r1 + v r2 meets the conic again at
    theta(u, v).  ``forced`` is the squared product of the parameters of
    the five configuration points on the conic, the factor every matching
    sextic restriction contains, and ``parameter`` maps a point of the
    conic other than the base to its (u, v).  The conic and the points are
    scaled to integers first, which scales every restriction by one
    constant and keeps theta and forced integral.
    """
    conic = conic.scale(lcm(*(c.denominator for _, c in conic.terms())))

    def value(x):
        return int(conic.eval(x))

    points = [integer_point(p.coords) for p in config.points]
    base_index = next(j for j in range(6) if j != conic_index and value(points[j]) == 0)
    base = points[base_index]
    for r1, r2 in itertools.combinations(DIRECTION_CATALOG, 2):
        if det3(base, r1, r2) == 0:
            continue
        # Secant coefficients along d: the residual intersection of the
        # line through base is theta = c2 base - c1 d, with c2 = conic(d)
        # and c1 the polar pairing of base with d.
        f_r1 = value(r1)
        f_r2 = value(r2)
        mid = value(tuple(x + y for x, y in zip(r1, r2))) - f_r1 - f_r2
        c2 = [f_r2, mid, f_r1]
        c1 = [
            value(tuple(x + y for x, y in zip(base, r2))) - f_r2,
            value(tuple(x + y for x, y in zip(base, r1))) - f_r1,
        ]
        if any(c1):
            break  # otherwise base is the vertex of this secant family
    else:
        raise ValueError("no admissible secant frame for the conic")
    theta = []
    for m in range(3):
        prod = binary_mul(c1, [r2[m], r1[m]])
        theta.append([c2[t] * base[m] - prod[t] for t in range(3)])

    def parameter(x):
        return det3(base, x, r2), -det3(base, x, r1)

    forced = [1]
    for k in range(6):
        if k == conic_index:
            continue
        if k == base_index:
            linear = c1
        else:
            linear = [det3(base, points[k], r2), det3(base, points[k], r1)]
        assert any(linear), "degenerate parameter for a configuration point"
        forced = binary_mul(forced, binary_mul(linear, linear))
    return theta, forced, parameter


def reference_compose_binary(form, theta):
    """form(theta_0, theta_1, theta_2) composed in Fraction arithmetic."""
    powers = []
    for comp in theta:
        table = [[1]]
        for _ in range(form.degree):
            table.append(binary_mul(table[-1], comp))
        powers.append(table)
    out = [Fraction(0)] * (2 * form.degree + 1)
    for (i, j, k), c in form.terms():
        piece = binary_mul(binary_mul(powers[0][i], powers[1][j]), powers[2][k])
        for t, val in enumerate(piece):
            out[t] += c * val
    return out


def reference_binary_div_exact(num, den):
    """Quotient of binary forms by ``Fraction`` long division."""
    pn, pd = ptrim(list(num)), ptrim(list(den))
    if not pn:
        return [Fraction(0)] * (len(num) - len(den) + 1)
    if len(num) - len(pn) < len(den) - len(pd):
        raise ArithmeticError("binary division is not exact")
    rem = [Fraction(x) for x in pn]
    q = [Fraction(0)] * max(len(pn) - len(pd) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        q[i] = rem[i + len(pd) - 1] / pd[-1]
        for j, dj in enumerate(pd):
            rem[i + j] -= q[i] * dj
    if any(rem):
        raise ArithmeticError("binary division is not exact")
    return q + [Fraction(0)] * (len(num) - len(den) + 1 - len(q))


def reference_conic_restriction(form, theta, forced):
    """The binary quadric q with form(theta) = forced * q."""
    return reference_binary_div_exact(reference_compose_binary(form, theta), forced)


def binary_value(form, u, v):
    d = len(form) - 1
    return sum(c * u**i * v ** (d - i) for i, c in enumerate(form))


# Reference for the row construction of ``torsion_rank``: each basis member's
# chart quadric by ``chart_quadratic_part`` at every node, and each basis
# member composed with the conic chart and divided exactly by the forced
# divisor on every conic.


@functools.lru_cache(maxsize=None)
def reference_conic_sites(config):
    """Per exceptional conic: its chart and the basis members' quadrics."""
    basis = linear_system(6, [(p, 2) for p in config.points]).basis
    sites = []
    for i, conic in enumerate(exceptional_conics(config)):
        theta, forced, parameter = reference_conic_chart(config, conic, i)
        quadrics = [reference_conic_restriction(g, theta, forced) for g in basis]
        sites.append((theta, forced, parameter, quadrics))
    return sites


def reference_torsion_rank(sextic, side):
    system = linear_system(6, [(p, 2) for p in sextic.config.points])
    rows = []
    if side == "E":
        for i, p in enumerate(sextic.config.points):
            vectors = [chart_quadratic_part(g, p) for g in system.basis]
            rows.extend(torsion._proportionality_rows(vectors, sextic.cones[i]))
    else:
        for theta, forced, _, vectors in reference_conic_sites(sextic.config):
            reference = reference_conic_restriction(sextic.form, theta, forced)
            rows.extend(torsion._proportionality_rows(vectors, reference))
    kernel = kernel_basis(rows)
    basis = []
    for vec in kernel:
        g = TernaryForm.zero(6)
        for coeff, member in zip(vec, system.basis):
            if coeff != 0:
                g = g + member.scale(coeff)
        basis.append(g.canonical())
    return len(kernel), tuple(basis)


def rank_configs():
    rng = random.Random("torsion-rank-configs")
    seeded = [random_general_config(rng) for _ in range(6)]
    wide = [random_general_config(rng, bound=2**60) for _ in range(2)]
    return [REF6] + seeded + wide


@pytest.fixture(scope="module")
def rank_cases():
    """Nodal sextics, one list per configuration: pencil member (1 : 1) on
    each, then member (1 : 2) and a random nodal sextic on REF6 and the
    seeded configurations (a rank on 60-bit coordinates takes seconds)."""
    rng = random.Random("torsion-rank-forms")
    cases = []
    for config in rank_configs():
        pencil = conic_product_pencil(config)
        forms = [pencil.member(1, 1)]
        if len(cases) < 7:
            forms += [pencil.member(1, 2), random_nodal_sextic(config, rng)]
        profiles = [node_profile(config, form) for form in forms]
        assert all(profile.ok for profile in profiles)
        cases.append(profiles)
    return cases


def test_torsion_rank_matches_the_composition_reference(rank_cases):
    dimensions = set()
    for profile in (profile for profiles in rank_cases for profile in profiles):
        for side in ("E", "F"):
            got = torsion_rank(profile, side)
            assert (got.dimension, got.basis) == reference_torsion_rank(profile, side)
            dimensions.add(got.dimension)
    assert dimensions == {1, 2}


def test_conic_vectors_are_the_chart_restrictions_up_to_a_shared_factor(rank_cases):
    """Entry k of a side-F vector is c_k q(t_k), where q is the form's conic
    restriction divided by the forced divisor, t_k the chart parameter of the
    k-th sample point, and c_k != 0 is shared by every basis member and the
    candidate."""
    for profile, *_ in rank_cases:
        config = profile.config
        basis = linear_system(6, [(p, 2) for p in config.points]).basis
        sites = torsion._matching_vectors(profile, "F", basis)
        conics = exceptional_conics(config)
        for i, (theta, forced, parameter, quadrics) in enumerate(reference_conic_sites(config)):
            vectors, reference = sites[i]
            quadrics = quadrics + [reference_conic_restriction(profile.form, theta, forced)]
            base = config.points[(i + 1) % 6]
            samples = sample_points_on_conic(conics[i], base, config.points, count=3)
            for k, point in enumerate(samples):
                u, v = parameter(point.coords)
                assert binary_value(forced, u, v) != 0
                factors = set()
                for q, vector in zip(quadrics, vectors + [reference]):
                    want = binary_value(q, u, v)
                    if want == 0:
                        assert vector[k] == 0
                    else:
                        factors.add(vector[k] / want)
                assert len(factors) == 1 and 0 not in factors


def test_node_vectors_are_the_chart_quadrics(rank_cases):
    """At node p every vector is D d^4 times the form's chart quadric: D the
    common denominator of the members' and the candidate's coefficients,
    p = (n_a, n_b, d) / d in the chart of ``_integer_chart_columns``."""
    monos = forms.monomials_of_degree(6)
    for profile, *_ in rank_cases:
        config = profile.config
        basis = linear_system(6, [(p, 2) for p in config.points]).basis
        sites = torsion._matching_vectors(profile, "E", basis)
        D = lcm(*(c.denominator for g in (*basis, profile.form) for c in g.coefficient_vector()))
        for p, cone, (vectors, reference) in zip(config.points, profile.cones, sites):
            _, d = plane._integer_chart_columns(monos, p, ((2, 0), (1, 1), (0, 2)))
            assert all(type(x) is int for vector in (*vectors, reference) for x in vector)
            assert vectors == [[D * d**4 * c for c in chart_quadratic_part(g, p)] for g in basis]
            assert cone == chart_quadratic_part(profile.form, p)
            assert reference == [D * d**4 * c for c in cone]


def test_node_profiles_and_ranks_on_near_degenerate_and_wide_configurations():
    """Tangent cones and node-side ranks where a triple is nearly collinear
    or a conic nearly a line pair (``near_degenerate_configs``), or the
    coordinates take ~60 bits; and the conic side on the near line pair."""
    rng = random.Random("near-degenerate-ranks")
    near = near_degenerate_configs(rng, 2)
    wide = random_general_config(rng, bound=2**60)
    cases = [(c, conic_product_pencil(c).member(1, 1)) for c in near + [wide]]
    cases += [(c, random_nodal_sextic(c, rng)) for c in near]
    dimensions = set()
    for config, form in cases:
        profile = node_profile(config, form)
        assert profile.ok
        for p, cone in zip(config.points, profile.cones):
            tc = tangent_cone(form, p)
            assert (tc.multiplicity, tc.quadric, tc.is_node) == reference_tangent_cone(form, p)
            assert tc.quadric == cone
        got = torsion_rank(profile, "E")
        assert (got.dimension, got.basis) == reference_torsion_rank(profile, "E")
        dimensions.add(got.dimension)
    assert dimensions == {1, 2}
    # The second draw puts points 1, 2 and 3, 4 on two lines, so conic 6
    # (through points 1 .. 5) is nearly a line pair.
    profile = node_profile(near[1], cases[1][1])
    got = torsion_rank(profile, "F")
    assert (got.dimension, got.basis) == reference_torsion_rank(profile, "F")


def test_torsion_rank_composes_only_the_candidate(monkeypatch):
    calls = {"chart quadric": 0}

    def counted_chart_quadric(form, p):
        calls["chart quadric"] += 1
        return chart_quadratic_part(form, p)

    monkeypatch.setattr(plane, "chart_quadratic_part", counted_chart_quadric)
    monkeypatch.setattr(torsion, "chart_quadratic_part", counted_chart_quadric, raising=False)
    profile = node_profile(REF6, conic_product_pencil(REF6).member(1, 1))
    torsion_rank(profile, "F")
    torsion_rank(profile, "E")
    assert calls == {"chart quadric": 0}


def test_torsion_rank_and_random_nodal_sextic_sum_no_sextics(monkeypatch):
    """Neither sums scaled sextics as ``TernaryForm``s; the exceptional conics
    of side "F" are still scaled by ``conic_through``, so only sextics count."""
    calls = {"add": 0, "scale": 0}
    add, scale = TernaryForm.__add__, TernaryForm.scale

    def counted(name, method):
        def wrapper(form, other):
            calls[name] += form.degree == 6
            return method(form, other)

        return wrapper

    monkeypatch.setattr(TernaryForm, "__add__", counted("add", add))
    monkeypatch.setattr(TernaryForm, "scale", counted("scale", scale))
    profile = node_profile(REF6, conic_product_pencil(REF6).member(1, 1))
    calls.update(add=0, scale=0)
    for side in ("E", "F"):
        assert torsion_rank(profile, side).dimension == 2
    random_nodal_sextic(REF6, random.Random("no-form-sums"))
    assert calls == {"add": 0, "scale": 0}


def test_torsion_rank_rejects_a_hand_built_sextic_off_the_forced_divisor():
    x, y, z = (TernaryForm.variable(i) for i in range(3))
    # Vanishes at no real point, so at no configuration point.
    definite = (x * x + y * y + z * z) * (x * x + 2 * y * y + 3 * z * z)
    definite = definite * (x * x + y * y + 5 * z * z)
    # Through every configuration point, but with multiplicity one: its
    # conic restrictions have simple zeros where the forced divisor has squares.
    rng = random.Random("conic-restriction-inexact")
    simple = TernaryForm.zero(6)
    for g in linear_system(6, [(p, 1) for p in REF6.points]).basis:
        simple = simple + g.scale(rng.randint(1, 9))
    cones = node_profile(REF6, conic_product_pencil(REF6).member(1, 1)).cones
    for form in (definite, simple):
        with pytest.raises(ArithmeticError):
            torsion_rank(NodalSextic(REF6, form, cones), "F")


def conic_matrix(conic):
    """The symmetric matrix M with conic(x) = x^T M x."""
    c = conic.coefficient
    half = Fraction(1, 2)
    return [
        [c((2, 0, 0)), half * c((1, 1, 0)), half * c((1, 0, 1))],
        [half * c((1, 1, 0)), c((0, 2, 0)), half * c((0, 1, 1))],
        [half * c((1, 0, 1)), half * c((0, 1, 1)), c((0, 0, 2))],
    ]


def test_torsion_rank_rejects_a_singular_exceptional_conic():
    # Points 1, 2, 3 of COLLINEAR lie on z = 0, so the conics through five
    # points that omit 4, 5 or 6 are line pairs, which have no chart.
    conics = exceptional_conics(COLLINEAR)
    assert [determinant(Matrix(conic_matrix(c))) == 0 for c in conics] == [False] * 3 + [True] * 3
    profile = node_profile(COLLINEAR, random_nodal_sextic(COLLINEAR, random.Random("collinear")))
    assert profile.ok
    with pytest.raises(ValueError, match="exceptional conic 4 is singular"):
        torsion_rank(profile, "F")


# Two references for ``_modp_resultant_x``, which runs a Euclidean
# resultant over GF(p) at t = 0 .. mn and interpolates in Newton form.
# ``reference_exact_resultant_x`` reduces the forms mod p and runs the exact
# ``resultant_eliminate``; ``reference_resultant_x`` evaluates Res_x at
# t = 0 .. mn as a GF(p) Sylvester determinant of f(x, t, 1) and g(x, t, 1),
# then interpolates by Lagrange over GF(p).


def reference_exact_resultant_x(f, g, p):
    """Res_x(f, g) mod p from the exact eliminant of the reduced forms."""
    reduced = []
    for form in (f, g):
        coeffs = {}
        for mono, c in form.terms():
            cm = frac_mod(c, p)
            if cm is None:
                return None
            coeffs[mono] = cm
        reduced.append(TernaryForm(form.degree, coeffs))
    try:
        res = resultant_eliminate(*reduced, 0)
    except ValueError:  # degenerate elimination, or a form that vanishes mod p
        return None
    return [c % p for c in _binary_coefficients(res)]


def reference_det_mod(rows, p):
    """Determinant over GF(p) by Gaussian elimination."""
    n = len(rows)
    a = [row[:] for row in rows]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det % p
        det = det * a[k][k] % p
        inv = pow(a[k][k], -1, p)
        for i in range(k + 1, n):
            if a[i][k] == 0:
                continue
            f = a[i][k] * inv % p
            a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def reference_pmul_mod(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return ptrim(out)


def reference_interpolate_mod(points, p):
    """Lagrange interpolation over GF(p); x-values must be distinct."""
    result = []
    for i, (xi, yi) in enumerate(points):
        term = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            term = reference_pmul_mod(term, [-xj % p, 1], p)
            denom = denom * (xi - xj) % p
        c = yi * pow(denom, -1, p) % p
        scaled = [x * c % p for x in term]
        n = max(len(result), len(scaled))
        result = [
            ((result[k] if k < len(result) else 0) + (scaled[k] if k < len(scaled) else 0)) % p
            for k in range(n)
        ]
    return ptrim(result)


def reference_x_poly(form, t, p):
    """form(x, t, 1) mod p as an x-coefficient list, or None on bad reduction."""
    out = [0] * (form.degree + 1)
    tpow = [1] * (form.degree + 1)
    for j in range(1, form.degree + 1):
        tpow[j] = tpow[j - 1] * t % p
    for (i, j, k), c in form.terms():
        cm = frac_mod(c, p)
        if cm is None:
            return None
        out[i] = (out[i] + cm * tpow[j]) % p
    return out


def reference_resultant_x(f, g, p):
    """Res_x(f, g) mod p as a binary coefficient list, by evaluation."""
    m, n = f.degree, g.degree
    bound = m * n
    samples = []
    for t in range(bound + 1):
        fu = reference_x_poly(f, t, p)
        gu = reference_x_poly(g, t, p)
        if fu is None or gu is None:
            return None
        if fu[m] == 0 or gu[n] == 0:
            return None  # leading coefficient degenerates mod p
        size = m + n
        rows = []
        for shift in range(n):
            row = [0] * size
            for k in range(m + 1):
                row[shift + (m - k)] = fu[k]
            rows.append(row)
        for shift in range(m):
            row = [0] * size
            for k in range(n + 1):
                row[shift + (n - k)] = gu[k]
            rows.append(row)
        samples.append((t, reference_det_mod(rows, p)))
    poly = reference_interpolate_mod(samples, p)
    return poly + [0] * (bound + 1 - len(poly))


def conic_triple_combination(config, rng):
    """A seeded integer combination of the 20 products of three exceptional
    conics, as the nodal-reject benchmark builds them: the conics are scaled
    to a leading 1, so the coefficients carry large denominators."""
    conics = exceptional_conics(config)
    form = TernaryForm.zero(6)
    for a, b, c in itertools.combinations(range(6), 3):
        form = form + (conics[a] * conics[b] * conics[c]).scale(rng.randint(-9, 9))
    return form


def test_screen_resultant_matches_the_evaluation_reference():
    rng = random.Random("screen-resultant-differential")
    configs = [REF6] + [random_general_config(rng) for _ in range(2)]
    wide = random_general_config(rng, bound=2**60)
    cases = [(config, conic_product_pencil(config).member(1, 1)) for config in configs + [wide]]
    cases += [(config, random_nodal_sextic(config, rng)) for config in configs]
    nodal = conic_triple_combination(configs[1], rng)
    assert max(c.denominator for _, c in nodal.terms()) > 2**60
    cases.append((configs[1], nodal))
    count = 0
    for config, form in cases:
        for frame, _ in _admissible_frames(form, [q.coords for q in config.points]):
            if frame is None:
                continue
            moved = frame[0]
            fx, fy, fz = (moved.partial(v) for v in range(3))
            for p in _modp.SCREEN_PRIMES:
                for other in (fy, fz):
                    got = _modp_resultant_x(fx, other, p)
                    assert got is not None and len(got) == 26
                    assert got == reference_exact_resultant_x(fx, other, p)
                    assert got == reference_resultant_x(fx, other, p)
                    count += 1
    assert count >= 64


def test_screen_resultant_is_none_on_bad_reduction():
    p = _modp.SCREEN_PRIMES[0]
    generic = {(6, 0, 0): 1, (5, 1, 0): 2, (5, 0, 1): 3, (3, 2, 1): -1, (0, 6, 0): 5, (0, 0, 6): 7}
    lead_divisible = TernaryForm(6, {**generic, (6, 0, 0): p})
    denominator_p = TernaryForm(6, {**generic, (1, 2, 3): Fraction(4, p)})
    vanishing = TernaryForm(6, {mono: p * c for mono, c in generic.items()})
    for form in (lead_divisible, denominator_p, vanishing):
        fx, fy = form.partial(0), form.partial(1)
        # Over Q both eliminations are proper; only the reduction mod p fails.
        assert not resultant_eliminate(fx, fy, 0).is_zero
        assert reference_resultant_x(fx, fy, p) is None
        assert reference_exact_resultant_x(fx, fy, p) is None
        assert _modp_resultant_x(fx, fy, p) is None
        assert _modp_resultant_x(fx, fy, _modp.SCREEN_PRIMES[1]) is not None


def test_gcd_degree_specializes_fx_once_per_prime(monkeypatch):
    """Both eliminants of the degree count share one specialization of fx,
    and ``_modp_resultants_x`` returns ``_modp_resultant_x`` of each form,
    also when the forms differ in degree."""
    form = conic_product_pencil(REF6).member(1, 1).canonical()
    frames = _admissible_frames(form, [q.coords for q in REF6.points])
    moved = next(frame for frame, _ in frames if frame is not None)[0]
    fx, fy, fz = (moved.partial(v) for v in range(3))
    lower = fx.partial(0)
    for p in _modp.SCREEN_PRIMES:
        for others in ((fy, fz), (lower, fz), (fz, lower)):
            got = torsion._modp_resultants_x(fx, others, p)
            assert got == [_modp_resultant_x(fx, g, p) for g in others]
    specialized = []
    original = torsion._modp_specialized

    def counting(f, p, count):
        specialized.append((f, p))
        return original(f, p, count)

    monkeypatch.setattr(torsion, "_modp_specialized", counting)
    assert torsion._modp_gcd_degree(fx, fy, fz) is not None
    first = _modp.SCREEN_PRIMES[0]
    assert specialized == [(fx, first), (fy, first), (fz, first)]


def test_smooth_screen_hints_match_the_evaluation_reference(monkeypatch):
    rng = random.Random("screen-hint-differential")
    candidates = [(REF6, reducible_candidate())]
    for config in [REF6] + [random_general_config(rng) for _ in range(2)]:
        pencil = conic_product_pencil(config)
        candidates += [(config, pencil.member(1, k).canonical()) for k in (1, 2)]
    hints = [smooth_screen(form, config.points) for config, form in candidates]
    monkeypatch.setattr(
        torsion, "_modp_resultants_x",
        lambda f, others, p: [reference_resultant_x(f, g, p) for g in others],
    )
    assert [smooth_screen(form, config.points) for config, form in candidates] == hints
    assert hints[0] is False and hints.count(True) == len(hints) - 1


# Reference for ``smooth_screen``: a node audit mod every screen prime.
# Each frame reduces both eliminants, divides every node root out of their
# gcd mod p and asks for nothing to remain.


def reference_divide_out_root_mod(poly, root, p):
    """Synthetic division by (u - root) mod p to exhaustion; (quotient, count)."""
    count = 0
    a = ptrim([x % p for x in poly])
    while a:
        acc = 0
        for c in reversed(a):
            acc = (acc * root + c) % p
        if acc != 0:
            break
        out = [0] * (len(a) - 1)
        carry = 0
        for i in range(len(a) - 1, 0, -1):
            carry = (a[i] + carry * root) % p
            out[i - 1] = carry
        a = ptrim(out)
        count += 1
    return a, count


def reference_screen_frame(moved, moved_nodes):
    fx, fy, fz = (moved.partial(v) for v in range(3))
    for p in _modp.SCREEN_PRIMES:
        elim_y = _modp_resultant_x(fx, fy, p)
        elim_z = _modp_resultant_x(fx, fz, p)
        if elim_y is None or elim_z is None:
            return None
        a_poly, a_v = _trailing_v_split(elim_y)
        b_poly, b_v = _trailing_v_split(elim_z)
        if not a_poly or not b_poly:
            return False
        common = _modp.gcd_mod(a_poly, b_poly, p)
        v_power = min(a_v, b_v)
        for q in moved_nodes:
            ym = frac_mod(Fraction(q[1]), p)
            zm = frac_mod(Fraction(q[2]), p)
            if ym is None or zm is None:
                return None
            if zm == 0:
                if ym == 0 or v_power < 1:
                    return False
                v_power = 0
                continue
            common, count = reference_divide_out_root_mod(common, ym * pow(zm, -1, p) % p, p)
            if count < 1:
                return False
        if v_power > 0 or len(common) > 1:
            return False
    return True


def reference_smooth_screen(form, nodes):
    alarms = 0
    for frame, _ in _admissible_frames(form, [q.coords for q in nodes]):
        if frame is None:
            continue
        verdict = reference_screen_frame(*frame)
        if verdict is True:
            return True
        if verdict is False:
            alarms += 1
            if alarms >= 2:
                return False
    return False if alarms else None


def test_smooth_screen_matches_the_node_audit_reference():
    rng = random.Random("screen-audit-differential")
    cases = [(REF6, reducible_candidate())]
    for config in [REF6] + [random_general_config(rng, bound=5) for _ in range(3)]:
        pencil = conic_product_pencil(config)
        cases += [(config, pencil.member(1, k).canonical()) for k in (1, 2)]
        cases.append((config, random_nodal_sextic(config, rng)))
    hints = [smooth_screen(form, config.points) for config, form in cases]
    assert hints == [reference_smooth_screen(form, config.points) for config, form in cases]
    assert hints[0] is False and hints.count(True) == len(hints) - 1


def test_smoothness_on_near_degenerate_and_wide_configurations(monkeypatch):
    """Pencil members and random nodal sextics where a triple is nearly
    collinear or a conic nearly a line pair (``near_degenerate_configs``), or
    the coordinates take ~60 bits: the degree count certifies each in its
    first admissible frame, and ``smooth_screen`` agrees with the node-audit
    reference."""
    rng = random.Random("near-degenerate-smoothness")
    configs = near_degenerate_configs(rng, 2) + [random_general_config(rng, bound=2**60)]
    cases = [(c, conic_product_pencil(c).member(1, 1)) for c in configs]
    cases += [(c, random_nodal_sextic(c, rng)) for c in configs]
    degrees = record_gcd_degrees(monkeypatch)
    for config, form in cases:
        degrees.clear()
        verdict = smooth_elsewhere(form, config.points)
        assert verdict.certified and verdict.route == "degree count"
        assert verdict.node_orders == (1,) * 6 and degrees == [6]
    hints = [smooth_screen(form, config.points) for config, form in cases]
    assert hints == [reference_smooth_screen(form, config.points) for config, form in cases]
    assert hints == [True] * len(cases)
