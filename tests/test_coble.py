"""Bracket generators, the quartic relation, and the relabelling action."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from doublesix.association import second_model
from doublesix.coble import (
    _PARTITION_PRODUCTS,
    CERTIFIED_RELATION_VARIANT,
    CONJUGACY_REPRESENTATIVES,
    GENERATOR_PARTITIONS,
    REFERENCE_ACTION_ROWS,
    ActionRecord,
    CobleVector,
    _complement,
    bracket,
    character_report,
    coble_vector,
    relation_residual,
    representative_perm,
    s6_action,
    schlaefli_sign_check,
    y_basis,
)
from doublesix.linalg import Matrix, determinant, inverse, rank
from doublesix.perms import Perm
from doublesix.plane import REF6, Config6, random_general_config


def test_bracket_matches_hand_determinants():
    assert bracket(REF6, (1, 2, 3)) == 1
    # rows (1,1,1), (1,2,3), (2,5,1) expanded along the first row
    assert bracket(REF6, (4, 5, 6)) == -7
    assert bracket(REF6, (1, 4, 5)) == 1


def test_bracket_label_validation():
    with pytest.raises(ValueError):
        bracket(REF6, (2, 1, 3))
    with pytest.raises(ValueError):
        bracket(REF6, (1, 2, 7))
    with pytest.raises(ValueError):
        bracket(REF6, (1, 2))


def test_bracket_vanishes_exactly_on_collinear_triples():
    c = Config6([(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 2, 3), (2, 5, 1)])
    assert bracket(c, (1, 2, 3)) == 0
    assert bracket(c, (1, 2, 4)) != 0


def test_generator_values_on_reference():
    v = coble_vector(REF6)
    assert v.values == (-7, 1, 9, -5, -2, -27)
    # x0..x4 are complementary bracket products by construction.
    for k, triple in enumerate(GENERATOR_PARTITIONS):
        other = tuple(i for i in range(1, 7) if i not in triple)
        assert v[k] == bracket(REF6, triple) * bracket(REF6, other)


def test_matrix_covariance():
    # A coordinate change multiplies the degree-one generators by det^2
    # and the last generator by det^4.
    rng = random.Random("coble-covariance")
    v = coble_vector(REF6)
    done = 0
    while done < 5:
        g = Matrix([[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)])
        d = determinant(g)
        if d == 0:
            continue
        w = coble_vector(REF6.apply(g))
        assert w.degree_one == tuple(d * d * x for x in v.degree_one)
        assert w[5] == d**4 * v[5]
        done += 1


def test_rescaling_covariance():
    lam = (Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(5), Fraction(-2))
    prod = Fraction(1)
    for f in lam:
        prod *= f
    v = coble_vector(REF6)
    w = coble_vector(REF6.rescale(lam))
    assert w.degree_one == tuple(prod * x for x in v.degree_one)
    assert w[5] == prod * prod * v[5]


def reference_bracket(c, labels):
    """The former ``bracket``: ``determinant`` of the ``Fraction`` rows."""
    return determinant(Matrix([c.reps[i - 1] for i in labels]))


def reference_coble_vector(c):
    """The former ``coble_vector``: every bracket a ``determinant`` of a
    ``Fraction`` matrix, with repeats."""
    b = lambda t: reference_bracket(c, t)
    xs = [b(t) * b(_complement(t)) for t in GENERATOR_PARTITIONS]
    x5 = (
        b((1, 2, 3)) * b((1, 4, 5)) * b((2, 4, 6)) * b((3, 5, 6))
        - b((1, 2, 4)) * b((1, 3, 5)) * b((2, 3, 6)) * b((4, 5, 6))
    )
    return CobleVector(tuple(xs) + (x5,), c.reps)


def differential_configs(rng):
    """REF6, seeded bound-20 and 2^60 configurations, their associated ones
    (over 100 bits), all of them rescaled by random rational factors, one
    configuration of rational representatives and the raw chart-grid rows."""
    configs = [REF6] + [random_general_config(rng, bound=20) for _ in range(4)]
    configs.append(random_general_config(rng, bound=2**60))
    configs += [second_model(c).associated for c in configs]
    assert max(abs(x.numerator) for x in configs[-1].reps[0]).bit_length() > 100

    def factor():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 30))

    configs += [c.rescale([factor() for _ in range(6)]) for c in configs]
    configs.append(Config6([[factor() for _ in range(3)] for _ in range(6)]))
    configs += [rows for _, rows in chart_grid(range(2))]
    return configs


def test_coble_vector_matches_the_bracket_reference():
    for c in differential_configs(random.Random("coble-differential")):
        assert coble_vector(c) == reference_coble_vector(c)


def test_bracket_equals_the_determinant_of_the_rows():
    configs = differential_configs(random.Random("brackets"))
    zeros = 0
    for c in configs:
        for t in combinations(range(1, 7), 3):
            got = bracket(c, t)
            assert type(got) is Fraction and got == reference_bracket(c, t)
            zeros += got == 0
    assert zeros > 0  # the chart grid has collinear triples


def test_y_basis_change():
    assert y_basis((1, 2, 3, 4, 5, 6)) == (1, 2, 5, -4, -5, 6)
    with pytest.raises(ValueError):
        y_basis((1, 2, 3))


#: Frame rows of the chart e1, e2, e3, (1,1,1), (1,a,b), (1,c,d).
FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def raw(rows):
    """Representative rows that ``Config6`` would reject (repeated or
    collinear points are allowed); brackets and ``coble_vector`` only
    read ``reps``."""
    return SimpleNamespace(reps=tuple(rows))


def chart_grid(values):
    for a, b, c, d in product(values, repeat=4):
        yield (a, b, c, d), raw(FRAME + ((1, a, b), (1, c, d)))


def test_relation_variant_is_proved_on_the_chart_grid():
    """The residual R(x(c)) is a relative invariant: it scales by
    det(g)^8 prod(t_i^4) under coordinate changes and row rescalings,
    so it vanishes identically iff it vanishes on the frame chart.
    There x0..x4 have degree <= 1 and x5 degree <= 2 in each of a, b,
    c, d, so R has degree <= 4 in each, and vanishing on {0..4}^4
    proves it zero (Combinatorial Nullstellensatz)."""
    nonzero = []
    for point, rows in chart_grid(range(5)):
        v = coble_vector(rows)
        assert relation_residual(v, "plus") == 0
        if relation_residual(v, "minus") != 0:
            nonzero.append(point)
    assert CERTIFIED_RELATION_VARIANT == "plus"
    assert len(nonzero) == 294
    # A named witness that the rejected variant is not an identity.
    witness = coble_vector(raw(FRAME + ((1, 1, 0), (1, 0, 0))))
    assert relation_residual(witness, "minus") == -8


def test_partition_products_are_linear_in_the_generators():
    """Each side of D_T D_T' = row . (x0..x4) is linear in every
    representative row, so checking all 3^6 tuples of coordinate basis
    vectors proves the identity."""
    assert len(_PARTITION_PRODUCTS) == 10
    assert all(t[0] == 1 for t in _PARTITION_PRODUCTS)
    for k, triple in enumerate(GENERATOR_PARTITIONS):
        assert _PARTITION_PRODUCTS[triple] == tuple(int(i == k) for i in range(5))
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for rows in product(basis, repeat=6):
        c = raw(rows)
        x = coble_vector(c).degree_one
        for triple, row in _PARTITION_PRODUCTS.items():
            other = tuple(i for i in range(1, 7) if i not in triple)
            product_value = bracket(c, triple) * bracket(c, other)
            assert product_value == sum(a * xi for a, xi in zip(row, x)), (triple, rows)


def veronese_determinant(rows):
    """det of the 6x6 matrix with columns x^2, y^2, z^2, xy, xz, yz."""
    return determinant(Matrix([(x * x, y * y, z * z, x * y, x * z, y * z) for x, y, z in rows]))


def test_x5_is_minus_the_veronese_determinant():
    """x5 and det V both have degree 2 in every representative row and
    both scale by det(g)^4 prod(t_i^2), so x5 + det V vanishes
    identically iff it vanishes on the frame chart, where its degree in
    each of a, b, c, d is at most 2: the 3^4 grid proves it.  Since a
    relabelling permutes the rows of V, x5 changes by sign(sigma)."""
    for _, rows in chart_grid(range(3)):
        assert coble_vector(rows)[5] + veronese_determinant(rows.reps) == 0
    assert coble_vector(REF6)[5] == -veronese_determinant(REF6.reps)


@cache
def interpolation_samples():
    """Five configurations with independent degree-one vectors, then
    three held-out ones, all with x5 != 0."""
    rng = random.Random("doublesix-action-samples")
    solve, vectors, verify = [], [], []
    while len(verify) < 3:
        c = random_general_config(rng, bound=9)
        v = coble_vector(c)
        if v[5] == 0:
            continue
        if len(solve) < 5:
            candidate = vectors + [v.degree_one]
            if rank(Matrix(candidate)) == len(candidate):
                solve.append(c)
                vectors.append(v.degree_one)
            continue
        verify.append(c)
    return solve, verify


def interpolated_action(sigma):
    """Reference: solve for the matrix on sample configurations, then
    check it and the x5 sign on held-out ones."""
    solve, verify = interpolation_samples()
    x_mat = Matrix([coble_vector(c).degree_one for c in solve]).transpose()
    images = [coble_vector(c.relabel(sigma)) for c in solve]
    m = Matrix([im.degree_one for im in images]).transpose() @ inverse(x_mat)
    signs = {im[5] / coble_vector(c)[5] for c, im in zip(solve, images)}
    for c in verify:
        v, w = coble_vector(c), coble_vector(c.relabel(sigma))
        assert m.apply(v.degree_one) == w.degree_one
        signs.add(w[5] / v[5])
    assert len(signs) == 1 and next(iter(signs)) in (1, -1)
    return ActionRecord(sigma, m, int(next(iter(signs))))


def test_action_matches_the_interpolation_reference():
    rng = random.Random("coble-interpolation-reference")
    perms = [representative_perm(name) for name, _ in CONJUGACY_REPRESENTATIVES]
    perms += [Perm(tuple(rng.sample(range(6), 6))) for _ in range(30)]
    for perm in perms:
        record, reference = s6_action(perm), interpolated_action(perm)
        assert record.matrix.rows == reference.matrix.rows, perm
        assert record.sign == reference.sign, perm


def test_action_transforms_generator_values_directly():
    rng = random.Random("coble-direct-action")
    configs = [REF6] + [random_general_config(rng, bound=9) for _ in range(3)]
    for _ in range(20):
        perm = Perm(tuple(rng.sample(range(6), 6)))
        record = s6_action(perm)
        for c in configs:
            v, w = coble_vector(c), coble_vector(c.relabel(perm))
            assert w.degree_one == record.matrix.apply(v.degree_one), perm
            assert w[5] == record.sign * v[5], perm


def test_certified_variant_vanishes_on_random_configurations():
    assert CERTIFIED_RELATION_VARIANT == "plus"
    rng = random.Random("coble-relation-module")
    for _ in range(25):
        c = random_general_config(rng, bound=9)
        assert relation_residual(coble_vector(c), "plus") == 0


def test_rejected_variant_has_nonzero_residual():
    assert relation_residual(coble_vector(REF6), "minus") == 784
    assert relation_residual(coble_vector(REF6), "plus") == 0


def test_relation_variant_validation():
    with pytest.raises(ValueError):
        relation_residual(coble_vector(REF6), "either")


def test_reference_action_rows_reproduced():
    for name, rows in REFERENCE_ACTION_ROWS.items():
        perm = representative_perm(name)
        record = s6_action(perm)
        expected = tuple(tuple(Fraction(a) for a in row) for row in rows)
        assert record.matrix.rows == expected
        assert record.sign == perm.sign()


def test_action_on_identity_is_identity():
    record = s6_action(Perm(tuple(range(6))))
    assert record.sign == 1
    for i in range(5):
        for j in range(5):
            assert record.matrix.at(i, j) == (1 if i == j else 0)


def test_action_is_homomorphism_on_sampled_pairs():
    rng = random.Random("coble-pairs-module")
    for _ in range(12):
        s = Perm(tuple(rng.sample(range(6), 6)))
        t = Perm(tuple(rng.sample(range(6), 6)))
        st = s6_action(s * t)
        assert st.matrix.rows == (s6_action(s).matrix @ s6_action(t).matrix).rows
        assert st.sign == s6_action(s).sign * s6_action(t).sign


def test_action_matrices_are_deterministic():
    perm = representative_perm("(123456)")
    assert s6_action(perm).matrix.rows == s6_action(perm).matrix.rows


def test_character_report_frozen_values():
    rep = character_report()
    assert [r.class_name for r in rep.rows] == [name for name, _ in CONJUGACY_REPRESENTATIVES]
    assert [r.trace for r in rep.rows] == [5, -1, 1, 3, -1, -1, 2, 1, -1, 0, 0]
    assert sum(r.size for r in rep.rows) == 720
    assert rep.norm == 1
    assert rep.irreducible
    assert rep.differs_from_standard
    for r in rep.rows:
        assert r.standard_trace == representative_perm(r.class_name).fixed_points() - 1


def test_relation_invariant_under_generating_relabellings():
    # The residual is a polynomial of degree at most four in each of
    # x0..x4 and two in x5, so vanishing of the difference on the grid
    # {0..4}^5 x {0..2} proves the identity; the homomorphism property
    # extends it from the two generators to the whole group.
    for name in ("(12)", "(123456)"):
        record = s6_action(representative_perm(name))
        rows = [[int(record.matrix.at(i, j)) for j in range(5)] for i in range(5)]
        sign = record.sign
        for x0 in range(5):
            for x1 in range(5):
                for x2 in range(5):
                    for x3 in range(5):
                        for x4 in range(5):
                            x = (x0, x1, x2, x3, x4)
                            moved = [sum(r[j] * x[j] for j in range(5)) for r in rows]
                            for x5 in range(3):
                                lhs = relation_residual(tuple(moved) + (sign * x5,))
                                rhs = relation_residual(x + (x5,))
                                assert lhs == rhs


def test_schlaefli_sign_on_reference():
    check = schlaefli_sign_check(REF6)
    assert check.accepted
    assert check.scale == Fraction(837, 1456)
    assert check.vector.values == coble_vector(REF6).values
    assert check.associated_vector[5] == -(check.scale**2) * check.vector[5]


def test_schlaefli_sign_on_random_configurations():
    rng = random.Random("coble-schlaefli-module")
    for _ in range(3):
        c = random_general_config(rng, bound=9)
        assert schlaefli_sign_check(c).accepted
