"""Ternary form arithmetic and resultant elimination against oracles.

The elimination oracle recomputes each resultant by specializing the
trailing variables, taking plain Gaussian determinants of the
specialized Sylvester matrices, and interpolating; the implementation
under test uses fraction-free polynomial determinants instead, so the
two routes are independent.
"""

import random
from fractions import Fraction

import pytest

from doublesix.forms import (
    DegenerateEliminationError,
    TernaryForm,
    monomials_of_degree,
    resultant_eliminate,
)
from doublesix.linalg import Matrix, determinant

X, Y, Z = (TernaryForm.variable(i) for i in range(3))


def random_form(rng, degree, bound=5):
    while True:
        coeffs = {
            mono: Fraction(rng.randint(-bound, bound))
            for mono in monomials_of_degree(degree)
            if rng.random() < 0.7
        }
        coeffs = {m: c for m, c in coeffs.items() if c}
        if coeffs:
            return TernaryForm(degree, coeffs)


def gauss_det(rows):
    return determinant(Matrix(rows))


def specialized_sylvester(f, g, var, t):
    """Sylvester matrix of f, g in `var` with the other variables at (t, 1)."""
    others = [v for v in range(3) if v != var]
    m, n = f.degree, g.degree

    def coeffs(form, deg):
        out = [Fraction(0)] * (deg + 1)
        for mono, c in form.terms():
            out[mono[var]] += c * t ** mono[others[0]]
        return out

    fc = coeffs(f, m)
    gc = coeffs(g, n)
    size = m + n
    rows = []
    for shift in range(n):
        row = [Fraction(0)] * size
        for k in range(m + 1):
            row[shift + (m - k)] = fc[k]
        rows.append(row)
    for shift in range(m):
        row = [Fraction(0)] * size
        for k in range(n + 1):
            row[shift + (n - k)] = gc[k]
        rows.append(row)
    return rows


def interpolated_resultant(f, g, var):
    """Evaluation-interpolation oracle for the eliminated binary form."""
    others = [v for v in range(3) if v != var]
    bound = f.degree * g.degree
    samples = [(Fraction(t), gauss_det(specialized_sylvester(f, g, var, Fraction(t))))
               for t in range(bound + 1)]
    # Lagrange interpolation in one variable, then rehomogenize.
    coeffs = [Fraction(0)] * (bound + 1)
    for i, (xi, yi) in enumerate(samples):
        term = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(samples):
            if i == j:
                continue
            term = [Fraction(0)] + term
            for k in range(len(term) - 1):
                term[k] -= xj * term[k + 1]
            denom *= xi - xj
        scale = yi / denom
        for k, c in enumerate(term):
            coeffs[k] += scale * c
    result = TernaryForm.zero(bound)
    for k, c in enumerate(coeffs):
        if c:
            mono = [0, 0, 0]
            mono[others[0]] = k
            mono[others[1]] = bound - k
            result = result + TernaryForm.monomial(tuple(mono), c)
    return result


def test_monomial_order_is_descending_lex():
    monos = monomials_of_degree(2)
    assert monos == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def test_zero_coefficients_dropped_and_homogeneity_enforced():
    f = TernaryForm(2, {(2, 0, 0): Fraction(0), (1, 1, 0): Fraction(3)})
    assert f.coefficient((2, 0, 0)) == 0
    assert len(f.terms()) == 1
    with pytest.raises(ValueError):
        TernaryForm(2, {(1, 0, 0): Fraction(1)})


def test_euler_identity():
    rng = random.Random("euler")
    for degree in (1, 2, 3, 5):
        f = random_form(rng, degree)
        sum_parts = X * f.partial(0) + Y * f.partial(1) + Z * f.partial(2)
        assert sum_parts == f.scale(degree)


def test_product_evaluation_consistency():
    rng = random.Random("product")
    f = random_form(rng, 3)
    g = random_form(rng, 2)
    h = f * g
    assert h.degree == 5
    for _ in range(10):
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        assert h.eval(v) == f.eval(v) * g.eval(v)


def test_substitute_matches_matrix_action():
    rng = random.Random("subst")
    f = random_form(rng, 4)
    m = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    moved = f.substitute(m)
    for _ in range(10):
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        assert moved.eval(v) == f.eval(m.apply(v))


def test_substitute_functorial():
    rng = random.Random("subst-comp")
    f = random_form(rng, 3)
    a = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    b = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)])
    assert f.substitute(a).substitute(b) == f.substitute(a @ b)


def test_canonical_leading_one():
    f = TernaryForm(2, {(1, 1, 0): Fraction(-4), (0, 0, 2): Fraction(2)})
    g = f.canonical()
    assert g.coefficient((1, 1, 0)) == 1
    assert g == f.scale(Fraction(-1, 4))


def test_json_round_trip_preserves_exact_values():
    f = TernaryForm(3, {(3, 0, 0): Fraction(2, 7), (0, 1, 2): Fraction(-5)})
    assert TernaryForm.from_json(f.to_json()) == f


@pytest.mark.parametrize(
    "records",
    [[[6.9, 0, 0, "1"]], [[True, 5, 0, "1"]], [[5, 1, "0", "1"]], {"terms": [[6, 0, 0, "1"]]}],
    ids=["float", "bool", "string", "dict"],
)
def test_json_rejects_exponents_that_are_not_integers(records):
    # int() would read 6.9 as 6 and True as 1, giving a different sextic.
    with pytest.raises(ValueError):
        TernaryForm.from_json(records)


def test_json_refuses_an_exponent_in_a_coefficient_string():
    # Fraction("1e999999999") would build 10**999999999 first.
    with pytest.raises(ValueError, match="exponent"):
        TernaryForm.from_json([[6, 0, 0, "1e999999999"]])
    # A JSON float is bounded, so it still reads exactly.
    assert TernaryForm.from_json([[6, 0, 0, 1e3]]) == TernaryForm(6, {(6, 0, 0): 1000})


@pytest.mark.parametrize("records", [[[6, "1"]], [[6, 0, 0, "1", "2"]], ["6001"]])
def test_json_names_the_shape_of_a_term(records):
    with pytest.raises(ValueError, match=r"each term is \[i, j, k, coefficient\]"):
        TernaryForm.from_json(records)


def test_resultant_small_known_case():
    # Res_x of (x - y) and (x - z) is z - y up to sign: root x = y forces y = z.
    f = X - Y
    g = X - Z
    r = resultant_eliminate(f, g, 0)
    assert r.degree == 1
    assert r.degree_in(0) <= 0
    assert r.eval((Fraction(0), Fraction(1), Fraction(1))) == 0
    assert r.eval((Fraction(0), Fraction(1), Fraction(2))) != 0


def test_resultant_vanishes_iff_common_root_on_line():
    # f, g conics with a known common point (0 : 1 : 1).
    common = X - Y + Z
    f2 = common * (X + Y)
    g2 = common * (X + Z)
    r = resultant_eliminate(f2, g2, 0)
    assert r.is_zero


def test_resultant_matches_interpolation_oracle():
    rng = random.Random("res-oracle")
    cases = 0
    while cases < 6:
        f = random_form(rng, rng.choice([1, 2, 2, 3]))
        g = random_form(rng, rng.choice([1, 2, 3]))
        var = rng.randrange(3)
        if f.degree_in(var) < f.degree or g.degree_in(var) < g.degree:
            continue
        r = resultant_eliminate(f, g, var)
        oracle = interpolated_resultant(f, g, var)
        assert r == oracle
        cases += 1


def test_resultant_degenerate_leading_coefficient_raises():
    f = X * Y  # degree in x is 1 < 2 only after fixing: use a form of x-degree < total degree
    g = X * X + Y * Y
    with pytest.raises(DegenerateEliminationError):
        resultant_eliminate(f * Y, g, 0)  # x-degree 1 < degree 3


def test_resultant_rejects_zero_form():
    with pytest.raises(ValueError):
        resultant_eliminate(TernaryForm.zero(2), X * X, 0)
