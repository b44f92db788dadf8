"""Ternary form arithmetic and resultant elimination against oracles.

Elimination has two oracles.  ``reference_resultant_eliminate`` builds
the Sylvester matrix over Z[t] and takes its determinant by a
fraction-free Bareiss on polynomial entries, with no specialization at
all.  ``interpolated_resultant`` specializes at t = 0 .. mn like the
implementation, but takes ``Fraction`` Gaussian determinants and
interpolates by Lagrange, where the implementation takes integer
Bareiss determinants and interpolates by forward differences.
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from test_integer_evaluation import near_degenerate_configs

from doublesix._poly import pdiv_exact, ptrim
from doublesix.forms import (
    DegenerateEliminationError,
    TernaryForm,
    monomials_of_degree,
    resultant_eliminate,
)
from doublesix.association import exceptional_conics
from doublesix.linalg import Matrix, clear_denominators, determinant
from doublesix.plane import REF6, random_general_config
from doublesix.torsion import _admissible_frames, conic_product_pencil, random_nodal_sextic

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


# The Sylvester-over-Z[t] elimination that ``resultant_eliminate`` ran
# before it evaluated at integers, with its polynomial helpers.


def psub(a, b):
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    return ptrim(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ptrim(out)


def pscale(a, c):
    if c == 0:
        return []
    return [c * x for x in a]


def pdet_bareiss(mat):
    """Fraction-free determinant of a matrix of integer polynomials."""
    n = len(mat)
    a = [[list(e) for e in row] for row in mat]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return []
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                num = psub(pmul(a[i][j], akk), pmul(aik, a[k][j]))
                a[i][j] = pdiv_exact(num, prev) if prev != [1] else num
            a[i][k] = []
        prev = akk
    out = a[n - 1][n - 1]
    return pscale(out, sign) if sign < 0 else out


def reference_coefficient_polys(f, var, u):
    """Entry k: the coefficient of var^k as a list in u (with v -> 1)."""
    out = [[] for _ in range(f.degree + 1)]
    for mono, c in f.terms():
        col = out[mono[var]]
        while len(col) <= mono[u]:
            col.append(Fraction(0))
        col[mono[u]] += c
    return [ptrim(col) for col in out]


def reference_resultant_eliminate(f, g, var):
    """Res_var(f, g) from the Sylvester matrix over Z[t] and ``pdet_bareiss``."""
    m, n = f.degree, g.degree
    u, v = (w for w in range(3) if w != var)

    def to_int(form):
        den = lcm(*(c.denominator for _, c in form.terms()))
        cols = reference_coefficient_polys(form.scale(den), var, u)
        return [[int(x) for x in col] for col in cols], den

    fc, fden = to_int(f)
    gc, gden = to_int(g)
    size = m + n
    rows = []
    for shift in range(n):  # n rows of f coefficients, descending in var
        row = [[] for _ in range(size)]
        for k in range(m + 1):
            row[shift + (m - k)] = fc[k]
        rows.append(row)
    for shift in range(m):
        row = [[] for _ in range(size)]
        for k in range(n + 1):
            row[shift + (n - k)] = gc[k]
        rows.append(row)
    det = pdet_bareiss(rows)
    scale = Fraction(1, fden**n * gden**m)
    coeffs = {}
    for i, c in enumerate(det):
        if c:
            mono = [0, 0, 0]
            mono[u] = i
            mono[v] = m * n - i
            coeffs[tuple(mono)] = Fraction(c) * scale
    return TernaryForm(m * n, coeffs)


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


def random_rational_form(rng, degree, bound):
    """A random form whose coefficients carry denominators up to ``bound``."""
    form = random_form(rng, degree, bound)
    return TernaryForm(degree, {m: c / rng.randint(1, bound) for m, c in form.terms()})


def proper_pair(rng, degrees, var, bound):
    """Random rational forms of the given degrees, both of full degree in var."""
    while True:
        f, g = (random_rational_form(rng, d, bound) for d in degrees)
        if f.degree_in(var) == f.degree and g.degree_in(var) == g.degree:
            return f, g


def test_resultant_matches_the_sylvester_reference_in_every_variable():
    rng = random.Random("res-sylvester")
    degrees = [(1, 3), (3, 1), (2, 3), (4, 2), (2, 5), (3, 3)]
    for var in range(3):
        for pair in degrees:
            for bound in (7, 2**60):
                f, g = proper_pair(rng, pair, var, bound)
                r = resultant_eliminate(f, g, var)
                assert r == reference_resultant_eliminate(f, g, var)
                assert r.degree == pair[0] * pair[1] and r.degree_in(var) == 0
    # A ~60-bit case keeps its size: no coefficient was reduced away.
    assert max(abs(c.numerator) for _, c in r.terms()) > 2**300


def test_resultant_keeps_a_power_of_v_in_its_top_coefficients():
    """f = L a + v^k b and g = L c + v^k d with L = var - u share the root
    var = u modulo v^k, so v^k divides Res_var(f, g): the coefficients of
    u^mn .. u^(mn - k + 1) vanish."""
    rng = random.Random("res-power-of-v")
    for var in range(3):
        u, v = (w for w in range(3) if w != var)
        line = TernaryForm.variable(var) - TernaryForm.variable(u)
        for k, (m, n) in itertools.product((1, 2), [(2, 3), (4, 2), (3, 3)]):
            vk = TernaryForm.monomial(tuple(k if w == v else 0 for w in range(3)))
            while True:
                f = line * random_rational_form(rng, m - 1, 9) + vk * random_form(rng, m - k)
                g = line * random_rational_form(rng, n - 1, 9) + vk * random_form(rng, n - k)
                if f.degree_in(var) == m and g.degree_in(var) == n:
                    break
            r = resultant_eliminate(f, g, var)
            assert r == reference_resultant_eliminate(f, g, var)
            assert not r.is_zero
            top = [tuple(m * n - j if w == u else j if w == v else 0 for w in range(3))
                   for j in range(k)]
            assert all(r.coefficient(mono) == 0 for mono in top)


def test_resultant_matches_the_sylvester_reference_on_moved_partials():
    """The eliminants of ``smooth_elsewhere``'s exact route: Res_x(fx, fy) and
    Res_x(fx, fz) of degree 25 in every admissible frame of pencil members
    and a random nodal sextic, whose coefficients carry large denominators."""
    rng = random.Random("res-moved-partials")
    configs = [REF6, random_general_config(rng)]
    forms = [conic_product_pencil(c).member(1, 1).canonical() for c in configs]
    forms.append(random_nodal_sextic(configs[1], rng))
    count = 0
    for config, form in zip(configs + configs[1:], forms):
        for frame, _ in _admissible_frames(form, [q.coords for q in config.points]):
            if frame is None:
                continue
            fx, fy, fz = (frame[0].partial(w) for w in range(3))
            for other in (fy, fz):
                r = resultant_eliminate(fx, other, 0)
                assert r.degree == 25 and not r.is_zero
                assert r == reference_resultant_eliminate(fx, other, 0)
                count += 1
    assert count >= 8


def constant(c):
    return TernaryForm(0, {(0, 0, 0): c})


@pytest.mark.parametrize(
    "f, g, want",
    [
        (constant(3), constant(5), 1),  # the empty Sylvester determinant
        (constant(3), X * X + 2 * Y * Z, 9),  # a^n against a full x^n term
        (X * X + 2 * Y * Z, constant(3), 9),
        (constant(Fraction(-2, 3)), X - Y, Fraction(-2, 3)),
    ],
)
def test_resultant_with_a_constant_form(f, g, want):
    assert resultant_eliminate(f, g, 0) == constant(want)


def test_resultant_degenerate_leading_coefficient_raises():
    f = X * Y  # degree in x is 1 < 2 only after fixing: use a form of x-degree < total degree
    g = X * X + Y * Y
    with pytest.raises(DegenerateEliminationError):
        resultant_eliminate(f * Y, g, 0)  # x-degree 1 < degree 3


def reference_integer_terms(form):
    """The nonzero terms cleared by ``clear_denominators``, as a map."""
    terms = form.terms()
    nums, den = clear_denominators([c for _, c in terms])
    return dict(zip((m for m, _ in terms), nums)), den


def test_integer_terms_clear_the_terms():
    rng = random.Random("integer-terms")
    pencil = conic_product_pencil(REF6)
    forms = [pencil.member(1, k).canonical() for k in (1, 2, 5)] + [pencil.member(3, -7)]
    for bound in (20, 20, 2**60):
        config = random_general_config(rng, bound=bound)
        forms.append(random_nodal_sextic(config, rng))
        forms += exceptional_conics(config)
    for config in near_degenerate_configs(rng, 2):
        forms += exceptional_conics(config)
    forms.append(TernaryForm(3, {(3, 0, 0): Fraction(-2, 3), (1, 1, 1): Fraction(5, 6)}))
    assert any(reference_integer_terms(f)[1] > 2**60 for f in forms)
    for f in forms + [TernaryForm.zero(6)]:
        nums, den = f.integer_terms()
        assert (nums, den) == reference_integer_terms(f)
        assert all(type(n) is int and n != 0 for n in nums.values()) and den >= 1
        assert all(f.coefficient(m) == Fraction(n, den) for m, n in nums.items())
    assert TernaryForm.zero(6).integer_terms() == ({}, 1)


def test_resultant_rejects_zero_form():
    with pytest.raises(ValueError):
        resultant_eliminate(TernaryForm.zero(2), X * X, 0)
