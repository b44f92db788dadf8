"""Integer evaluation against the Fraction paths it replaced.

``TernaryForm.eval`` clears denominators once, sums integer products and
forms one ``Fraction`` per value; ``plane._integer_chart_columns`` gives
the Taylor rows of a chart as integers, row (i, j) scaled by
d^(n - i - j), and its order-(0, 0) row is the monomial values at the
point.  The references below are
the former Fraction bodies, one ``Fraction`` product and power per term.
Since ``Fraction`` normalises, the values must agree exactly with the
references (the chart rows once divided by their scale), and so must
everything built on them.
"""

import random
from fractions import Fraction
from math import comb, lcm

import pytest

from doublesix import association, plane
from doublesix.association import second_model
from doublesix.forms import TernaryForm, monomials_of_degree
from doublesix.linalg import Matrix, determinant, rat
from doublesix.plane import (
    REF6,
    Config6,
    PointP2,
    is_general_position,
    linear_system,
    random_general_config,
)


def reference_eval(form, point):
    px, py, pz = (rat(u) for u in point)
    total = Fraction(0)
    for (i, j, k), c in form.terms():
        total += c * px**i * py**j * pz**k
    return total


def reference_chart_columns(monos, p, orders):
    c = next(i for i in range(3) if p.coords[i] != 0)
    a, b = (i for i in range(3) if i != c)
    top = max((sum(m) for m in monos), default=0)
    pa, pb, pc = ([p.coords[t] ** e for e in range(top + 1)] for t in (a, b, c))
    zero = Fraction(0)
    return [
        [
            comb(m[a], i) * comb(m[b], j) * pa[m[a] - i] * pb[m[b] - j] * pc[m[c]]
            if i <= m[a] and j <= m[b]
            else zero
            for m in monos
        ]
        for i, j in orders
    ]


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def near_degenerate_configs(rng, count, bound=10**6):
    """General-position configurations close to degenerate ones.

    Even draws hold a triple with determinant +-1 among coordinates of
    size ``bound``.  Odd draws put points 1, 2 on a line l1 and 3, 4 on a
    line l2, with l1(x_5) = 1, so the conic through the first five points
    is close to the line pair l1 l2.
    """
    def big():
        return rng.randint(-bound, bound)

    out = []
    while len(out) < count:
        if len(out) % 2 == 0:
            p1, p2 = (1, big(), big()), (0, 1, big())
            k, m = big(), big()
            # det(p1, p2, e_z) = 1, so det(p1, p2, p3) = 1.
            p3 = tuple(k * x + m * y + e for x, y, e in zip(p1, p2, (0, 0, 1)))
            rows = [p1, p2, p3] + [(big(), big(), big()) for _ in range(3)]
            assert abs(determinant(Matrix(rows[:3]))) == 1
        else:
            l1, l2 = (1, big(), big()), (big(), big(), big())
            on = [cross(l, (big(), big(), big())) for l in (l1, l1, l2, l2)]
            p5 = tuple(x + e for x, e in zip(cross(l1, (big(), big(), big())), (1, 0, 0)))
            rows = on + [p5, (big(), big(), big())]
        try:
            c = Config6(rows)
        except ValueError:
            continue
        if is_general_position(c).ok:
            out.append(c)
    return out


def seeded_configs():
    """REF6, seeded configurations, ~60-bit rows and near-degenerate ones."""
    rng = random.Random("integer-evaluation")
    configs = [REF6]
    configs += [random_general_config(rng, bound=20) for _ in range(3)]
    configs += [random_general_config(rng, bound=2**60) for _ in range(2)]
    configs += near_degenerate_configs(rng, 2)
    return configs


def awkward_points():
    """Zero and negative coordinates, large denominators, mixed input types."""
    big = 2**61 - 1
    return [
        (0, 0, 0),
        (0, 0, 5),
        (0, -3, 2),
        (-7, 0, 0),
        (Fraction(1, 2), Fraction(-3, 4), 2),
        (Fraction(-5, big), 0, Fraction(3, 7**22)),
        (Fraction(big, 3), Fraction(-1, big), Fraction(2, 3**40)),
        ("-3/4", 6, Fraction(0)),
    ]


def test_the_near_degenerate_draws_are_near_degenerate():
    a, b = near_degenerate_configs(random.Random("near"), 2)
    assert abs(determinant(Matrix(a.reps[:3]))) == 1
    # The conic through points 1..5 of b has a Hessian determinant far
    # below the size its coefficients allow: it is nearly a line pair.
    conic = association.exceptional_conics(b)[5]
    coeffs = conic.scale(1 / max(abs(c) for _, c in conic.terms()))
    hessian = [[coeffs.partial(i).partial(j).coefficient((0, 0, 0)) for j in range(3)]
               for i in range(3)]
    assert 0 < abs(determinant(Matrix(hessian))) < Fraction(1, 10**6)


def test_eval_matches_the_fraction_reference():
    rng = random.Random("eval-differential")
    points = awkward_points()
    for c in seeded_configs():
        points += list(c.reps) + [p.coords for p in c.points]
    forms = [TernaryForm.zero(0), TernaryForm.zero(4), TernaryForm(0, {(0, 0, 0): Fraction(7, 3)})]
    for degree in range(7):
        for _ in range(2):
            forms.append(TernaryForm(degree, {
                m: Fraction(rng.randint(-2**60, 2**60), rng.randint(1, 2**40))
                for m in monomials_of_degree(degree) if rng.random() < 0.7
            }))
    for f in forms:
        for q in points:
            got = f.eval(q)
            assert type(got) is Fraction
            assert got == reference_eval(f, q)


def test_eval_needs_three_coordinates():
    f = TernaryForm.variable(0)
    for point in [(1, 2), (1, 2, 3, 4), ()]:
        with pytest.raises(ValueError, match="a plane point needs three coordinates"):
            f.eval(point)


def test_veronese_rows_and_chart_columns_match_the_fraction_reference():
    points = [PointP2(q) for q in awkward_points() if any(rat(x) for x in q)]
    for c in seeded_configs():
        points += list(c.points)
    orders = [(i, s - i) for s in range(4) for i in range(s, -1, -1)]
    for p in points:
        for degree in range(7):
            monos = monomials_of_degree(degree)
            rows, d = plane._integer_chart_columns(monos, p, orders)
            assert d == lcm(*(x.denominator for x in p.coords))
            assert all(type(x) is int for row in rows for x in row)
            # A row with i + j above the degree is zero, whatever its scale.
            got = [
                [Fraction(x, d ** max(degree - i - j, 0)) for x in row]
                for row, (i, j) in zip(rows, orders)
            ]
            assert got == reference_chart_columns(monos, p, orders)


def fraction_multiplicity_rows(degree, p, mult):
    """The Fraction Taylor rows that ``linear_system`` eliminated before
    its conditions became integer rows."""
    orders = [(i, s - i) for s in range(mult) for i in range(s, -1, -1)]
    return reference_chart_columns(monomials_of_degree(degree), p, orders)


def test_integer_multiplicity_rows_are_the_rows_scaled_by_powers_of_d():
    for c in seeded_configs():
        for p in c.points:
            d = lcm(*(x.denominator for x in p.coords))
            for degree in (2, 5, 6):
                rows = fraction_multiplicity_rows(degree, p, 3)
                orders = [(i, s - i) for s in range(3) for i in range(s, -1, -1)]
                scaled = plane.integer_multiplicity_rows(degree, p, 3)
                for row, got, (i, j) in zip(rows, scaled, orders):
                    assert all(type(x) is int for x in got)
                    assert got == [x * d ** (degree - i - j) for x in row]


def test_second_model_and_linear_systems_match_the_fraction_paths(monkeypatch):
    configs = seeded_configs()
    fast = []
    for c in configs:
        double = [(p, 2) for p in c.points]
        fast.append((
            second_model(c).associated,
            linear_system(5, double).basis,
            linear_system(6, double).basis,
        ))
    monkeypatch.setattr(TernaryForm, "eval", reference_eval)
    monkeypatch.setattr(plane, "integer_multiplicity_rows", fraction_multiplicity_rows)
    for c, got in zip(configs, fast):
        double = [(p, 2) for p in c.points]
        want = (
            second_model(c).associated,
            linear_system(5, double).basis,
            linear_system(6, double).basis,
        )
        assert got == want


def test_no_fraction_powers_in_the_quintic_and_sextic_paths(monkeypatch):
    calls = []
    power = Fraction.__pow__

    def counting_pow(self, other, *rest):
        calls.append(other)
        return power(self, other, *rest)

    monkeypatch.setattr(Fraction, "__pow__", counting_pow)
    assert Fraction(2) ** 2 == 4 and calls == [2]  # the counter is live
    calls.clear()
    second_model(REF6)
    linear_system(6, [(p, 2) for p in REF6.points])
    assert calls == []
