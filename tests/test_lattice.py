"""Intersection lattice catalogs against brute-force enumeration.

The oracle re-enumerates (-1)-classes by exhaustive coefficient search,
independently of the closed-form catalog under test.
"""

from itertools import product

from doublesix.lattice import (
    E,
    E_TOTAL,
    F,
    K,
    L,
    DoubleSix,
    PicClass,
    basis_determinant,
    blowdown_line_class,
    double_sixes,
    lines_27,
)
from doublesix.linalg import Matrix, determinant


def brute_force_lines():
    """All classes aL + sum b_i E_i with D.D = -1 and D.(-K) = 1 in a small box."""
    found = []
    for a in range(-2, 3):
        for bs in product(range(-2, 3), repeat=6):
            d = PicClass(a, bs)
            if d.intersect(d) == -1 and d.intersect(K) == -1:
                found.append(d)
    return found


def test_intersection_form_signature():
    assert L.intersect(L) == 1
    for i in range(6):
        assert E[i].intersect(E[i]) == -1
        assert E[i].intersect(L) == 0
        for j in range(i + 1, 6):
            assert E[i].intersect(E[j]) == 0


def test_canonical_class_identities():
    assert K.intersect(K) == 3
    anticanonical = K.scale(-2)
    assert anticanonical.intersect(E_TOTAL) == 12
    for f in F:
        assert anticanonical.intersect(f) == 2
        assert f.intersect(f) == -1
        assert f.intersect(K) == -1


def test_lines_catalog_matches_brute_force():
    catalog = lines_27()
    oracle = brute_force_lines()
    assert len(catalog) == 27
    assert len(oracle) == 27
    assert {d.vector() for d in catalog} == {d.vector() for d in oracle}


def test_lines_pairwise_intersections():
    lines = lines_27()
    values = {
        lines[i].intersect(lines[j])
        for i in range(27)
        for j in range(i + 1, 27)
    }
    assert values == {0, 1}
    # Each line meets exactly ten others (the classical incidence count).
    for i in range(27):
        meets = sum(1 for j in range(27) if j != i and lines[i].intersect(lines[j]) == 1)
        assert meets == 10


def reference_double_sixes():
    """The backtracking search that ``double_sixes`` replaced.

    Every sixer of pairwise skew lines, in lexicographic index order; a
    sixer whose partner (the lines meeting five of the six) is six lines
    gives a double six, with B ordered so that A_i . B_i = 0.  The first
    sixer of each double six found is its A.
    """
    lines = lines_27()
    n = len(lines)
    meets = [[lines[i].intersect(lines[j]) for j in range(n)] for i in range(n)]
    sixers = []

    def extend(chosen, start):
        if len(chosen) == 6:
            sixers.append(tuple(chosen))
            return
        for k in range(start, n):
            if all(meets[c][k] == 0 for c in chosen):
                chosen.append(k)
                extend(chosen, k + 1)
                chosen.pop()

    extend([], 0)
    seen = set()
    out = []
    for sixer in sixers:
        partner = [j for j in range(n) if j not in sixer and sum(meets[i][j] for i in sixer) == 5]
        if len(partner) != 6:
            continue
        a = [lines[i] for i in sixer]
        b = []
        for ai in a:
            match = [lines[j] for j in partner if ai.intersect(lines[j]) == 0]
            if len(match) != 1:
                break
            b.append(match[0])
        else:
            ds = DoubleSix(tuple(a), tuple(b))
            if ds.key() not in seen:
                seen.add(ds.key())
                out.append(ds)
    classical = DoubleSix(E, F).key()
    out.sort(key=lambda d: (d.key() != classical, tuple(sorted(x.vector() for x in d.a))))
    return out


def test_closed_form_double_sixes_equal_the_search():
    assert double_sixes() == reference_double_sixes()


def test_double_six_count_and_patterns():
    sixes = double_sixes()
    assert len(sixes) == 36
    for ds in sixes:
        assert ds.check()
    assert sixes[0].a == E and sixes[0].b == F


def test_double_six_type_decomposition():
    # Classically 36 = 1 + 15 + 20: the exceptional/conic pair, one per
    # index pair (containing E_i, E_j), one per index triple (containing
    # E_i, E_j, E_k); detected by counting pure exceptional classes in
    # each sixer union.
    sixes = double_sixes()
    e_set = set(E)
    histogram = {}
    for ds in sixes:
        count = sum(1 for cls in ds.a + ds.b if cls in e_set)
        histogram[count] = histogram.get(count, 0) + 1
    assert histogram == {6: 1, 2: 15, 3: 20}


def test_double_six_no_duplicates_up_to_swap_and_order():
    sixes = double_sixes()
    keys = set()
    for ds in sixes:
        key = frozenset(
            {frozenset(d.vector() for d in ds.a), frozenset(d.vector() for d in ds.b)}
        )
        assert key not in keys
        keys.add(key)


def test_blowdown_classes():
    assert blowdown_line_class(E) == L
    assert blowdown_line_class(F) == PicClass(5, (-2, -2, -2, -2, -2, -2))
    for ds in double_sixes():
        line_class = blowdown_line_class(ds.a)
        assert line_class.intersect(line_class) == 1
        for cls in ds.a:
            assert line_class.intersect(cls) == 0


def test_sixer_bases_unimodular():
    for ds in double_sixes():
        assert basis_determinant(ds.a) in (1, -1)
        assert basis_determinant(ds.b) in (1, -1)


def test_basis_determinant_matches_the_rational_determinant():
    sixers = [six for ds in double_sixes() for six in (ds.a, ds.b)]
    assert len(set(sixers)) == 72
    for sixer in sixers:
        rows = [blowdown_line_class(sixer).vector()] + [cls.vector() for cls in sixer]
        got = basis_determinant(sixer)
        assert type(got) is int and got == determinant(Matrix(rows))


def test_double_six_partner_is_unique_complement():
    # Within a double six, B_i is the only line among the 27 meeting
    # every A_j except A_i.
    lines = lines_27()
    ds = double_sixes()[7]
    for i in range(6):
        partners = [
            m
            for m in lines
            if all(m.intersect(ds.a[j]) == (0 if j == i else 1) for j in range(6))
        ]
        assert partners == [ds.b[i]]
