"""Exact linear algebra against independent oracles.

Rank is cross-checked by largest-nonvanishing-minor search and by
Gaussian elimination over three large primes; determinants against
recursive cofactor expansion.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from doublesix.linalg import (
    Matrix,
    _rref,
    determinant,
    inverse,
    kernel_basis,
    rank,
    rat,
    row_space_basis,
    solve,
)
from doublesix.plane import REF6, integer_multiplicity_rows, random_general_config

PRIMES = (1073741789, 1073741783, 1073741741)


def random_matrix(rng, nrows, ncols, bound=9, denominators=False):
    def entry():
        num = rng.randint(-bound, bound)
        if denominators:
            return Fraction(num, rng.randint(1, 4))
        return Fraction(num)

    return Matrix([[entry() for _ in range(ncols)] for _ in range(nrows)])


def cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_det(minor)
    return total


def minor_rank(m: Matrix) -> int:
    """Rank as the largest size of a nonvanishing minor."""
    best = 0
    for r in range(1, min(m.nrows, m.ncols) + 1):
        found = False
        for rows in combinations(range(m.nrows), r):
            for cols in combinations(range(m.ncols), r):
                sub = [[m.at(i, j) for j in cols] for i in rows]
                if cofactor_det(sub) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = r
        else:
            break
    return best


def gf_rank(m: Matrix, p: int) -> int:
    rows = []
    for row in m.rows:
        out = []
        for x in row:
            den = x.denominator % p
            assert den != 0
            out.append(x.numerator % p * pow(den, -1, p) % p)
        rows.append(out)
    r = 0
    for col in range(m.ncols):
        piv = next((i for i in range(r, m.nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        for i in range(m.nrows):
            if i != r and rows[i][col]:
                f = rows[i][col] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m.nrows:
            break
    return r


def test_rat_coercion():
    assert rat(3) == Fraction(3)
    assert rat("2/7") == Fraction(2, 7)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        rat(0.5)
    # bool is an int subclass, so a JSON true would otherwise read as 1.
    with pytest.raises(TypeError):
        rat(True)
    # Fraction would build 10**999999999 before returning.
    for text in ("1e999999999", "2E3", "1/1e5"):
        with pytest.raises(ValueError, match="exponent"):
            rat(text)


def test_constructor_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])


def test_rank_against_minor_oracle():
    rng = random.Random("rank-minors")
    for trial in range(30):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), denominators=trial % 3 == 0)
        assert rank(m) == minor_rank(m)


def test_rank_against_modular_oracle():
    rng = random.Random("rank-modular")
    for _ in range(20):
        m = random_matrix(rng, rng.randint(2, 7), rng.randint(2, 7))
        assert rank(m) == max(gf_rank(m, p) for p in PRIMES)


def test_rank_of_contrived_degenerate():
    row = [Fraction(1), Fraction(2), Fraction(3)]
    m = Matrix([row, [2 * x for x in row], [5 * x for x in row]])
    assert rank(m) == 1


def test_determinant_against_cofactor_oracle():
    rng = random.Random("det-cofactor")
    for trial in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n, denominators=trial % 2 == 0)
        assert determinant(m) == cofactor_det([list(r) for r in m.rows])


def test_determinant_multiplicative():
    rng = random.Random("det-product")
    for _ in range(10):
        a = random_matrix(rng, 4, 4)
        b = random_matrix(rng, 4, 4)
        assert determinant(a @ b) == determinant(a) * determinant(b)


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(Matrix([[1, 2, 3], [4, 5, 6]]))


def test_kernel_annihilates_and_completes_rank():
    rng = random.Random("kernel")
    zero = Fraction(0)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = kernel_basis(m.rows)
        assert rank(m) + len(basis) == m.ncols
        for vec in basis:
            assert list(m.apply(vec)) == [zero] * m.nrows
        if basis:
            assert rank(Matrix([list(v) for v in basis])) == len(basis)


def test_kernel_deterministic_shape():
    # One basis vector per free column, unit in that column.
    basis = kernel_basis([[1, 2, 3], [0, 0, 0]])
    assert len(basis) == 2
    assert basis[0][1] == 1 and basis[0][2] == 0
    assert basis[1][2] == 1 and basis[1][1] == 0


def test_solve_and_inverse():
    rng = random.Random("solve")
    for _ in range(15):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        if determinant(m) == 0:
            continue
        rhs = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        x = solve(m, rhs)
        assert x is not None and list(m.apply(x)) == rhs
        inv = inverse(m)
        assert (m @ inv).rows == Matrix.identity(n).rows


def test_solve_inconsistent_returns_none():
    m = Matrix([[1, 1], [1, 1]])
    assert solve(m, [Fraction(0), Fraction(1)]) is None


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_matmul_apply_transpose_consistency():
    rng = random.Random("ops")
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 4, 2)
    v = [Fraction(rng.randint(-5, 5)) for _ in range(2)]
    assert (a @ b).apply(v) == a.apply(b.apply(v))
    assert a.transpose().rows == tuple(zip(*a.rows))


def reference_kernel_basis(m: Matrix):
    """Gauss-Jordan elimination directly on Fraction rows: the reference
    path that the fraction-free ``kernel_basis`` must reproduce."""
    rows = [list(r) for r in m.rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def differential_rows():
    """Row lists for ``kernel_basis``: Fraction rows of random matrices,
    and the integer condition rows of ``linear_system``."""
    rng = random.Random("kernel-differential")
    out = []
    for _ in range(20):  # rational entries, mostly full rank
        out.append(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), denominators=True))
    for _ in range(10):  # rank deficient: a product through a thin middle
        n, k, c = rng.randint(2, 7), rng.randint(1, 3), rng.randint(2, 7)
        left = random_matrix(rng, n, k, denominators=True)
        right = random_matrix(rng, k, c, denominators=True)
        out.append(left @ right)
    for _ in range(5):  # zero rows mixed in
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), denominators=True)
        rows = [list(r) for r in m.rows]
        rows.insert(rng.randint(0, len(rows)), [0] * m.ncols)
        rows.append([0] * m.ncols)
        out.append(Matrix(rows))
    out.append(Matrix([[0, 0, 0], [0, 0, 0]]))
    out.append(Matrix.identity(4))
    out = [m.rows for m in out]
    configs = [REF6] + [random_general_config(rng, bound=9) for _ in range(6)]
    for config in configs:  # the linear_system(5) and linear_system(6) conditions
        for degree in (5, 6):
            rows = []
            for p in config.points:
                rows.extend(integer_multiplicity_rows(degree, p, 2))
            out.append(rows)
    return out


def test_kernel_basis_matches_the_fraction_reference():
    for rows in differential_rows():
        got = kernel_basis(rows)
        assert got == reference_kernel_basis(Matrix(rows))
        assert all(type(x) is Fraction for v in got for x in v)


def test_row_space_basis_is_the_kernel_basis_of_its_conditions():
    # kernel_basis(m) is the basis of ker m with the identity on the
    # free columns of m; any spanning rows of ker m must give it back.
    rng = random.Random("row-space-basis")
    entries = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2))
    free_sets, tested = set(), 0
    while tested < 1000:
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 7)
        m = Matrix([[rng.choice(entries) for _ in range(ncols)] for _ in range(nrows)])
        kernel = kernel_basis(m.rows)
        if not kernel:
            continue
        # More rows than the kernel's dimension, each a random combination.
        rows = [
            [sum((t * x for t, x in zip(ts, col)), Fraction(0)) for col in zip(*kernel)]
            for ts in ([rng.randint(-3, 3) for _ in kernel] for _ in range(len(kernel) + 1))
        ]
        if rank(Matrix(rows)) != len(kernel):
            continue
        pivots = set(_rref(m.rows)[1])
        free = [j for j in range(ncols) if j not in pivots]
        assert row_space_basis(rows) == (kernel, free)
        free_sets.add(tuple(free))
        tested += 1
    assert len(free_sets) > 50


def test_row_space_basis_of_zero_rows_is_empty():
    assert row_space_basis([[0, 0, 0], [0, 0, 0]]) == ([], [])
