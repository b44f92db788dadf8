"""Dense exact linear algebra over the rationals.

Everything here is deterministic: elimination always picks the first
nonzero pivot in column order, so kernels, determinants and echelon
forms are byte-for-byte reproducible for a given input.  Scalars are
``fractions.Fraction`` throughout (auto-reduced, positive denominator);
elimination itself runs on integer rows with denominators cleared, so
:func:`kernel_basis` and :func:`row_space_basis` take rows of ints or
Fractions as they are.  :func:`clear_denominators` does all clearing:
here, in ``TernaryForm.integer_terms`` and ``eval``, ``PointP2.ints``,
``coble`` and ``torsion``.  Nothing in the library calls :func:`inverse`
or :func:`determinant`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Iterable, Sequence

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like ``"p/q"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, str or Fraction")
    if isinstance(x, bool):  # an int subclass: JSON true would read as 1
        raise TypeError("booleans are not numbers; pass int, str or Fraction")
    if isinstance(x, str) and ("e" in x or "E" in x):
        # Fraction("1e999999999") would build 10**999999999 first.
        raise ValueError(f"number strings take no exponent, got {x!r}")
    return Fraction(x)


class Matrix:
    """Immutable dense matrix with Fraction entries, row-major."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = tuple(tuple(rat(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(r) != width for r in data):
            raise ValueError("rows must be nonempty and of equal length")
        self._rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        one, zero = Fraction(1), Fraction(0)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """Row-major flattening."""
        return tuple(x for row in self._rows for x in row)

    def at(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self._rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = other.transpose()._rows
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
        )

    def apply(self, vec: Sequence) -> tuple[Fraction, ...]:
        v = [rat(x) for x in vec]
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._rows)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix([[c * x for x in row] for row in self._rows])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"Matrix({self.nrows}x{self.ncols}: {body})"


def clear_denominators(vec: Collection[Fraction]) -> tuple[list[int], int]:
    """Integers n and the least positive d with vec = n / d, entry by entry."""
    d = lcm(*(x.denominator for x in vec))
    return [x.numerator * (d // x.denominator) for x in vec], d


def _integer_row(row: Sequence[Fraction | int]) -> list[int]:
    """The row scaled to coprime integers (its primitive part)."""
    ints, _ = clear_denominators(row)
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free reduced row echelon form; returns (rows, pivot columns).

    Gauss-Jordan elimination on integer rows, each kept primitive by
    dividing out its content.  Row r of the result is a nonzero multiple
    of row r of the reduced echelon form over Q, so that form's entry in
    column j is rows[r][j] / rows[r][pivots[r]].  Pivots are the first
    nonzero entry in column order, scanning rows top down.
    """
    rows = [_integer_row(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f != 0:
                g = gcd(p, f)
                pi, fi = p // g, f // g
                new = [pi * a - fi * b for a, b in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(m: Matrix) -> int:
    return len(_rref(m.rows)[1])


def kernel_basis(rows: Sequence[Sequence]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel {v : M v = 0} of the matrix M with these
    rows, of ints or Fractions (at least one row).

    Derived from the reduced echelon form: one vector per free column,
    with a 1 in the free slot.  Deterministic for a given input; an
    empty list means the kernel is trivial.
    """
    ncols = len(rows[0])
    red, pivots = _rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = Fraction(-red[r][f], red[r][c])
        basis.append(tuple(v))
    return basis


def row_space_basis(rows: Sequence[Sequence]) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """The basis of the row space that :func:`kernel_basis` returns for
    every matrix whose kernel is that row space, and the columns where
    it is the identity, ascending.

    ``kernel_basis(M)`` puts the identity on the complement F of the
    greedy pivot columns of M; a basis of ker M with the identity on F
    is unique.  The greedy pivots are the lex-first column basis of M,
    so by matroid duality F is the lex-last column basis of any matrix
    whose row space is ker M.  Elimination with the columns reversed
    finds exactly that basis greedily from the right, and each reduced
    row scaled to 1 at its pivot has the identity on F.  One vector per
    pivot, in ascending pivot column order; an empty list means the
    rows are all zero.
    """
    n = len(rows[0])
    red, pivots = _rref([list(reversed(r)) for r in rows])
    basis = [tuple(Fraction(x, row[c]) for x in reversed(row)) for row, c in zip(red, pivots)]
    return basis[::-1], [n - 1 - c for c in reversed(pivots)]


def _bareiss_int(a: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss); 1 when empty."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * prev


def determinant(m: Matrix) -> Fraction:
    """Exact determinant via integer Bareiss after clearing denominators."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    scale = 1
    int_rows: list[list[int]] = []
    for row in m.rows:
        ints, d = clear_denominators(row)
        scale *= d
        int_rows.append(ints)
    return Fraction(_bareiss_int(int_rows), scale)


def solve(m: Matrix, rhs: Sequence) -> tuple[Fraction, ...] | None:
    """One solution of m x = rhs, or None if inconsistent.

    When the system is underdetermined the free variables are set to 0,
    so the answer is deterministic.
    """
    b = [rat(x) for x in rhs]
    if len(b) != m.nrows:
        raise ValueError("shape mismatch")
    red, pivots = _rref([list(r) + [bv] for r, bv in zip(m.rows, b)])
    if pivots and pivots[-1] == m.ncols:
        return None
    x = [Fraction(0)] * m.ncols
    for r, c in enumerate(pivots):
        x[c] = Fraction(red[r][m.ncols], red[r][c])
    return tuple(x)


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    eye = Matrix.identity(n).rows
    red, pivots = _rref([list(r) + list(e) for r, e in zip(m.rows, eye)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(red)])
