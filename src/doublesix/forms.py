"""Homogeneous polynomials in three variables over the rationals.

A :class:`TernaryForm` of degree d is a sparse map from exponent
triples (i, j, k) with i + j + k = d to nonzero Fraction coefficients.
The monomial order used everywhere (serialization, canonical scaling,
linear-system columns) is descending lexicographic on the exponent
triple, e.g. for conics: x^2, xy, xz, y^2, yz, z^2.

A form's integer view is :meth:`TernaryForm.integer_terms`: its
coefficients as integers over their least positive common denominator.
Every consumer that works on integers reads a form through it.

Evaluation runs on integers: :func:`integer_powers` writes a point as
(x, y, z) / D with integer x, y, z and tabulates their powers, and
:meth:`TernaryForm.eval` sums integer products over the coefficients'
common denominator, forming one ``Fraction`` at the end.

Elimination evaluates too.  :func:`resultant_eliminate` specializes
both integer forms at (u, v) = (t, 1) for t = 0 .. mn with
``_specializations``, takes each value as an integer Sylvester
determinant, and interpolates with ``_newton_interpolate``, which
returns mn! times the eliminant over Z.  ``torsion._modp_resultants_x``
builds the mod-p eliminants with the same specialization and
interpolation, and a resultant over GF(p).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul
from typing import Iterable, Mapping, Sequence

from .linalg import Matrix, _bareiss_int, clear_denominators, rat

VARS = ("x", "y", "z")

Mono = tuple[int, int, int]


def monomials_of_degree(d: int) -> list[Mono]:
    """All exponent triples of total degree d, descending lex."""
    out = [(i, j, d - i - j) for i in range(d, -1, -1) for j in range(d - i, -1, -1)]
    return sorted(out, reverse=True)


def integer_powers(point: Sequence, degree: int) -> tuple[list[list[int]], int]:
    """Powers 0..degree of the point's coordinates, cleared of denominators.

    Returns ([xs, ys, zs], D) with point = (x, y, z) / D for the least
    positive D and xs[e] = x**e, and so on; a degree-d monomial at the
    point is then xs[i] * ys[j] * zs[k] / D**d.
    """
    coords = [rat(u) for u in point]
    if len(coords) != 3:
        raise ValueError("a plane point needs three coordinates")
    ints, den = clear_denominators(coords)
    return [[v**e for e in range(degree + 1)] for v in ints], den


class TernaryForm:
    """Exact homogeneous form in x, y, z.  Immutable."""

    __slots__ = ("degree", "_coeffs")

    def __init__(self, degree: int, coeffs: Mapping[Mono, object] | Iterable) -> None:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        store: dict[Mono, Fraction] = {}
        for mono, c in items:
            i, j, k = mono
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise ValueError(f"exponent triple {mono} is not degree {degree}")
            c = rat(c)
            if c != 0:
                store[(i, j, k)] = store.get((i, j, k), Fraction(0)) + c
                if store[(i, j, k)] == 0:
                    del store[(i, j, k)]
        self.degree = degree
        self._coeffs = store

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "TernaryForm":
        return cls(degree, {})

    @classmethod
    def monomial(cls, mono: Mono, c=1) -> "TernaryForm":
        return cls(sum(mono), {mono: c})

    @classmethod
    def variable(cls, var: int) -> "TernaryForm":
        mono = tuple(1 if i == var else 0 for i in range(3))
        return cls(1, {mono: 1})

    @classmethod
    def from_coefficient_vector(cls, degree: int, vec: Sequence) -> "TernaryForm":
        monos = monomials_of_degree(degree)
        if len(vec) != len(monos):
            raise ValueError("coefficient vector has wrong length")
        return cls(degree, dict(zip(monos, vec)))

    # -- structure ---------------------------------------------------

    def coefficient(self, mono: Mono) -> Fraction:
        return self._coeffs.get(tuple(mono), Fraction(0))

    def terms(self) -> list[tuple[Mono, Fraction]]:
        """Nonzero terms in descending lex order."""
        return sorted(self._coeffs.items(), reverse=True)

    def integer_terms(self) -> tuple[dict[Mono, int], int]:
        """The nonzero coefficients as integers over their least positive
        common denominator N: ({mono: n}, N) with coefficient(mono) = n / N.
        The zero form gives ({}, 1)."""
        nums, den = clear_denominators(self._coeffs.values())
        return dict(zip(self._coeffs, nums)), den

    def coefficient_vector(self) -> tuple[Fraction, ...]:
        return tuple(self.coefficient(m) for m in monomials_of_degree(self.degree))

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def degree_in(self, var: int) -> int:
        """Largest exponent of the given variable; -1 for the zero form."""
        if not self._coeffs:
            return -1
        return max(m[var] for m in self._coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryForm)
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self.degree, tuple(sorted(self._coeffs.items()))))

    def __repr__(self) -> str:
        if self.is_zero:
            return f"TernaryForm(0, degree={self.degree})"
        parts = []
        for (i, j, k), c in self.terms():
            mono = "".join(v * e for v, e in zip(VARS, (i, j, k)))
            parts.append(f"{c}*{mono}" if mono else str(c))
        return "TernaryForm(" + " + ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "TernaryForm") -> "TernaryForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self._coeffs)
        for m, c in other._coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return TernaryForm(self.degree, out)

    def __neg__(self) -> "TernaryForm":
        return TernaryForm(self.degree, {m: -c for m, c in self._coeffs.items()})

    def __sub__(self, other: "TernaryForm") -> "TernaryForm":
        return self + (-other)

    def __mul__(self, other) -> "TernaryForm":
        if isinstance(other, TernaryForm):
            out: dict[Mono, Fraction] = {}
            for (a, b, c), u in self._coeffs.items():
                for (d, e, f), v in other._coeffs.items():
                    m = (a + d, b + e, c + f)
                    out[m] = out.get(m, Fraction(0)) + u * v
            return TernaryForm(self.degree + other.degree, out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c) -> "TernaryForm":
        c = rat(c)
        return TernaryForm(self.degree, {m: c * v for m, v in self._coeffs.items()})

    def eval(self, point: Sequence) -> Fraction:
        """The value at a coordinate triple, exactly.

        With the point as (x, y, z) / D and the coefficients as n_m / N
        over their common denominator N, every monomial has degree d, so
        f(point) = sum n_m x^i y^j z^k / (N D^d): one integer sum and one
        ``Fraction``, which normalises to the same value as the sum of
        ``Fraction`` terms.
        """
        (xs, ys, zs), den = integer_powers(point, self.degree)
        nums, cden = self.integer_terms()
        total = sum(n * xs[i] * ys[j] * zs[k] for (i, j, k), n in nums.items())
        return Fraction(total, cden * den**self.degree)

    def partial(self, var: int) -> "TernaryForm":
        """Formal partial derivative; degree drops by one."""
        if self.degree == 0:
            raise ValueError("cannot differentiate a degree-0 form to a form")
        out: dict[Mono, Fraction] = {}
        for m, c in self._coeffs.items():
            e = m[var]
            if e == 0:
                continue
            new = list(m)
            new[var] = e - 1
            out[tuple(new)] = c * e
        return TernaryForm(self.degree - 1, out)

    def substitute(self, m: Matrix) -> "TernaryForm":
        """The composite form f(M v), for a 3x3 matrix acting on coordinates."""
        if m.nrows != 3 or m.ncols != 3:
            raise ValueError("substitution needs a 3x3 matrix")
        lins = [
            TernaryForm(1, {(1, 0, 0): m.at(r, 0), (0, 1, 0): m.at(r, 1), (0, 0, 1): m.at(r, 2)})
            for r in range(3)
        ]
        powers: list[dict[int, TernaryForm]] = [
            {0: TernaryForm(0, {(0, 0, 0): 1})} for _ in range(3)
        ]

        def power(v: int, e: int) -> TernaryForm:
            memo = powers[v]
            if e not in memo:
                memo[e] = power(v, e - 1) * lins[v]
            return memo[e]

        total = TernaryForm.zero(self.degree)
        for (i, j, k), c in self._coeffs.items():
            total = total + (power(0, i) * power(1, j) * power(2, k)).scale(c)
        return total

    def canonical(self) -> "TernaryForm":
        """Rescale so the first nonzero coefficient (descending lex) is 1."""
        if self.is_zero:
            return self
        lead = self.terms()[0][1]
        return self.scale(1 / lead)

    # -- serialization -----------------------------------------------

    def to_json(self) -> list[list]:
        return [[i, j, k, str(c)] for (i, j, k), c in self.terms()]

    @classmethod
    def from_json(cls, records: Iterable) -> "TernaryForm":
        terms = []
        for record in records:
            if not isinstance(record, (list, tuple)) or len(record) != 4:
                raise ValueError(f"each term is [i, j, k, coefficient], got {record!r}")
            *mono, c = record
            # bool is an int subclass; a float or a string is no exponent either.
            if any(type(e) is not int for e in mono):
                raise ValueError(f"exponents must be integers, got {mono}")
            # rat refuses an exponent in a string; a JSON float is bounded.
            terms.append((tuple(mono), rat(c) if isinstance(c, str) else Fraction(str(c))))
        if not terms:
            raise ValueError("cannot infer the degree of an empty form")
        degree = sum(terms[0][0])
        return cls(degree, terms)


class DegenerateEliminationError(ValueError):
    """The eliminated variable's leading coefficient is not constant.

    Resultant-based elimination only projects faithfully when both
    forms have full degree in the variable being eliminated; the caller
    should apply a coordinate change and retry.
    """


def _specializations(
    degree: int, terms: Iterable[tuple[Mono, int]], var: int, count: int
) -> list[list[int]]:
    """An integer form at (u, v) = (t, 1), for t = 0 .. count - 1.

    ``terms`` are the (exponent triple, integer coefficient) pairs of a
    form of the given degree, and u, v are the two variables other than
    ``var``, in order.  Entry t is the polynomial in ``var``, low degree
    first, with all degree + 1 coefficients: the last is the constant
    coefficient of var^degree, whatever t.
    """
    u = 1 if var == 0 else 0
    # rows[k][i]: the coefficient of var^k u^i v^(degree - k - i)
    rows = [[0] * (degree + 1 - k) for k in range(degree + 1)]
    for mono, c in terms:
        rows[mono[var]][mono[u]] += c
    out = []
    for t in range(count):
        powers = [t**i for i in range(degree + 1)]
        out.append([sum(map(mul, row, powers)) for row in rows])
    return out


def _newton_interpolate(values: Sequence[int]) -> tuple[list[int], int]:
    """(n! P, n!) for the polynomial P of degree at most n with
    P(t) = values[t] at the nodes t = 0 .. n.

    The list is low degree first, with all n + 1 entries, untrimmed.  In
    Newton form P(u) is the sum over k of D_k / k! times
    u (u - 1) ... (u - k + 1), D_k the k-th forward difference at 0, and
    n!/k! D_k is an integer, so Horner's rule expands n! P over Z.
    """
    n = len(values) - 1
    diffs = list(values)
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    out = [0] * (n + 1)
    weight = 1  # n! / k!
    for k in range(n, -1, -1):
        # out <- out * (u - k) + weight * diffs[k]
        for j in range(n - k, 0, -1):
            out[j] = out[j - 1] - k * out[j]
        out[0] = weight * diffs[k] - k * out[0]
        weight *= k
    return out, factorial(n)


def resultant_eliminate(f: TernaryForm, g: TernaryForm, var: int) -> TernaryForm:
    """Sylvester resultant of f and g with respect to one variable.

    Returns a form in the two remaining variables (exponent 0 on var),
    homogeneous of degree deg(f) * deg(g).  It vanishes at exactly the
    (u : v) admitting a common root in the eliminated variable.  Both
    inputs must have constant leading coefficient in var, otherwise
    :class:`DegenerateEliminationError` is raised.

    The resultant is built by evaluation and interpolation (Collins,
    J. ACM 18(4), 1971).  Clearing denominators gives integer forms
    F = N_f f and G = N_g g of degrees m and n.  Both leading
    coefficients in var are nonzero constants, so (u, v) -> (t, 1)
    keeps both degrees in var and maps the Sylvester matrix of F and G
    to that of the specialized polynomials:
    Res_var(F, G)(t, 1) = Res(F(t, 1), G(t, 1)), an integer Sylvester
    determinant for each t = 0 .. mn.  Res_var(F, G)(u, 1) has degree
    at most mn, so ``_newton_interpolate`` returns mn! times it.  Its
    coefficient of u^i is that of u^i v^(mn - i), and Res_var(f, g) is
    Res_var(F, G) / (N_f^n N_g^m): one ``Fraction`` per coefficient
    divides by mn! N_f^n N_g^m.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero form")
    m, n = f.degree, g.degree
    if f.degree_in(var) < m or g.degree_in(var) < n:
        raise DegenerateEliminationError(
            f"leading coefficient in {VARS[var]} is not constant; change coordinates"
        )
    u, v = (w for w in range(3) if w != var)
    total_degree = m * n
    (fnums, fden), (gnums, gden) = f.integer_terms(), g.integer_terms()
    values = []
    for fu, gu in zip(
        _specializations(m, fnums.items(), var, total_degree + 1),
        _specializations(n, gnums.items(), var, total_degree + 1),
    ):
        # n shifted rows of F's coefficients, then m of G's, var^top first.
        rows = [[0] * s + fu[::-1] + [0] * (n - 1 - s) for s in range(n)]
        rows += [[0] * s + gu[::-1] + [0] * (m - 1 - s) for s in range(m)]
        values.append(_bareiss_int(rows))

    coeffs, weight = _newton_interpolate(values)
    den = weight * fden**n * gden**m
    out: dict[Mono, Fraction] = {}
    for i, c in enumerate(coeffs):
        mono = [0, 0, 0]
        mono[u] = i
        mono[v] = total_degree - i
        out[tuple(mono)] = Fraction(c, den)
    return TernaryForm(total_degree, out)
