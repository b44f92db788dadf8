"""The rank-7 class lattice of the plane blown up in six points.

Classes are integer vectors (a; b1..b6) meaning a L + sum b_i E_i where
L is the pullback of a line and E_i the exceptional classes.  The
intersection form is diag(1, -1, ..., -1):  L^2 = 1, E_i^2 = -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .linalg import _bareiss_int


@dataclass(frozen=True, order=True)
class PicClass:
    a: int
    b: tuple[int, int, int, int, int, int]

    def __post_init__(self):
        if len(self.b) != 6:
            raise ValueError("a class carries six exceptional coefficients")

    def intersect(self, other: "PicClass") -> int:
        return self.a * other.a - sum(x * y for x, y in zip(self.b, other.b))

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.a + other.a, tuple(x + y for x, y in zip(self.b, other.b)))

    def __neg__(self) -> "PicClass":
        return PicClass(-self.a, tuple(-x for x in self.b))

    def __sub__(self, other: "PicClass") -> "PicClass":
        return self + (-other)

    def scale(self, n: int) -> "PicClass":
        return PicClass(n * self.a, tuple(n * x for x in self.b))

    def vector(self) -> tuple[int, ...]:
        return (self.a, *self.b)

    def to_json(self) -> list[int]:
        return list(self.vector())

    def __repr__(self) -> str:
        return f"PicClass({self.a}; {', '.join(str(x) for x in self.b)})"


L = PicClass(1, (0, 0, 0, 0, 0, 0))
E = tuple(
    PicClass(0, tuple(1 if j == i else 0 for j in range(6))) for i in range(6)
)
#: Canonical class: -3L + E_1 + ... + E_6.  K.K = 3.
K = PicClass(-3, (1, 1, 1, 1, 1, 1))
E_TOTAL = PicClass(0, (1, 1, 1, 1, 1, 1))
#: F_i = 2L - (E_1 + ... + E_6) + E_i, the class of the conic avoiding x_i.
F = tuple(
    PicClass(2, tuple(0 if j == i else -1 for j in range(6))) for i in range(6)
)


def lines_27() -> list[PicClass]:
    """The 27 classes D with D.D = -1 and K.D = -1.

    Constructed orbit by orbit (exceptional, line through two points,
    conic through five); an exhaustive bounded search oracle confirms
    the count in the test-suite.  Deterministic order: the six E_i, the
    fifteen L - E_i - E_j (i < j), the six F_i.
    """
    out: list[PicClass] = list(E)
    for i, j in combinations(range(6), 2):
        out.append(L - E[i] - E[j])
    out.extend(F)
    return out


@dataclass(frozen=True)
class DoubleSix:
    """Two ordered sixes of mutually skew lines with A_i . B_j = 1 - delta_ij."""

    a: tuple[PicClass, ...]
    b: tuple[PicClass, ...]

    def __post_init__(self):
        if len(self.a) != 6 or len(self.b) != 6:
            raise ValueError("a double six is two sixes of classes")

    def check(self) -> bool:
        for i in range(6):
            for j in range(6):
                if self.a[i].intersect(self.a[j]) != (-1 if i == j else 0):
                    return False
                if self.b[i].intersect(self.b[j]) != (-1 if i == j else 0):
                    return False
                if self.a[i].intersect(self.b[j]) != (0 if i == j else 1):
                    return False
        return True

    def key(self) -> frozenset:
        return frozenset((frozenset(self.a), frozenset(self.b)))


def blowdown_line_class(sixer: tuple[PicClass, ...]) -> PicClass:
    """The line class of the plane obtained by contracting the sixer.

    Solves K = -3 L' + sum A_i, i.e. L' = (sum A_i - K) / 3; raises if
    the result is not integral (the sixer is not contractible).
    """
    total = sixer[0]
    for s in sixer[1:]:
        total = total + s
    diff = total - K
    if diff.a % 3 or any(x % 3 for x in diff.b):
        raise ValueError("sixer is not numerically contractible")
    return PicClass(diff.a // 3, tuple(x // 3 for x in diff.b))


def double_sixes() -> list[DoubleSix]:
    """All 36 double sixes among the 27 lines, from Schlaefli's list.

    With C_ij = L - E_i - E_j, taken from ``lines_27()`` like every
    other class, they are: the classical pair (E; F); for
    each pair i < j, (E_i, F_i, C_jk ...; E_j, F_j, C_ik ...) over the
    four k outside {i, j}; for each triple i < j < k with complement
    l < m < n, (E_i, E_j, E_k, C_mn, C_ln, C_lm; C_jk, C_ik, C_ij, F_l,
    F_m, F_n).  Each is written matched, A_i . B_i = 0, with first the
    sixer A whose sorted indices in ``lines_27()`` come first, and the
    pairs (A_i, B_i) are sorted by A_i's index.  The classical pair comes
    first; the rest follow in lexicographic order of their sorted A-sixer.
    """
    lines = lines_27()
    index = {cls: n for n, cls in enumerate(lines)}
    C: dict[tuple[int, int], PicClass] = {}
    for (i, j), cls in zip(combinations(range(6), 2), lines[6:21]):
        C[i, j] = C[j, i] = cls

    pairs = [(E, F)]
    for i, j in combinations(range(6), 2):
        rest = [k for k in range(6) if k not in (i, j)]
        pairs.append(((E[i], F[i], *(C[j, k] for k in rest)), (E[j], F[j], *(C[i, k] for k in rest))))
    for i, j, k in combinations(range(6), 3):
        l, m, n = (t for t in range(6) if t not in (i, j, k))
        pairs.append(((E[i], E[j], E[k], C[m, n], C[l, n], C[l, m]),
                      (C[j, k], C[i, k], C[i, j], F[l], F[m], F[n])))
    out = []
    for a, b in pairs:
        a, b = zip(*sorted(zip(a, b), key=lambda ab: index[ab[0]]))
        out.append(DoubleSix(a, b))
    classical = DoubleSix(E, F).key()
    out.sort(key=lambda d: (d.key() != classical, tuple(sorted(x.vector() for x in d.a))))
    return out


def basis_determinant(sixer: tuple[PicClass, ...]) -> int:
    """Determinant of (L'; A_1..A_6) written in the (L; E) basis.

    +-1 certifies that contracting the sixer gives a full rank-7
    unimodular sublattice, i.e. an honest plane model.
    """
    lp = blowdown_line_class(sixer)
    return _bareiss_int([list(cls.vector()) for cls in (lp, *sixer)])
