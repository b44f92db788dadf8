"""Seeded inputs, requests and verdict checks for the benchmark workloads.

Inputs come from the benchmark's own RNG and its own integer arithmetic
(the exceptional conics are cofactors of the Veronese matrix, computed
here), so they do not drift when library internals such as kernel bases
or canonical scalings change.  Requests reach the library through module
attributes looked up at call time, so timing wrappers installed on those
modules see every call.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from doublesix import association, coble, lattice, plane, torsion
from doublesix.forms import TernaryForm
from doublesix.perms import Perm

#: Configuration rows are integer triples in [-ROW_BOUND, ROW_BOUND].
ROW_BOUND = 20
#: nodal-reject combines the 20 conic triple products with coefficients in
#: [-COEFF_BOUND, COEFF_BOUND].
COEFF_BOUND = 9

#: Degree-two monomials in the order the conic coefficient vectors use.
CONIC_MONOMIALS = ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))
CONIC_TRIPLES = tuple(itertools.combinations(range(6), 3))

#: Conic heights that split general-position draws with rows in [-20, 20]
#: into 16 equally likely strata (measured over 4000 draws).  Request cost
#: grows with conic height, so the draws are stratified: each round of 16
#: takes one configuration from every stratum, in bit-reversed order so
#: that any prefix of a round spreads evenly over the heights.  A run of a
#: dozen requests then sees the population's spread of heights, and runs
#: with different seeds agree more closely.
HEIGHT_CUTS = (709, 778, 829, 869, 898, 926, 953, 979, 1007, 1033, 1061, 1085, 1119, 1156, 1204)
STRATUM_ORDER = tuple(int(f"{i:04b}"[::-1], 2) for i in range(16))


def _det(rows: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def conic_coefficients(rows) -> list[tuple[int, ...]]:
    """Primitive integer coefficient vectors of the six exceptional conics.

    Conic i passes through every row except row i; its coefficients are
    the signed 5x5 minors of the Veronese matrix of the other five rows,
    divided by their gcd and signed so the first nonzero one is positive.
    Rows must be in general position.
    """
    ver = [[x**a * y**b * z**c for a, b, c in CONIC_MONOMIALS] for x, y, z in rows]
    out = []
    for i in range(6):
        five = [ver[j] for j in range(6) if j != i]
        coeffs = [(-1) ** col * _det([r[:col] + r[col + 1 :] for r in five]) for col in range(6)]
        lead = next(c for c in coeffs if c != 0)
        g = math.gcd(*coeffs) * (1 if lead > 0 else -1)
        out.append(tuple(c // g for c in coeffs))
    return out


def conic_height(conics: list[tuple[int, ...]]) -> int:
    """Total bit length of the six primitive conic coefficient vectors."""
    return sum(abs(c).bit_length() for conic in conics for c in conic)


@dataclass(frozen=True)
class Draw:
    """One general-position configuration with its integer conics."""

    rows: tuple[tuple[int, int, int], ...]
    config: plane.Config6
    conics: list[tuple[int, ...]]


def _draw(rng: random.Random) -> Draw | None:
    rows = tuple(
        tuple(rng.randint(-ROW_BOUND, ROW_BOUND) for _ in range(3)) for _ in range(6)
    )
    try:
        config = plane.Config6(rows)
    except ValueError:  # a zero row or two equal points
        return None
    if not plane.is_general_position(config).ok:
        return None
    return Draw(rows, config, conic_coefficients(rows))


def general_draws(rng: random.Random, count: int) -> list[Draw]:
    """``count`` general-position configurations, stratified by conic height.

    Every draw is kept in the bucket of its height stratum; the strata
    are served in STRATUM_ORDER, round after round.
    """
    buckets: list[list[Draw]] = [[] for _ in range(len(HEIGHT_CUTS) + 1)]
    out: list[Draw] = []
    while len(out) < count:
        want = STRATUM_ORDER[len(out) % len(STRATUM_ORDER)]
        while not buckets[want]:
            d = _draw(rng)
            if d is not None:
                buckets[bisect.bisect(HEIGHT_CUTS, conic_height(d.conics))].append(d)
        out.append(buckets[want].pop(0))
    return out


@dataclass(frozen=True)
class Request:
    """Library arguments for one request plus the integers they came from."""

    args: tuple
    record: dict

    @property
    def key(self) -> str:
        """Identifies the request's inputs across runs."""
        return _digest(self.record)


def _digest(data: Any) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def input_digest(requests: list[Request]) -> str:
    return _digest([r.record for r in requests])


# -- pencil-certify and nodal-reject -------------------------------------


def pencil_requests(rng: random.Random, count: int) -> list[Request]:
    refs = [Request((plane.REF6,), {"rows": "REF6"})]
    draws = general_draws(rng, count - 1)
    return refs + [Request((d.config,), {"rows": d.rows}) for d in draws]


def _multiply(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j, k), u in a.items():
        for (l, m, n), v in b.items():
            mono = (i + l, j + m, k + n)
            out[mono] = out.get(mono, 0) + u * v
    return out


def nodal_requests(rng: random.Random, count: int) -> list[Request]:
    """Seeded integer combinations of the 20 triple products of conics.

    Each conic is scaled so its first coefficient in CONIC_MONOMIALS order
    is 1, as ``exceptional_conics`` scales it, so the sextics have rational
    coefficients of large height, as conics through five points give.
    """
    out = []
    for d in general_draws(rng, count):
        conics = [dict(zip(CONIC_MONOMIALS, c)) for c in d.conics]
        leads = [next(x for x in c if x) for c in d.conics]
        products = [_multiply(_multiply(conics[a], conics[b]), conics[c]) for a, b, c in CONIC_TRIPLES]
        scales = [leads[a] * leads[b] * leads[c] for a, b, c in CONIC_TRIPLES]
        den = math.lcm(*scales)
        numerators: dict = {}
        while not any(numerators.values()):
            coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in CONIC_TRIPLES]
            numerators = {}
            for k, product, scale in zip(coeffs, products, scales):
                for mono, c in product.items():
                    numerators[mono] = numerators.get(mono, 0) + k * (den // scale) * c
        form = TernaryForm(6, {m: Fraction(c, den) for m, c in numerators.items()})
        out.append(Request((d.config, form), {"rows": d.rows, "coefficients": coeffs}))
    return out


def run_pencil(config) -> torsion.TorsionCertificate:
    return torsion.certify_pencil(config)


def run_nodal(config, form) -> torsion.TorsionCertificate:
    return torsion.certify(config, form)


def _certificate_check(accepted: bool, rank: int) -> Callable[[Any], str | None]:
    want = (accepted, rank, rank, True)

    def check(cert) -> str | None:
        got = (
            cert.accepted,
            cert.rank_node_side.dimension if cert.rank_node_side else None,
            cert.rank_conic_side.dimension if cert.rank_conic_side else None,
            cert.smoothness.certified if cert.smoothness else None,
        )
        if got != want:
            return f"(accepted, E rank, F rank, smooth) is {got}, expected {want}"
        return None

    return check


def certificate_digest(cert) -> str:
    return _digest(cert.to_json())


# -- invariant-sweep -------------------------------------------------------


@dataclass(frozen=True)
class InvariantResult:
    general: plane.GeneralPositionVerdict
    associated: plane.Config6
    involution: Any
    vector: coble.CobleVector
    residual_plus: Any
    residual_minus: Any
    schlaefli: coble.SchlaefliCheck
    perm: Perm
    action: coble.ActionRecord
    lines: int
    double_sixes: int


def invariant_requests(rng: random.Random, count: int) -> list[Request]:
    out = []
    for d in general_draws(rng, count):
        images = rng.sample(range(6), 6)
        out.append(Request((d.config, Perm(images)), {"rows": d.rows, "perm": images}))
    return out


def run_invariants(config, perm) -> InvariantResult:
    general = plane.is_general_position(config)
    first = association.second_model(config)
    second = association.second_model(first.associated)
    involution = plane.projective_equivalence(second.associated, config)
    vector = coble.coble_vector(config)
    return InvariantResult(
        general,
        first.associated,
        involution,
        vector,
        coble.relation_residual(vector, "plus"),
        coble.relation_residual(vector, "minus"),
        coble.schlaefli_sign_check(config),
        perm,
        coble.s6_action(perm),
        len(lattice.lines_27()),
        len(lattice.double_sixes()),
    )


def check_invariants(r: InvariantResult) -> str | None:
    problems = []
    if not r.general.ok:
        problems.append("configuration reported not in general position")
    if r.involution is None:
        problems.append("second model of the second model is not the configuration")
    if r.residual_plus != 0:
        problems.append("plus residual is nonzero")
    if r.residual_minus == 0:
        problems.append("minus residual vanishes")
    if not r.schlaefli.accepted:
        problems.append("Schlaefli sign check rejected")
    if r.action.perm != r.perm or r.action.sign != r.perm.sign():
        problems.append("s6 action sign does not match the permutation sign")
    if (r.lines, r.double_sixes) != (27, 36):
        problems.append(f"lattice gave {r.lines} lines and {r.double_sixes} double sixes")
    return "; ".join(problems) or None


def invariant_digest(r: InvariantResult) -> str:
    g, sigma = r.involution if r.involution is not None else (None, None)
    return _digest(
        {
            "associated": r.associated.to_json(),
            "involution": [str(x) for x in g.entries] if g is not None else None,
            "sigma": list(sigma.images) if sigma is not None else None,
            "vector": r.vector.to_json(),
            "residuals": [str(r.residual_plus), str(r.residual_minus)],
            "schlaefli": r.schlaefli.to_json(),
            "action": [str(x) for x in r.action.matrix.entries] + [r.action.sign],
        }
    )


def warm_action_samples() -> None:
    """Fill the lazy interpolation samples that the first s6_action builds."""
    coble.s6_action(Perm.identity(6))


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    #: Requests generated per run; a run that gets through all of them
    #: starts again from the first.
    length: int
    make: Callable[[random.Random, int], list[Request]]
    run: Callable[..., Any]
    check: Callable[[Any], str | None]
    digest: Callable[[Any], str]
    warm: Callable[[], None] | None = None

    def requests(self, seed: int) -> list[Request]:
        return self.make(random.Random(f"perfbench/{self.name}/{seed}"), self.length)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pencil-certify", 48, pencil_requests, run_pencil,
            _certificate_check(True, 2), certificate_digest,
        ),
        Workload(
            "nodal-reject", 48, nodal_requests, run_nodal,
            _certificate_check(False, 1), certificate_digest,
        ),
        Workload(
            "invariant-sweep", 128, invariant_requests, run_invariants,
            check_invariants, invariant_digest, warm_action_samples,
        ),
    )
}
