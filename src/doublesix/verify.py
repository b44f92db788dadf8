"""The full verification suite behind the ``verify-paper`` command.

Each check reproduces one keystone of the geometric story in exact
arithmetic: the dimensions of the nodal linear systems, the line and
double-six catalogs, the association involution with its sign flip,
the certified quartic relation among the bracket generators, the
signed permutation action with its irreducible character, the torsion
pencil certificate, and the parameter-count bookkeeping that ties the
construction to a nine-dimensional moduli problem.

All sampling is derived from the caller's seed, so reports are
byte-reproducible.
"""

from __future__ import annotations

import random

from .association import second_model
from .coble import (
    CERTIFIED_RELATION_VARIANT,
    REFERENCE_ACTION_ROWS,
    RELATION_VARIANTS,
    character_report,
    coble_vector,
    relation_residual,
    representative_perm,
    s6_action,
    schlaefli_sign_check,
)
from .lattice import E, F, basis_determinant, double_sixes, lines_27
from .perms import Perm
from .plane import (
    REF6,
    Config6,
    linear_system,
    projective_equivalence,
    random_general_config,
)
from .report import CheckResult, Report
from .torsion import certify_pencil

__all__ = ["verify_suite", "verify_report"]

# The pencil of conic-triple products is the concrete stand-in for the
# abstract one-parameter family of torsion candidates; certificates about
# its members are the only way this toolkit touches that family.
MODULI_NOTE = (
    "the certified pencil stands in for the abstract one-parameter family "
    "of torsion candidates attached to a configuration"
)


def _trial_rng(seed: int, check: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{check}:{index}")


def _sample_config(seed: int, check: str, index: int) -> Config6:
    return random_general_config(_trial_rng(seed, check, index))


def _check_dimensions(seed: int, trials: int) -> CheckResult:
    configs = [REF6] + [_sample_config(seed, "dims", t) for t in range(trials)]
    bad = []
    for n, c in enumerate(configs):
        conditions = [(p, 2) for p in c.points]
        d6 = linear_system(6, conditions).dimension
        d5 = linear_system(5, conditions).dimension
        if (d6, d5) != (10, 3):
            bad.append({"config": n, "sextic": d6, "quintic": d5})
    return CheckResult(
        "linear-system-dimensions",
        f"six double points cut the sextic system to dimension 10 and the "
        f"quintic system to dimension 3 on {len(configs)} configurations",
        not bad,
        {"configurations": len(configs), "failures": bad},
    )


def _check_lines(_: int, __: int) -> CheckResult:
    lines = lines_27()
    pairings = sorted(
        {lines[i].intersect(lines[j]) for i in range(len(lines)) for j in range(i + 1, len(lines))}
    )
    ok = len(lines) == 27 and all(l.intersect(l) == -1 for l in lines) and pairings == [0, 1]
    return CheckResult(
        "line-catalog",
        "the blown-up plane carries exactly 27 lines, self-intersection -1, "
        "meeting each other in 0 or 1 points",
        ok,
        {"count": len(lines), "pairwise_intersections": pairings},
    )


def _check_double_sixes(_: int, __: int) -> CheckResult:
    sixes = double_sixes()
    classical_first = sixes[0].a == E and sixes[0].b == F
    patterns = all(s.check() for s in sixes)
    dets = sorted({basis_determinant(s.a) for s in sixes} | {basis_determinant(s.b) for s in sixes})
    ok = len(sixes) == 36 and classical_first and patterns and dets == [-1, 1]
    return CheckResult(
        "double-six-catalog",
        "exactly 36 double sixes, led by the exceptional/conic pair, each "
        "with the complement-of-diagonal intersection pattern and a "
        "unimodular sixer basis",
        ok,
        {
            "count": len(sixes),
            "classical_first": classical_first,
            "intersection_patterns": patterns,
            "sixer_basis_determinants": dets,
        },
    )


def _check_involution(seed: int, trials: int) -> CheckResult:
    configs = [REF6] + [_sample_config(seed, "involution", t) for t in range(trials)]
    bad = []
    for n, c in enumerate(configs):
        assoc = second_model(c).associated
        back = second_model(assoc).associated
        if projective_equivalence(c, back, respect_labels=True) is None:
            bad.append(n)
    return CheckResult(
        "association-involution",
        f"contracting the exceptional conics twice returns the original "
        f"labeled configuration up to projectivity on {len(configs)} configurations",
        not bad,
        {"configurations": len(configs), "failures": bad},
    )


def _check_relation(seed: int, trials: int) -> CheckResult:
    n = max(trials, 20)
    configs = [REF6] + [_sample_config(seed, "relation", t) for t in range(n)]
    residuals = {variant: [] for variant in RELATION_VARIANTS}
    for c in configs:
        vec = coble_vector(c)
        for variant in RELATION_VARIANTS:
            residuals[variant].append(relation_residual(vec.values, variant))
    certified_ok = all(r == 0 for r in residuals[CERTIFIED_RELATION_VARIANT])
    other = next(v for v in RELATION_VARIANTS if v != CERTIFIED_RELATION_VARIANT)
    other_fails = any(r != 0 for r in residuals[other])
    return CheckResult(
        "generator-relation",
        f"the '{CERTIFIED_RELATION_VARIANT}' sign variant of the quartic relation "
        f"vanishes on all {len(configs)} sampled configurations and the "
        f"'{other}' variant does not",
        certified_ok and other_fails,
        {
            "certified_variant": CERTIFIED_RELATION_VARIANT,
            "configurations": len(configs),
            "certified_all_zero": certified_ok,
            "rejected_variant_nonzero_somewhere": other_fails,
        },
    )


def _check_action_table(seed: int, _: int) -> CheckResult:
    mismatched = []
    sign_ok = True
    for name, rows in REFERENCE_ACTION_ROWS.items():
        record = s6_action(representative_perm(name))
        computed = tuple(tuple(int(x) for x in row) for row in record.matrix.rows)
        if computed != rows:
            mismatched.append(name)
        if record.sign != representative_perm(name).sign():
            sign_ok = False
    rng = random.Random(f"{seed}:action-pairs")
    homomorphism_ok = True
    for _ in range(10):
        s = Perm(tuple(rng.sample(range(6), 6)))
        t = Perm(tuple(rng.sample(range(6), 6)))
        if s6_action(s * t).matrix.rows != (s6_action(s).matrix @ s6_action(t).matrix).rows:
            homomorphism_ok = False
            break
    chi = character_report()
    ok = not mismatched and sign_ok and homomorphism_ok and chi.irreducible and chi.differs_from_standard
    return CheckResult(
        "permutation-action",
        "the induced action on the degree-one generators matches the ten "
        "reference matrices, is a homomorphism, twists by the permutation "
        "sign, and has an irreducible character distinct from the standard one",
        ok,
        {
            "mismatched_classes": mismatched,
            "sign_matches_parity": sign_ok,
            "homomorphism_sampled": homomorphism_ok,
            "character": chi.to_json(),
        },
    )


def _check_sign_flip(seed: int, trials: int) -> CheckResult:
    configs = [REF6] + [_sample_config(seed, "signflip", t) for t in range(trials)]
    bad = []
    for n, c in enumerate(configs):
        if not schlaefli_sign_check(c).accepted:
            bad.append(n)
    return CheckResult(
        "association-sign-flip",
        f"the associated configuration scales the five degree-one generators "
        f"uniformly and negates the sixth accordingly on {len(configs)} configurations",
        not bad,
        {"configurations": len(configs), "failures": bad},
    )


def _check_torsion(seed: int, trials: int) -> CheckResult:
    n = min(max(trials // 10, 1), 3)
    configs = [REF6] + [_sample_config(seed, "torsion", t) for t in range(n)]
    results = []
    ok = True
    for c in configs:
        cert = certify_pencil(c)
        entry = {
            "accepted": cert.accepted,
            "member": list(cert.member) if cert.member else None,
            "rank_node_side": cert.rank_node_side.dimension if cert.rank_node_side else None,
            "rank_conic_side": cert.rank_conic_side.dimension if cert.rank_conic_side else None,
        }
        results.append(entry)
        ok = ok and cert.accepted
    return CheckResult(
        "torsion-pencil",
        f"the pencil of complementary conic-triple products certifies "
        f"nontrivial three-torsion on {len(configs)} configurations",
        ok,
        {"certificates": results},
    )


def _check_moduli_count(_: int, __: int) -> CheckResult:
    config_params = 6 * 2 - 8  # six plane points modulo projectivities
    invariant_params = 5 - 1  # the degree-one generator vector up to scale
    pencil_params = 2 - 1  # a pencil member up to scale
    total = config_params + invariant_params + pencil_params
    return CheckResult(
        "parameter-bookkeeping",
        "configuration, generator vector, and pencil member contribute "
        "4 + 4 + 1 = 9 parameters, the dimension of the moduli problem",
        total == 9,
        {
            "configuration": config_params,
            "generator_vector": invariant_params,
            "pencil_member": pencil_params,
            "total": total,
            "note": MODULI_NOTE,
        },
    )


def verify_suite(seed: int, trials: int) -> list[CheckResult]:
    """Run every verification check with sampling driven by ``seed``."""
    return [
        _check_dimensions(seed, trials),
        _check_lines(seed, trials),
        _check_double_sixes(seed, trials),
        _check_involution(seed, trials),
        _check_relation(seed, trials),
        _check_action_table(seed, trials),
        _check_sign_flip(seed, trials),
        _check_torsion(seed, trials),
        _check_moduli_count(seed, trials),
    ]


def verify_report(seed: int, trials: int) -> Report:
    checks = verify_suite(seed, trials)
    return Report("verify-paper", {"seed": seed, "trials": trials}, tuple(checks))
