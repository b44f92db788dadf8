"""Acceptance ledger: one test per published criterion, with budgets.

Each test performs the full check, asserts the runtime budget, and
registers a one-line verdict that the terminal summary prints at the
end of the run.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from doublesix.association import second_model
from doublesix.coble import (
    CERTIFIED_RELATION_VARIANT,
    REFERENCE_ACTION_ROWS,
    character_report,
    coble_vector,
    relation_residual,
    representative_perm,
    s6_action,
    schlaefli_sign_check,
)
from doublesix.lattice import E, F, double_sixes, lines_27
from doublesix.linalg import Matrix, determinant, inverse
from doublesix.perms import Perm, all_perms
from doublesix.plane import REF6, linear_system, projective_equivalence, random_general_config
from doublesix.torsion import (
    certify_pencil,
    conic_product_pencil,
    node_profile,
    random_nodal_sextic,
    torsion_rank,
)

from conftest import record_criterion


def double_points(config):
    return [(p, 2) for p in config.points]


def random_transform(rng, bound=4):
    while True:
        g = Matrix([[Fraction(rng.randint(-bound, bound)) for _ in range(3)] for _ in range(3)])
        if determinant(g) != 0:
            return g


def test_criterion_1_dimension_counts():
    started = time.perf_counter()
    rng = random.Random("acceptance:dimensions")
    for _ in range(20):
        config = random_general_config(rng, bound=9)
        assert len(linear_system(6, double_points(config)).basis) == 10
        assert len(linear_system(5, double_points(config)).basis) == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    record_criterion(
        f"criterion 1: PASS - 20 random configurations, sextic system dimension 10 "
        f"and quintic system dimension 3 ({elapsed:.1f}s)"
    )


def test_criterion_2_lattice_catalog():
    started = time.perf_counter()
    lines = lines_27()
    assert len(lines) == len(set(lines)) == 27
    sixes = double_sixes()
    assert len(sixes) == 36
    assert any(s.a == E and s.b == F for s in sixes)
    assert all(s.check() for s in sixes)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    record_criterion(
        f"criterion 2: PASS - 27 lines and 36 double sixes including the "
        f"exceptional/conic pair ({elapsed:.1f}s)"
    )


def test_criterion_3_torsion_flagship():
    started = time.perf_counter()
    rng = random.Random("acceptance:torsion")
    configs = [REF6] + [random_general_config(rng, bound=9) for _ in range(10)]
    worst = 0.0
    for config in configs:
        config_started = time.perf_counter()
        cert = certify_pencil(config)
        config_elapsed = time.perf_counter() - config_started
        worst = max(worst, config_elapsed)
        assert config_elapsed < 60.0
        assert cert.accepted
        assert cert.rank_node_side.dimension == 2
        assert cert.rank_conic_side.dimension == 2
        assert cert.smoothness.certified
    trivial = 0
    while trivial < 10:
        config = configs[1 + trivial % 10]
        form = random_nodal_sextic(config, rng)
        profile = node_profile(config, form)
        if not profile.ok:
            continue
        assert torsion_rank(profile, "E").dimension == 1
        trivial += 1
    elapsed = time.perf_counter() - started
    record_criterion(
        f"criterion 3: PASS - 11 pencils accepted with rank 2 on both sides "
        f"(worst {worst:.1f}s per configuration), 10 random nodal sextics at "
        f"rank 1 ({elapsed:.1f}s)"
    )


def test_criterion_4_relation_oracle():
    started = time.perf_counter()
    rng = random.Random("acceptance:relation")
    zero = {"plus": 0, "minus": 0}
    nonzero = {"plus": 0, "minus": 0}
    for _ in range(100):
        values = coble_vector(random_general_config(rng, bound=9)).values
        for variant in ("plus", "minus"):
            if relation_residual(values, variant) == 0:
                zero[variant] += 1
            else:
                nonzero[variant] += 1
    assert zero[CERTIFIED_RELATION_VARIANT] == 100
    other = "minus" if CERTIFIED_RELATION_VARIANT == "plus" else "plus"
    assert nonzero[other] >= 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    record_criterion(
        f"criterion 4: PASS - variant '{CERTIFIED_RELATION_VARIANT}' vanished on "
        f"100/100 configurations, variant '{other}' failed on "
        f"{nonzero[other]} ({elapsed:.1f}s)"
    )


def test_criterion_5_symmetric_group_table():
    started = time.perf_counter()
    for name, rows in REFERENCE_ACTION_ROWS.items():
        record = s6_action(representative_perm(name))
        assert record.matrix.rows == tuple(tuple(Fraction(a) for a in row) for row in rows)
    rng = random.Random("acceptance:pairs")
    for _ in range(50):
        s = Perm(tuple(rng.sample(range(6), 6)))
        t = Perm(tuple(rng.sample(range(6), 6)))
        assert s6_action(s * t).matrix.rows == (s6_action(s).matrix @ s6_action(t).matrix).rows
    for perm in all_perms():
        assert s6_action(perm).sign == perm.sign()
    report = character_report()
    assert report.norm == 1 and report.irreducible
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    record_criterion(
        f"criterion 5: PASS - ten reference rows, 50 homomorphism pairs, sign "
        f"twist on all 720 permutations, character norm 1 ({elapsed:.1f}s)"
    )


def test_criterion_6_association():
    started = time.perf_counter()
    rng = random.Random("acceptance:association")
    for _ in range(20):
        config = random_general_config(rng, bound=9)
        back = second_model(second_model(config).associated).associated
        assert projective_equivalence(config, back, respect_labels=True) is not None
    for _ in range(50):
        config = random_general_config(rng, bound=9)
        assert schlaefli_sign_check(config).accepted
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    record_criterion(
        f"criterion 6: PASS - involution on 20 configurations, sign flip on 50 "
        f"({elapsed:.1f}s)"
    )


def test_criterion_7_covariance_suite():
    started = time.perf_counter()
    rng = random.Random("acceptance:covariance")
    base_vector = coble_vector(REF6)
    for _ in range(20):
        g = random_transform(rng)
        d = determinant(g)
        moved = coble_vector(REF6.apply(g))
        assert moved.degree_one == tuple(d * d * x for x in base_vector.degree_one)
        assert moved[5] == d**4 * base_vector[5]
        factors = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(6)]
        scaled = coble_vector(REF6.rescale(factors))
        prod = Fraction(1)
        for f in factors:
            prod *= f
        assert scaled.degree_one == tuple(prod * x for x in base_vector.degree_one)
        assert scaled[5] == prod * prod * base_vector[5]
    member = conic_product_pencil(REF6).member(1, 1)
    base_rank = torsion_rank(node_profile(REF6, member), "E").dimension
    base_dims = (
        len(linear_system(6, double_points(REF6)).basis),
        len(linear_system(5, double_points(REF6)).basis),
    )
    assert base_rank == 2 and base_dims == (10, 3)
    for index in range(20):
        g = random_transform(rng)
        moved_config = REF6.apply(g)
        moved_member = member.substitute(inverse(g))
        profile = node_profile(moved_config, moved_member)
        assert profile.ok
        assert torsion_rank(profile, "E").dimension == base_rank
        if index % 5 == 0:
            assert torsion_rank(profile, "F").dimension == base_rank
        assert len(linear_system(6, double_points(moved_config)).basis) == base_dims[0]
        assert len(linear_system(5, double_points(moved_config)).basis) == base_dims[1]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    record_criterion(
        f"criterion 7: PASS - generator covariance, torsion rank and dimension "
        f"invariance on 20 transports each ({elapsed:.1f}s)"
    )


def test_criterion_8_deterministic_reports():
    started = time.perf_counter()
    argv = [
        sys.executable,
        "-m",
        "doublesix.cli",
        "verify-paper",
        "--seed",
        "11",
        "--trials",
        "2",
        "--json",
    ]
    first = subprocess.run(argv, capture_output=True, timeout=300)
    second = subprocess.run(argv, capture_output=True, timeout=300)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["summary"]["status"] == "pass"
    assert payload["summary"]["total"] == 9
    elapsed = time.perf_counter() - started
    record_criterion(
        f"criterion 8: PASS - fixed-seed verification reports byte-identical "
        f"across two runs ({elapsed:.1f}s)"
    )
