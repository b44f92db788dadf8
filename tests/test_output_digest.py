"""One SHA-256 over library outputs that the report pins of ``test_cli``
do not cover: the smoothness verdicts and screen hints, projective
stabilizers, and associated configurations.

The pin was computed before the points, frames and node audits of these
routines moved to integer coordinates, so any change to a verdict, an
attempt count, a detail, a node order, a route, a hint, a stabilizer
matrix or an associated point changes the digest.
"""

import hashlib
import json
import random

from test_plane import SYMMETRIC
from test_torsion import seventh_double_point_case, smooth_audit_cases

from doublesix.association import second_model
from doublesix.plane import REF6, projective_stabilizer, random_general_config
from doublesix.torsion import smooth_elsewhere, smooth_screen

OUTPUT_DIGEST = "b075045ead9e49649a5e8c5285c3b69bb59c3059a09b1983f121d3af35f2d571"


def smoothness_records():
    cases = list(smooth_audit_cases())
    for seed in (0, 4, 14, 16):
        config, _, form = seventh_double_point_case(seed)
        cases.append((config, form))
    records = []
    for config, form in cases:
        v = smooth_elsewhere(form, config.points)
        hint = smooth_screen(form, config.points)
        records.append([v.certified, v.attempts, v.detail, v.node_orders, v.route, hint])
    return records


def stabilizer_records():
    return [
        [[list(sigma.images), [[str(x) for x in row] for row in g.rows]]
         for sigma, g in projective_stabilizer(c)]
        for c in (REF6, SYMMETRIC)
    ]


def association_records():
    rng = random.Random("output-digest-association")
    configs = [REF6] + [random_general_config(rng, bound=20) for _ in range(3)]
    return [second_model(c).associated.to_json() for c in configs]


def output_digest():
    records = {
        "smoothness": smoothness_records(),
        "stabilizers": stabilizer_records(),
        "associated": association_records(),
    }
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_smoothness_stabilizer_and_association_outputs_match_the_pin():
    assert output_digest() == OUTPUT_DIGEST
