"""Tests of the benchmark itself, with one or two requests per run."""

from __future__ import annotations

import bisect
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())

#: Input digests for seed 0.  They change only when the benchmark's own
#: generator changes, never with library internals.
SEED0_DIGESTS = {
    "pencil-certify": "b943cf17f46890d7796f694d8bad44a4f12673cf33fdb2de61fea5e811008e05",
    "nodal-reject": "532651ffff44efa98b8e896709e700deb9d7ed7bf6b832ad091db9bf578df221",
    "invariant-sweep": "bfdebc3a2e0620250a96ebd174632e1573afd6ccf2c86870604ed6e70d44d7fa",
}


@pytest.fixture
def checkout(tmp_path):
    """A copy of the benchmark beside the library sources, so results stay in tmp."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    return tmp_path


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def run_workload(root: Path, workload: str, trace: int) -> tuple[list[str], dict]:
    (root / "src").symlink_to(REPO / "src")
    proc = bench(root, "--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_names_in_spec_are_valid():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(n[0].isalnum() and len(n) <= 64 for n in names)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed(checkout, trace, section):
    lines, result = run_workload(checkout, "invariant-sweep", trace)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0] for line in lines[:-1]}
    assert set(expected) <= printed
    assert "failed_ratio" in printed and "input_digest" in printed
    if trace == 0:
        assert "latency_tail_s" in printed


def test_traced_pencil_records_calls_across_layers(checkout):
    _, result = run_workload(checkout, "pencil-certify", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # REF6 is the first request: two linear_system(6) calls per certify,
    # the prime screen twice for the accepted member, four frames.
    assert m["plane.linear_system.calls"] == 2
    assert m["torsion.smooth_screen.calls"] == 2
    assert m["torsion.smooth_elsewhere.frames"] == 4
    assert m["torsion.pencil_members"] == 1
    assert m["torsion.torsion_rank.F.self_s"] > 0 and m["poly.pgcd.s"] > 0
    assert m["association.second_model.calls"] == 0
    assert result["attempted"] == 2 and result["correct"]


def test_bare_directory_fails_without_result(checkout):
    proc = bench(checkout, "--workload", "pencil-certify", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_verdict_counts_as_failure():
    nodal = workloads.WORKLOADS["nodal-reject"]
    pencil = workloads.WORKLOADS["pencil-certify"]
    requests = nodal.requests(0)[:1]
    result = run.closed_loop(pencil, requests, {}, nodal.run, count=1)
    assert len(result.latencies) == 1 and len(result.failures) == 1
    assert "expected (True, 2, 2, True)" in result.failures[0]


def test_changed_digest_and_exception_count_as_failures():
    sweep = workloads.WORKLOADS["invariant-sweep"]
    requests = sweep.requests(0)[:1]
    digests: dict = {}
    assert run.closed_loop(sweep, requests, digests, sweep.run, count=1).failures == []
    assert run.closed_loop(sweep, requests, digests, sweep.run, count=1).failures == []
    digests[requests[0].key] = "0" * 64
    assert len(run.closed_loop(sweep, requests, digests, sweep.run, count=1).failures) == 1

    def boom(*args):
        raise ZeroDivisionError

    assert "raised" in run.closed_loop(sweep, requests, {}, boom, count=2).failures[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_input_digest_is_stable(name):
    w = workloads.WORKLOADS[name]
    first = workloads.input_digest(w.requests(0))
    assert first == workloads.input_digest(w.requests(0))
    assert first != workloads.input_digest(w.requests(1))
    assert first == SEED0_DIGESTS[name]


def test_own_conics_match_the_library():
    from doublesix import association
    from doublesix.forms import TernaryForm

    for d in workloads.general_draws(random.Random(3), 8):
        theirs = association.exceptional_conics(d.config)
        for mine, lib in zip(d.conics, theirs):
            form = TernaryForm(2, dict(zip(workloads.CONIC_MONOMIALS, mine)))
            assert form.canonical() == lib
    for r in workloads.nodal_requests(random.Random(4), 2):
        config, form = r.args
        conics = association.exceptional_conics(config)
        g = TernaryForm.zero(6)
        for k, (a, b, c) in zip(r.record["coefficients"], workloads.CONIC_TRIPLES):
            g = g + (conics[a] * conics[b] * conics[c]).scale(k)
        assert g == form


def test_draws_are_stratified_by_conic_height():
    draws = workloads.general_draws(random.Random(5), 20)
    strata = [bisect.bisect(workloads.HEIGHT_CUTS, workloads.conic_height(d.conics)) for d in draws]
    assert strata == list(workloads.STRATUM_ORDER) + list(workloads.STRATUM_ORDER[:4])
    assert strata[:4] == [0, 8, 4, 12]


def test_tail_needs_ten_samples_beyond():
    assert run.tail_latency([float(i) for i in range(39)]) is None
    assert run.tail_latency([float(i) for i in range(40)]) == (75.0, 29.0, 10)
    p, value, beyond = run.tail_latency([float(i) for i in range(100)])
    assert (p, value, beyond) == (90.0, 89.0, 10)
    p, value, beyond = run.tail_latency([float(i) for i in range(250)])
    assert (p, beyond) == (95.0, 12)


def test_self_time_subtracts_children():
    # request [0, 10] > a [1, 5] > b [2, 3]; a second a [6, 7] under request.
    spans = [
        ["request", -1, 0.0, 10.0, 0, None],
        ["a", 0, 1.0, 5.0, 0, None],
        ["b", 1, 2.0, 3.0, 0, None],
        ["a", 0, 6.0, 7.0, 0, None],
    ]
    totals = tracer.layer_totals(spans)
    assert totals["request"]["self_s"] == 5.0
    assert totals["a"] == {"calls": 2, "s": 5.0, "self_s": 4.0, "note": 0}
    assert totals["b"]["self_s"] == 1.0


def test_wrappers_are_removed_after_tracing():
    from doublesix import association, forms, plane, torsion

    before = (plane.linear_system, torsion.linear_system, association.linear_system,
              forms.TernaryForm.substitute)
    t = tracer.Tracer()
    t.install()
    try:
        assert torsion.linear_system is plane.linear_system is association.linear_system
        assert torsion.linear_system is not before[0]
        plane.linear_system(1, [])
    finally:
        t.uninstall()
    assert (plane.linear_system, torsion.linear_system, association.linear_system,
            forms.TernaryForm.substitute) == before
    assert [s[0] for s in t.spans] == ["plane.linear_system"]
