"""Closed-loop benchmark of the doublesix certificates.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pencil-certify --seed 1 --seconds 36 --trace 0

One client sends the next request only after the previous one returns.
With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the requests untraced for half of ``--seconds``,
then the same requests again with timing wrappers installed, and prints
the per-layer metrics.  Every result is checked against its known
verdict.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh processes that repeat the set-up, half before and half after the
#: timed loop so they sample more than one moment of a noisy machine;
#: setup_s is the median over them and the measuring process.
SETUP_PROBES = 4
#: Tail percentiles tried from the highest down; one is reported only when
#: at least TAIL_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe", action="store_true",
        help="only time the set-up and print its seconds (used internally)",
    )
    return ap.parse_args(argv)


def set_up(workload_name: str, seed: int):
    """Import the library, build the seeded requests and fill lazy caches.

    Returns (seconds taken, workload module, workload, requests).
    """
    start = perf_counter()
    import workloads  # imports doublesix

    workload = workloads.WORKLOADS[workload_name]
    requests = workload.requests(seed)
    if workload.warm is not None:
        workload.warm()
    return perf_counter() - start, workloads, workload, requests


@dataclass
class Pass:
    """Outcome of one closed-loop pass over the request list."""

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0


def closed_loop(workload, requests, digests: dict, run, seconds=None, count=None) -> Pass:
    """Send requests in list order, wrapping around, one at a time.

    Stops once ``seconds`` have passed (at least one request is sent) or
    after ``count`` requests.  A request fails when it raises, when its
    result has the wrong verdict, or when its digest differs from an
    earlier computation of the same request.
    """
    out = Pass()
    start = perf_counter()
    i = 0
    while (i < count) if count is not None else (i == 0 or perf_counter() - start < seconds):
        index = i % len(requests)
        t0 = perf_counter()
        try:
            result = run(*requests[index].args)
        except Exception:
            out.latencies.append(perf_counter() - t0)
            out.failures.append(f"request {index} raised:\n{traceback.format_exc()}")
            i += 1
            continue
        out.latencies.append(perf_counter() - t0)
        problem = workload.check(result)
        digest = workload.digest(result)
        if problem is None and digests.setdefault(requests[index].key, digest) != digest:
            problem = "result digest differs from an earlier computation of this request"
        if problem is not None:
            out.failures.append(f"request {index}: {problem}")
        i += 1
    out.wall = perf_counter() - start
    return out


def tail_latency(latencies: list[float]):
    """(percentile, value, samples beyond) for the highest percentile with
    at least TAIL_BEYOND samples beyond it, or None."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(n * p / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def setup_probe_seconds(workload: str, seed: int, probes: int) -> list[float]:
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def load_ledger(path: Path) -> dict:
    """Result digests of earlier runs of this workload, by request key."""
    return json.loads(path.read_text()) if path.is_file() else {}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, setup_s, workload, requests, digests):
    """One untraced pass; returns it and the end-to-end metrics."""
    setups = [setup_s] + setup_probe_seconds(args.workload, args.seed, SETUP_PROBES // 2)
    run = closed_loop(workload, requests, digests, workload.run, seconds=args.seconds)
    setups += setup_probe_seconds(args.workload, args.seed, SETUP_PROBES - SETUP_PROBES // 2)
    n = len(run.latencies)
    print(f"requests {n} in {run.wall:.3f} s; setup samples " + " ".join(f"{s:.4f}" for s in setups))
    tail = tail_latency(run.latencies)
    if tail is None:
        print(f"latency_tail_s not reported: {n} requests leave fewer than "
              f"{TAIL_BEYOND} beyond p{TAIL_PERCENTILES[-1]:g}")
    else:
        p, value, beyond = tail
        print(f"latency_tail_s {value:.6g} s at p{p:g} ({n} samples, {beyond} beyond)")
    metrics = {
        "requests_per_s": metric(n / run.wall, "1/s"),
        "latency_p50_s": metric(statistics.median(run.latencies), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return [run], metrics


def per_layer(args, workload, requests, digests):
    """An untraced pass for half the time, then the same requests traced.

    Returns both passes and the per-layer metrics; writes the spans.
    """
    import tracer as tracing

    untraced = closed_loop(workload, requests, digests, workload.run, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = closed_loop(
            workload, requests, digests, tracer.traced_request(workload.run),
            count=len(untraced.latencies),
        )
    finally:
        tracer.uninstall()
    layer = tracing.layer_metrics(tracer.spans, len(traced.latencies))
    layer["trace.overhead_ratio"] = (traced.wall / untraced.wall, "ratio")
    for layer_name, share in tracing.layer_shares(tracer.spans).items():
        print(f"share {layer_name} {100 * share:.1f} %")
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"traced {len(traced.latencies)} requests; {len(tracer.spans)} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    return [untraced, traced], {name: metric(v, u) for name, (v, u) in layer.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "doublesix" / "__init__.py").is_file():
        print(f"perfbench: no doublesix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    setup_s, workloads, workload, requests = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(setup_s)
        return 0
    if args.seconds is None or args.seconds <= 0:
        print("perfbench: --seconds must be a positive number", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    ledger_path = RESULTS / f"digests-{args.workload}.json"
    digests = load_ledger(ledger_path)
    known = dict(digests)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  requests in list {len(requests)}")
    print(f"input_digest {workloads.input_digest(requests)}")

    if args.trace == 0:
        passes, metrics = end_to_end(args, setup_s, workload, requests, digests)
    else:
        passes, metrics = per_layer(args, workload, requests, digests)

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        print(f"perfbench: {f}", file=sys.stderr)
    if digests != known:
        ledger_path.write_text(json.dumps(digests, sort_keys=True))
    print(f"failed_ratio {len(failures) / attempted:.6g} ratio ({len(failures)} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
