"""Span tracing installed from outside around the library's public functions.

Each target is wrapped once and the wrapper is bound in every loaded
``doublesix`` module namespace that binds the original, so calls between
layers (``torsion.linear_system``, ``association.linear_system``, ...)
are recorded too.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# (module, attribute, span name).  "Class.method" names a method.
TARGETS = (
    ("doublesix.plane", "linear_system", "plane.linear_system"),
    ("doublesix.plane", "chart_quadratic_part", "plane.chart_quadratic_part"),
    ("doublesix.plane", "is_general_position", "plane.is_general_position"),
    ("doublesix.plane", "projective_equivalence", "plane.projective_equivalence"),
    ("doublesix.plane", "tangent_cone", "plane.tangent_cone"),
    ("doublesix.plane", "conic_through", "plane.conic_through"),
    ("doublesix.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("doublesix.linalg", "determinant", "linalg.determinant"),
    ("doublesix.linalg", "inverse", "linalg.inverse"),
    ("doublesix.forms", "TernaryForm.substitute", "forms.substitute"),
    ("doublesix.forms", "resultant_eliminate", "forms.resultant_eliminate"),
    ("doublesix._poly", "pgcd", "poly.pgcd"),
    ("doublesix.torsion", "certify_pencil", "torsion.certify_pencil"),
    ("doublesix.torsion", "certify", "torsion.certify"),
    ("doublesix.torsion", "node_profile", "torsion.node_profile"),
    ("doublesix.torsion", "torsion_rank", "torsion.torsion_rank"),
    ("doublesix.torsion", "smooth_elsewhere", "torsion.smooth_elsewhere"),
    ("doublesix.torsion", "smooth_screen", "torsion.smooth_screen"),
    ("doublesix.association", "exceptional_conics", "association.exceptional_conics"),
    ("doublesix.association", "second_model", "association.second_model"),
    ("doublesix.coble", "coble_vector", "coble.coble_vector"),
    ("doublesix.coble", "relation_residual", "coble.relation_residual"),
    ("doublesix.coble", "schlaefli_sign_check", "coble.schlaefli_sign_check"),
    ("doublesix.coble", "s6_action", "coble.s6_action"),
    ("doublesix.lattice", "lines_27", "lattice.lines_27"),
    ("doublesix.lattice", "double_sixes", "lattice.double_sixes"),
)

REQUEST = "request"


def _torsion_side(args: tuple, kwargs: dict) -> str:
    return args[1] if len(args) > 1 else kwargs["side"]


#: Span names that carry an argument: torsion_rank is split by side.
NAME_SUFFIX: dict[str, Callable[[tuple, dict], str]] = {
    "torsion.torsion_rank": _torsion_side,
}

#: Result fields kept on a span, for counts the layer reports itself.
RESULT_NOTE: dict[str, Callable[[Any], Any]] = {
    "torsion.smooth_elsewhere": lambda verdict: verdict.attempts,
    "torsion.smooth_screen": lambda hint: hint is False,
}


class Tracer:
    """Records spans (name, parent, start, end, request, note) in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        suffix = NAME_SUFFIX.get(name)
        note = RESULT_NOTE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            label = f"{name}.{suffix(args, kwargs)}" if suffix else name
            span = [label, stack[-1] if stack else -1, 0.0, 0.0, self._request, None]
            spans.append(span)
            stack.append(sid)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every doublesix namespace that binds it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "doublesix" or n.startswith("doublesix."))
        ]
        for module_name, attr, name in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def traced_request(self, run: Callable) -> Callable:
        """``run`` wrapped in a top-level span that starts a new request id."""
        inner = self._wrap(run, REQUEST)

        def request(*args):
            self._request += 1
            return inner(*args)

        return request

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, (name, parent, start, end, request, note) in enumerate(self.spans):
                out.write(json.dumps([sid, parent, name, start, end, request, note]) + "\n")


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, summed notes.

    Self time is a span's duration minus its children's durations (spans
    of one thread nest, so children never overlap).  Inclusive seconds
    skip spans nested in a span of the same name, so they are not counted
    twice.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "note": 0}
    )
    for sid, (name, parent, start, end, _, note) in enumerate(spans):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += end - start - child[sid]
        if note is not None:
            t["note"] += note
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            t["s"] += end - start
    return totals


def parent_counts(spans: list[list], name: str, parent_name: str) -> int:
    """How many ``name`` spans sit directly under a ``parent_name`` span."""
    return sum(1 for s in spans if s[0] == name and s[1] >= 0 and spans[s[1]][0] == parent_name)


#: Per-layer metrics: (metric, unit, span name, field).  Values are per request.
LAYER_METRICS = (
    ("plane.linear_system.calls", "calls/req", "plane.linear_system", "calls"),
    ("plane.linear_system.self_s", "s/req", "plane.linear_system", "self_s"),
    ("plane.chart_quadratic_part.s", "s/req", "plane.chart_quadratic_part", "s"),
    ("torsion.node_profile.s", "s/req", "torsion.node_profile", "s"),
    ("linalg.kernel_basis.calls", "calls/req", "linalg.kernel_basis", "calls"),
    ("linalg.kernel_basis.s", "s/req", "linalg.kernel_basis", "s"),
    ("linalg.determinant.s", "s/req", "linalg.determinant", "s"),
    ("forms.substitute.calls", "calls/req", "forms.substitute", "calls"),
    ("forms.substitute.s", "s/req", "forms.substitute", "s"),
    ("forms.resultant_eliminate.s", "s/req", "forms.resultant_eliminate", "s"),
    ("poly.pgcd.s", "s/req", "poly.pgcd", "s"),
    ("torsion.torsion_rank.E.self_s", "s/req", "torsion.torsion_rank.E", "self_s"),
    ("torsion.torsion_rank.F.self_s", "s/req", "torsion.torsion_rank.F", "self_s"),
    ("torsion.smooth_elsewhere.s", "s/req", "torsion.smooth_elsewhere", "s"),
    ("torsion.smooth_elsewhere.frames", "frames/req", "torsion.smooth_elsewhere", "note"),
    ("torsion.smooth_screen.calls", "calls/req", "torsion.smooth_screen", "calls"),
    ("torsion.smooth_screen.s", "s/req", "torsion.smooth_screen", "s"),
    ("association.second_model.calls", "calls/req", "association.second_model", "calls"),
    ("association.second_model.s", "s/req", "association.second_model", "s"),
    ("association.exceptional_conics.calls", "calls/req", "association.exceptional_conics", "calls"),
    ("coble.coble_vector.s", "s/req", "coble.coble_vector", "s"),
    ("coble.schlaefli_sign_check.s", "s/req", "coble.schlaefli_sign_check", "s"),
    ("coble.s6_action.s", "s/req", "coble.s6_action", "s"),
    ("lattice.double_sixes.s", "s/req", "lattice.double_sixes", "s"),
)


def layer_metrics(spans: list[list], requests: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the traced requests, as (value, unit)."""
    totals = layer_totals(spans)
    out = {}
    for metric, unit, name, field in LAYER_METRICS:
        out[metric] = (totals[name][field] / requests if name in totals else 0, unit)
    screens = totals.get("torsion.smooth_screen")
    out["torsion.smooth_screen.prune_ratio"] = (
        screens["note"] / screens["calls"] if screens else 0, "ratio"
    )
    pencils = totals.get("torsion.certify_pencil")
    members = parent_counts(spans, "torsion.node_profile", "torsion.certify_pencil")
    out["torsion.pencil_members"] = (
        members / pencils["calls"] if pencils else 0, "members/cert"
    )
    return out


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Share of request time spent in each module's own code (self time).

    The benchmark's own share is the self time of the request spans.
    """
    totals = layer_totals(spans)
    request_time = totals[REQUEST]["s"] if REQUEST in totals else 0.0
    shares: dict[str, float] = defaultdict(float)
    for name, t in totals.items():
        shares[name.split(".")[0]] += t["self_s"]
    return {layer: s / request_time for layer, s in sorted(shares.items())} if request_time else {}
