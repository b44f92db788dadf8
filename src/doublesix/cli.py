"""Command-line front end emitting machine-readable certificates.

Every subcommand assembles a deterministic report (see ``report``):
exit code 0 means all checks passed, 1 means some check legitimately
failed, 2 means the invocation or input was malformed, or a result has
an integer too long to print.  Timing goes to stderr so report bytes
depend only on inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .association import ContractionError, exceptional_conics, second_model
from .coble import CERTIFIED_RELATION_VARIANT, coble_vector, relation_residual, y_basis
from .forms import TernaryForm
from .lattice import (
    E,
    F,
    PicClass,
    basis_determinant,
    blowdown_line_class,
    double_sixes,
    lines_27,
)
from .plane import REF6, Config6, is_general_position, projective_equivalence
from .report import CheckResult, Report
from .torsion import certify, certify_pencil
from .verify import MODULI_NOTE, _check_action_table, verify_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublesix",
        description=(
            "Exact certificates for six-point plane configurations: general "
            "position, exceptional conics, the association involution, the "
            "line and double-six catalogs, torsion pencils, and the bracket "
            "invariant calculus."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="path to a configuration JSON file")
    common.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    common.add_argument("--trials", type=int, default=20, help="number of sampled trials")
    common.add_argument("--output", help="write the JSON report to this path")
    common.add_argument("--json", action="store_true", help="print the JSON report to stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-position", parents=[common], help="general-position verdict")
    sub.add_parser("conics", parents=[common], help="the six exceptional conics")
    sub.add_parser(
        "second-model", parents=[common], help="association via contraction of the conics"
    )
    sub.add_parser("lattice", parents=[common], help="line and double-six catalogs")
    torsion = sub.add_parser(
        "torsion", parents=[common], help="three-torsion certificate for a sextic"
    )
    group = torsion.add_mutually_exclusive_group()
    group.add_argument(
        "--pencil",
        action="store_true",
        help="sweep the conic-product pencil (default)",
    )
    group.add_argument("--form", help="path to a sextic form JSON file to certify")
    sub.add_parser("coble", parents=[common], help="bracket generator vector and relation")
    sub.add_parser("action-table", parents=[common], help="signed permutation action")
    sub.add_parser("verify-paper", parents=[common], help="run the full verification suite")
    return parser


class InputError(Exception):
    """Malformed input file or configuration payload."""


def _load(path: str, noun: str, parse):
    """``parse`` of the JSON in ``path``; any failure is an ``InputError``
    that names the path and the noun ("configuration" or "form")."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid {noun} in {path}: invalid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"invalid {noun} in {path}: not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
        raise InputError(f"invalid {noun} in {path}: {exc}") from exc
    try:
        return parse(payload)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise InputError(f"invalid {noun} in {path}: {exc}") from exc


def _load_config(path: str | None) -> Config6:
    return REF6 if path is None else _load(path, "configuration", Config6.from_json)


def _cmd_check_position(args: argparse.Namespace) -> Report:
    config = _load_config(args.input)
    verdict = is_general_position(config)
    details: dict = {"witness": verdict.describe()}
    if verdict.collinear_triple is not None:
        details["collinear_triple"] = list(verdict.collinear_triple)
    if verdict.conic is not None:
        details["conic"] = verdict.conic.to_json()
    check = CheckResult(
        "general-position",
        "no three points collinear and no conic through all six",
        verdict.ok,
        details,
    )
    return Report("check-position", {"config": config.to_json()}, (check,))


def _cmd_conics(args: argparse.Namespace) -> Report:
    config = _load_config(args.input)
    checks = []
    try:
        conics = exceptional_conics(config)
    except ValueError as exc:  # DegenerateFiveTupleError among them
        checks.append(
            CheckResult(
                "exceptional-conics",
                "each five-point subset determines a unique conic",
                False,
                {"error": str(exc)},
            )
        )
        return Report("conics", {"config": config.to_json()}, tuple(checks))
    incidence_ok = all(
        (conics[i].eval(config.points[j].coords) == 0) == (j != i)
        for i in range(6)
        for j in range(6)
    )
    checks.append(
        CheckResult(
            "exceptional-conics",
            "six conics, the i-th through exactly the five points other than i",
            incidence_ok,
            {"conics": [f.to_json() for f in conics]},
        )
    )
    return Report("conics", {"config": config.to_json()}, tuple(checks))


def _cmd_second_model(args: argparse.Namespace) -> Report:
    config = _load_config(args.input)
    inputs = {"config": config.to_json()}
    verdict = is_general_position(config)
    if not verdict.ok:
        check = CheckResult(
            "general-position",
            "the second model requires a general-position configuration",
            False,
            {"witness": verdict.describe()},
        )
        return Report("second-model", inputs, (check,))
    checks = []
    try:
        realization = second_model(config)
    except ContractionError as exc:
        checks.append(
            CheckResult(
                "contraction",
                "the quintic net contracts each exceptional conic to a point",
                False,
                {"error": str(exc)},
            )
        )
        return Report("second-model", inputs, tuple(checks))
    checks.append(
        CheckResult(
            "quintic-dimension",
            "quintics double at five points and simple at the sixth form a net",
            len(realization.quintic_basis) == 3,
            {"dimension": len(realization.quintic_basis)},
        )
    )
    associated = realization.associated
    checks.append(
        CheckResult(
            "associated-general-position",
            "the contraction images are again in general position",
            is_general_position(associated).ok,
            {"associated": associated.to_json()},
        )
    )
    back = second_model(associated).associated
    checks.append(
        CheckResult(
            "involution",
            "associating twice returns the original labeled configuration "
            "up to projectivity",
            projective_equivalence(config, back, respect_labels=True) is not None,
            {},
        )
    )
    return Report("second-model", inputs, tuple(checks))


def _cmd_lattice(args: argparse.Namespace) -> Report:
    lines = lines_27()
    sixes = double_sixes()
    pairings = sorted(
        {lines[i].intersect(lines[j]) for i in range(len(lines)) for j in range(i + 1, len(lines))}
    )
    checks = [
        CheckResult(
            "line-catalog",
            "27 lines of self-intersection -1 meeting pairwise in 0 or 1",
            len(lines) == 27
            and all(l.intersect(l) == -1 for l in lines)
            and pairings == [0, 1],
            {"count": len(lines), "classes": [l.to_json() for l in lines]},
        ),
        CheckResult(
            "double-six-catalog",
            "36 double sixes led by the exceptional/conic pair",
            len(sixes) == 36
            and sixes[0].a == E
            and sixes[0].b == F
            and all(s.check() for s in sixes),
            {"count": len(sixes)},
        ),
        CheckResult(
            "second-model-line-class",
            "contracting the conic sixer exhibits the quintic line class",
            blowdown_line_class(F) == PicClass(5, (-2, -2, -2, -2, -2, -2))
            and {basis_determinant(s.a) for s in sixes} <= {1, -1},
            {"line_class": blowdown_line_class(F).to_json()},
        ),
    ]
    return Report("lattice", {}, tuple(checks))


def _cmd_torsion(args: argparse.Namespace) -> Report:
    config = _load_config(args.input)
    inputs: dict = {"config": config.to_json()}
    if args.form:
        form = _load(args.form, "form", TernaryForm.from_json)
        if form.is_zero:
            raise InputError(f"invalid form in {args.form}: the zero form is not a sextic")
        if form.degree != 6:
            raise InputError(
                f"invalid form in {args.form}: expected degree 6, got degree {form.degree}"
            )
        inputs["form"] = form.to_json()
        cert = certify(config, form)
        description = "the supplied sextic certifies nontrivial three-torsion"
    else:
        cert = certify_pencil(config)
        description = "some member of the conic-product pencil certifies nontrivial three-torsion"
    details = cert.to_json()
    details["note"] = MODULI_NOTE
    check = CheckResult("torsion-certificate", description, cert.accepted, details)
    return Report("torsion", inputs, (check,))


def _cmd_coble(args: argparse.Namespace) -> Report:
    config = _load_config(args.input)
    vec = coble_vector(config)
    ys = y_basis(vec.values)
    residual = relation_residual(vec.values)
    zero_coordinates = [i for i, v in enumerate(vec.values) if v == 0]
    checks = [
        CheckResult(
            "generator-evaluation",
            "the six bracket generators evaluate on the configuration",
            True,
            {
                "x": [str(v) for v in vec.values],
                "y": [str(v) for v in ys],
                "zero_coordinates": zero_coordinates,
            },
        ),
        CheckResult(
            "quartic-relation",
            f"the '{CERTIFIED_RELATION_VARIANT}' variant of the quartic relation vanishes",
            residual == 0,
            {"variant": CERTIFIED_RELATION_VARIANT, "residual": str(residual)},
        ),
    ]
    return Report("coble", {"config": config.to_json()}, tuple(checks))


def _cmd_action_table(args: argparse.Namespace) -> Report:
    check = _check_action_table(args.seed, args.trials)
    return Report("action-table", {"seed": args.seed}, (check,))


def _cmd_verify_paper(args: argparse.Namespace) -> Report:
    return verify_report(args.seed, args.trials)


_HANDLERS = {
    "check-position": _cmd_check_position,
    "conics": _cmd_conics,
    "second-model": _cmd_second_model,
    "lattice": _cmd_lattice,
    "torsion": _cmd_torsion,
    "coble": _cmd_coble,
    "action-table": _cmd_action_table,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.trials < 1:
        print("error: --trials must be at least 1", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        report = _HANDLERS[args.command](args)
        elapsed = time.perf_counter() - started
        rendered = report.render_json()
        text = rendered if args.json else report.render_text()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() of an integer beyond the interpreter's digit limit; accepted
        # coordinates stay under it, but a result built from them may not.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has an integer of more than {limit} digits, "
              "the limit for printing one", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
