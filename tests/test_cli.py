"""Exit codes, report bytes, and input handling of the command line."""

import hashlib
import json

import pytest

from doublesix import cli
from doublesix.cli import main
from doublesix.plane import REF6
from doublesix.report import SCHEMA
from doublesix.torsion import certify_pencil, conic_product_pencil

COLLINEAR_PAYLOAD = {
    "points": [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["1", "1", "0"],
        ["1", "1", "1"],
        ["1", "2", "3"],
        ["2", "5", "1"],
    ]
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_position_passes_on_the_default_configuration(capsys):
    code, out, err = run(capsys, ["check-position", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == SCHEMA
    assert data["command"] == "check-position"
    assert data["summary"]["status"] == "pass"
    assert err.startswith("elapsed:")


def test_check_position_reports_the_collinear_witness(tmp_path, capsys):
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(COLLINEAR_PAYLOAD))
    code, out, _ = run(capsys, ["check-position", "--input", str(path), "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["summary"]["status"] == "fail"
    check = data["checks"][0]
    assert check["status"] == "fail"
    assert check["details"]["collinear_triple"] == [1, 2, 3]


def test_torsion_on_a_collinear_configuration_names_the_witness(tmp_path, capsys):
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(COLLINEAR_PAYLOAD))
    code, out, _ = run(capsys, ["torsion", "--input", str(path), "--json"])
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["status"] == "fail"
    assert check["details"]["reasons"] == [
        "configuration is not in general position: points 1, 2, 3 are collinear"
    ]


def test_malformed_json_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(capsys, ["check-position", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert "invalid JSON" in err


def test_duplicate_points_exit_two(tmp_path, capsys):
    payload = {"points": [["1", "0", "0"]] * 6}
    path = tmp_path / "dupes.json"
    path.write_text(json.dumps(payload))
    code, _, err = run(capsys, ["check-position", "--input", str(path)])
    assert code == 2
    assert "invalid configuration" in err


VALID_ROWS = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"], ["1", "1", "1"], ["1", "2", "3"]]


@pytest.mark.parametrize(
    "points",
    [
        VALID_ROWS + [[1.5, 2.0, 3.0]],
        VALID_ROWS + [["a", "2", "3"]],
        VALID_ROWS + [None],
        VALID_ROWS + [["1", None, "3"]],
        VALID_ROWS + [["1/0", "2", "3"]],
        VALID_ROWS + [["2", "5"]],
        VALID_ROWS + [[2, 5, True]],
        VALID_ROWS + [["1e5", "2", "3"]],
        VALID_ROWS,
        b"\xff\xfe" + json.dumps(COLLINEAR_PAYLOAD).encode(),
        b'{"points": [[' + b"1" * 5000 + b", 0, 0]]}",
        b"[" * 200000 + b"]" * 200000,
    ],
    ids=["float-row", "letter", "null-row", "null-entry", "zero-denominator", "two-entries",
         "bool-entry", "exponent-string", "five-points", "not-utf-8", "long-integer",
         "deep-nesting"],
)
def test_hostile_configurations_exit_two(tmp_path, capsys, points):
    path = tmp_path / "hostile.json"
    # Bytes are the whole file; anything else is the "points" value.
    payload = points if isinstance(points, bytes) else json.dumps({"points": points}).encode()
    path.write_bytes(payload)
    code, out, err = run(capsys, ["check-position", "--input", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid configuration")
    assert "Traceback" not in err


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, ["coble", "--input", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_trials_must_be_positive(capsys):
    code, _, err = run(capsys, ["verify-paper", "--trials", "0"])
    assert code == 2
    assert "--trials" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check-position", "--bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_text_rendering_is_the_default(capsys):
    code, out, _ = run(capsys, ["lattice"])
    assert code == 0
    assert out.startswith("[lattice]")
    assert "PASS" in out and "-> pass" in out


def test_output_file_matches_json_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["conics", "--json", "--output", str(target)])
    assert code == 0
    assert target.read_text() == out
    data = json.loads(out)
    assert len(data["checks"][0]["details"]["conics"]) == 6


def test_second_model_reports_the_involution(capsys):
    code, out, _ = run(capsys, ["second-model", "--json"])
    assert code == 0
    data = json.loads(out)
    ids = [c["id"] for c in data["checks"]]
    assert ids == ["quintic-dimension", "associated-general-position", "involution"]
    assert data["summary"]["failed"] == 0


def test_second_model_rejects_degenerate_input(tmp_path, capsys):
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(COLLINEAR_PAYLOAD))
    code, out, _ = run(capsys, ["second-model", "--input", str(path), "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["checks"][0]["id"] == "general-position"


def test_torsion_pencil_accepts_the_default_configuration(capsys):
    code, out, _ = run(capsys, ["torsion", "--json"])
    assert code == 0
    data = json.loads(out)
    details = data["checks"][0]["details"]
    assert details["accepted"] is True
    assert details["member"] == ["1", "1"]
    assert details["rank_node_side"] == details["rank_conic_side"] == 2
    assert "note" in details


def test_torsion_form_flag_certifies_a_supplied_sextic(tmp_path, capsys):
    member = conic_product_pencil(REF6).member(1, 1).canonical()
    path = tmp_path / "member.json"
    path.write_text(json.dumps(member.to_json()))
    code, out, _ = run(capsys, ["torsion", "--form", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    details = data["checks"][0]["details"]
    assert details["accepted"] is True
    assert "member" not in details


@pytest.mark.parametrize(
    "records, message",
    [
        ([[2, 0, 0, "1"], [0, 2, 0, "1"]], "expected degree 6, got degree 2"),
        ([[6, 0, 0, "0"]], "the zero form is not a sextic"),
    ],
)
def test_torsion_form_must_be_a_nonzero_sextic(tmp_path, capsys, records, message):
    path = tmp_path / "form.json"
    path.write_text(json.dumps(records))
    code, out, err = run(capsys, ["torsion", "--form", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid form") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "payload",
    [
        json.dumps([[6.9, 0, 0, "1"]]),
        json.dumps([[True, 5, 0, "1"]]),
        json.dumps([[5.5, 1, 0, "1"]]),
        json.dumps({"terms": [[6, 0, 0, "1"]]}),
        json.dumps([[6, 0, 0, "1/0"]]),
        json.dumps([[6, "1"]]),
        json.dumps([[6, 0, 0, "2E3"]]),
        "[[6, 0, 0, ",
        b"\xff\xfe[[6, 0, 0, 1]]",
        b"[[6, 0, 0, " + b"1" * 5000 + b"]]",
        b"[" * 200000 + b"]" * 200000,
    ],
    ids=["float-exponent", "bool-exponent", "half-exponent", "dict", "zero-denominator",
         "two-entry-term", "exponent-string", "not-json", "not-utf-8", "long-integer",
         "deep-nesting"],
)
def test_hostile_forms_exit_two(tmp_path, capsys, payload):
    path = tmp_path / "form.json"
    path.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    code, out, err = run(capsys, ["torsion", "--form", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid form")
    assert "Traceback" not in err


def test_short_form_term_names_the_term_shape(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps([[6, "1"]]))
    code, _, err = run(capsys, ["torsion", "--form", str(path)])
    assert code == 2
    assert "each term is [i, j, k, coefficient], got [6, '1']" in err


def test_torsion_form_and_pencil_flags_conflict(capsys):
    with pytest.raises(SystemExit) as info:
        main(["torsion", "--pencil", "--form", "x.json"])
    assert info.value.code == 2


def test_coble_flags_vanishing_generators_without_failing(tmp_path, capsys):
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps(COLLINEAR_PAYLOAD))
    code, out, _ = run(capsys, ["coble", "--input", str(path), "--json"])
    assert code == 0
    data = json.loads(out)
    evaluation = data["checks"][0]["details"]
    assert evaluation["zero_coordinates"] == [0]
    relation = data["checks"][1]["details"]
    assert relation["residual"] == "0"


HUGE = 10**4000 + 7
HUGE_PAYLOAD = {"points": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, HUGE], [HUGE, 5, 1]]}


@pytest.mark.parametrize("command", ["coble", "conics"])
def test_results_too_long_to_print_exit_two(tmp_path, capsys, command):
    """Coordinates under the loader's digit cap can give values over the
    interpreter's limit for printing an integer."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_PAYLOAD))
    code, out, err = run(capsys, [command, "--input", str(path), "--json"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "4300 digits" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    code, out, _ = run(capsys, ["check-position", "--input", str(path), "--json"])
    assert code == 0 and json.loads(out)["summary"]["status"] == "pass"


def test_other_value_errors_still_surface(monkeypatch):
    def broken(args):
        raise ValueError("not a digit limit")

    monkeypatch.setitem(cli._HANDLERS, "coble", broken)
    with pytest.raises(ValueError, match="not a digit limit"):
        main(["coble"])


def test_action_table_smoke(capsys):
    code, out, _ = run(capsys, ["action-table", "--json", "--trials", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["checks"][0]["id"] == "permutation-action"


#: SHA-256 of report bytes, pinned so that a change to any verdict,
#: witness or number in them shows up as a failing test.
VERIFY_PAPER_DIGESTS = {
    "3": "9404cce421911b559bcc84dab3642f4446721eaaedc258ece44d07e2453816db",
    "11": "790a5cf3fda24f9cb1511c0ef3c00a9798b24628f1f439bee50c26a4e8bdcb21",
}
REF6_PENCIL_CERTIFICATE_DIGEST = "f2cf195bc80379346e2db349d44a346c3ff1dfd34c5b2e63bde73c7cf31e3943"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_paper_reports_are_byte_identical(capsys):
    argv = ["verify-paper", "--seed", "11", "--trials", "2", "--json"]
    first_code, first_out, _ = run(capsys, argv)
    second_code, second_out, _ = run(capsys, argv)
    assert first_code == second_code == 0
    assert first_out == second_out
    data = json.loads(first_out)
    assert data["summary"]["total"] == 9
    assert data["summary"]["status"] == "pass"
    assert sha256(first_out) == VERIFY_PAPER_DIGESTS["11"]
    code, out, _ = run(capsys, ["verify-paper", "--seed", "3", "--trials", "2", "--json"])
    assert code == 0
    assert sha256(out) == VERIFY_PAPER_DIGESTS["3"]


def test_reference_pencil_certificate_bytes_are_pinned():
    data = json.dumps(certify_pencil(REF6).to_json(), sort_keys=True)
    assert sha256(data) == REF6_PENCIL_CERTIFICATE_DIGEST
