import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import randopt as r
from randopt.cli import main, run
from randopt.document import load_problem
from randopt.errors import ParseError, SchemaError

GALLERY = Path(__file__).resolve().parent.parent / "gallery"
SCHEMAS = Path(__file__).resolve().parent.parent / "src" / "randopt" / "schemas"
ERROR_DOCUMENTS = Path(__file__).resolve().parent / "golden" / "documents"

GALLERY_COMMANDS = [
    ("quartic_double_well.json", "solve-rlop", 0),
    ("quartic_double_well.json", "solve-rop", 0),
    ("quartic_double_well.json", "oracle", 0),
    ("quartic_double_well.json", "stationary", 0),
    ("quartic_double_well.json", "check-measurable", 0),
    ("shifted_parabola_refusal.json", "solve-rop", 1),
    ("shifted_parabola_refusal.json", "solve-rlop", 1),
    ("shifted_parabola_refusal.json", "check-measurable", 0),
    ("shifted_parabola_refusal.json", "oracle", 0),
    ("convex_quadratic_2d.json", "solve-rlop", 0),
    ("convex_quadratic_2d.json", "solve-rop", 0),
    ("convex_quadratic_2d.json", "stationary", 0),
    ("flip_candidate.json", "necessary", 0),
    ("flip_candidate.json", "check-measurable", 0),
    ("cubic_inflection.json", "solve-rlop", 2),
    ("point_cloud_rop.json", "solve-rop", 0),
    ("point_cloud_rop.json", "oracle", 0),
]


# --- document loading ----------------------------------------------------------


def test_load_quartic_document():
    doc = load_problem(str(GALLERY / "quartic_double_well.json"))
    assert doc.n == 1
    assert doc.space.atoms == ((1, 2), (3,))
    assert doc.options.grid_m == 401
    assert doc.feasible is not None
    assert doc.search_box == r.Box((-2.0,), (2.0,))


def test_load_rejects_bad_weights(tmp_path):
    doc = json.loads((GALLERY / "quartic_double_well.json").read_text())
    doc["space"]["weights"] = [0.6, 0.6, 0.5]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_problem(str(p))
    assert exc.value.pointer == "/space/weights"


def test_load_rejects_bad_expression(tmp_path):
    doc = json.loads((GALLERY / "quartic_double_well.json").read_text())
    doc["objective"]["expression"] = "x1^^2"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as exc:
        load_problem(str(p))
    assert exc.value.offset == 3


def test_load_rejects_unknown_field(tmp_path):
    doc = json.loads((GALLERY / "quartic_double_well.json").read_text())
    doc["bogus"] = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        load_problem(str(p))


def test_load_rejects_missing_parameter_scenario(tmp_path):
    doc = json.loads((GALLERY / "shifted_parabola_refusal.json").read_text())
    del doc["objective"]["parameters"]["2"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_problem(str(p))
    assert exc.value.pointer.startswith("/objective/parameters")


def test_load_rejects_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_problem(str(p))


def test_load_rejects_wrong_candidate_dimension(tmp_path):
    doc = json.loads((GALLERY / "flip_candidate.json").read_text())
    doc["candidate"]["1"] = [1.0, 2.0]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_problem(str(p))
    assert exc.value.pointer == "/candidate/1"


# --- command execution ------------------------------------------------------------


@pytest.mark.parametrize("doc_name,command,expected_code", GALLERY_COMMANDS)
def test_gallery_commands_and_exit_codes(tmp_path, doc_name, command, expected_code):
    doc = load_problem(str(GALLERY / doc_name))
    out = tmp_path / "report.json"
    code = run(command, doc, str(out))
    assert code == expected_code
    report = json.loads(out.read_text())
    assert report["exit_code"] == expected_code
    assert report["command"] == command
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    jsonschema.Draft202012Validator(schema).validate(report)


def test_missing_required_section_is_input_error(tmp_path):
    doc = load_problem(str(GALLERY / "cubic_inflection.json"))  # no feasible_set
    out = tmp_path / "report.json"
    code = run("solve-rop", doc, str(out))
    assert code == 3
    report = json.loads(out.read_text())
    assert report["status"] == "input_error"
    assert "feasible_set" in report["error"]["message"]


def test_rlop_report_contents(tmp_path):
    doc = load_problem(str(GALLERY / "quartic_double_well.json"))
    out = tmp_path / "report.json"
    assert run("solve-rlop", doc, str(out)) == 0
    report = json.loads(out.read_text())
    sel = report["results"]["selection"]
    assert sel["points"] == {"1": [-1], "2": [-1], "3": [-1]}
    assert sel["measurable"]["measurable"] is True
    assert sel["certificates"]["1"]["kind"] == "local_min"
    assert sel["certificates"]["1"]["delta"] >= 0.25


def test_refusal_report_has_witness(tmp_path):
    doc = load_problem(str(GALLERY / "shifted_parabola_refusal.json"))
    out = tmp_path / "report.json"
    assert run("solve-rop", doc, str(out)) == 1
    report = json.loads(out.read_text())
    w = report["refusal"]["witness"]
    assert w["atom"] == [1, 2]
    assert report["refusal"]["error"] == "NonMeasurableF"


def test_flip_candidate_report(tmp_path):
    doc = load_problem(str(GALLERY / "flip_candidate.json"))
    out = tmp_path / "report.json"
    assert run("necessary", doc, str(out)) == 0
    report = json.loads(out.read_text())
    res = report["results"]
    assert res["all_ok"] is True
    assert res["candidate_measurable"]["measurable"] is False
    assert res["candidate_measurable"]["witness"]["atom"] == [1, 2]


def test_stationary_counts_every_step_up_to_the_iteration_cap(tmp_path):
    # Newton on x1^3 halves the distance to the degenerate root per step, so
    # the start that finds it takes all NEWTON_MAX_ITERS = 60 steps
    doc = load_problem(str(GALLERY / "cubic_inflection.json"))
    out = tmp_path / "report.json"
    assert run("stationary", doc, str(out)) == 0
    points = json.loads(out.read_text())["results"]["stationary_points"]
    assert [pt["newton_iters"] for pts in points.values() for pt in pts] == [60, 60]


def test_stationary_and_solve_rlop_count_the_same_newton_starts(tmp_path):
    # every atom holds one scenario, so both commands sum over every
    # scenario; scenario 4 shares scenario 1's search.  The sqrt is
    # undefined below -2 and the Hessian singular at some starts, and with
    # p2 = 8 the damping runs out at others
    doc = {
        "schema_version": 1,
        "space": {"scenarios": [1, 2, 3, 4], "weights": [0.25] * 4, "atoms": [[1], [2], [3], [4]]},
        "dimension": 1,
        "objective": {
            "expression": "(x1^2 - p1)^2 + p2*sqrt(x1 + 2)",
            "parameters": {"1": [1.0, 8.0], "2": [0.75, 8.0], "3": [1.0, 0.0], "4": [1.0, 8.0]},
        },
        "search_box": {"lower": [-2], "upper": [2]},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    diagnostics = {}
    for command in ("stationary", "solve-rlop"):
        out = tmp_path / f"{command}.json"
        assert run(command, load_problem(str(path)), str(out)) == 0
        diagnostics[command] = json.loads(out.read_text())["diagnostics"]
    assert diagnostics["stationary"] == diagnostics["solve-rlop"]
    assert diagnostics["stationary"] == {"skipped_newton_starts": 4, "stalled_newton_starts": 8}


def test_oracle_agrees_with_solve_rop_on_corpus(tmp_path):
    for doc_name in (
        "quartic_double_well.json",
        "convex_quadratic_2d.json",
        "point_cloud_rop.json",
    ):
        doc = load_problem(str(GALLERY / doc_name))
        rop_out = tmp_path / f"rop-{doc_name}"
        oracle_out = tmp_path / f"oracle-{doc_name}"
        assert run("solve-rop", doc, str(rop_out)) == 0
        assert run("oracle", doc, str(oracle_out)) == 0
        rop = json.loads(rop_out.read_text())
        oracle = json.loads(oracle_out.read_text())
        for s, value in oracle["results"]["eta"].items():
            assert abs(rop["results"]["eta"][s] - value) <= 1e-9


def test_reports_byte_identical_across_runs(tmp_path):
    for doc_name, command, _ in GALLERY_COMMANDS:
        doc = load_problem(str(GALLERY / doc_name))
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run(command, doc, str(out1))
        run(command, doc, str(out2))
        assert out1.read_bytes() == out2.read_bytes(), (doc_name, command)


# --- argparse entry point -----------------------------------------------------------


def test_main_overrides_options(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "solve-rlop",
            "--input",
            str(GALLERY / "quartic_double_well.json"),
            "--output",
            str(out),
            "--grid",
            "201",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["grid"] == 201
    assert report["seed"] == 7


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--seed", "-1", "/options/seed: -1 is less than the minimum of 0"),
        ("--grid", "0", "/options/grid: 0 is less than the minimum of 2"),
        ("--grid", "1", "/options/grid: 1 is less than the minimum of 2"),
        ("--grid", "-3", "/options/grid: -3 is less than the minimum of 2"),
    ],
)
def test_main_overrides_below_the_schema_minimum_are_input_errors(
    tmp_path, flag, value, message
):
    # --seed -1 used to end in a traceback from the seeded generator, and
    # --grid 0 or 1 was echoed into the report while 2 points were used
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    document = str(GALLERY / "quartic_double_well.json")
    code = main(["solve-rlop", "--input", document, "--output", str(out), flag, value])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["exit_code"] == 3
    assert report["status"] == "input_error"
    assert report["error"] == {"type": "SchemaError", "message": message}
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    jsonschema.Draft202012Validator(schema).validate(report)


def test_main_accepts_overrides_at_the_schema_minimum(tmp_path):
    out = tmp_path / "report.json"
    document = str(GALLERY / "quartic_double_well.json")
    code = main(["oracle", "--input", document, "--output", str(out), "--grid", "2", "--seed", "0"])
    assert code == 0
    report = json.loads(out.read_text())
    assert (report["grid"], report["seed"]) == (2, 0)


@pytest.mark.parametrize("flag", ["--seed", "--grid"])
def test_main_overrides_too_large_for_a_float_are_input_errors(tmp_path, capsys, flag):
    # an override obeys every rule of options: a --seed of 401 digits was
    # written into the report at exit 0, and --grid met the grid cap instead
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    argv = ["oracle", "--input", str(GALLERY / "cubic_inflection.json"), "--output", str(out)]
    assert main([*argv, flag, "1" + "0" * 400]) == 3
    message = f"/options/{flag[2:]}: integer is too large for a float"
    report = json.loads(out.read_text())
    assert (report["status"], report["exit_code"]) == ("input_error", 3)
    assert report["error"] == {"type": "SchemaError", "message": message}
    assert capsys.readouterr() == ("", f"randopt oracle: input error: {message}\n")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "--grid", "abc"], "argument --grid: invalid int value: 'abc'"),
        (["oracle", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
        (["frob"], "argument command: invalid choice: 'frob'"),
    ],
    ids=["grid", "seed", "command"],
)
def test_a_usage_error_exits_3_and_writes_nothing(tmp_path, capsys, argv, message):
    # argparse exits 2, which means "no solution exists"; its usage and
    # message stay on stderr, and the arguments did not parse, so the
    # report at --output is left as it was
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    document = str(GALLERY / "cubic_inflection.json")
    assert main([*argv, "--input", document, "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: randopt ")
    assert f"\nrandopt: error: {message}" in captured.err
    assert out.read_text() == "stale report from an earlier run"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: randopt ")


def test_main_input_error_writes_report(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out = tmp_path / "report.json"
    code = main(["oracle", "--input", str(bad), "--output", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["status"] == "input_error"


def test_main_missing_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["oracle", "--input", str(tmp_path / "nope.json"), "--output", str(out)])
    assert code == 3


def test_main_unwritable_output_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "report.json"
    code = main(["oracle", "--input", str(GALLERY / "quartic_double_well.json"), "--output", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("randopt oracle: input error: [Errno 2]")
    assert str(out.parent) in captured.err
    assert "Traceback" not in captured.err
    assert not out.parent.exists()


def test_each_outcome_is_announced_on_one_stream(tmp_path, capsys):
    # a report that was written is announced by the status line on stdout,
    # whatever it holds, an input error found while the command ran
    # included; an error that leaves no report of the command's (the
    # document did not load, or the report could not be written) goes to
    # stderr alone
    ran = tmp_path / "report.json"
    missing = tmp_path / "no" / "report.json"
    cases = [
        (GALLERY / "quartic_double_well.json", "solve-rlop", ran, 0, "ok (exit 0)"),
        (GALLERY / "shifted_parabola_refusal.json", "solve-rop", ran, 1, "refused (exit 1)"),
        (GALLERY / "cubic_inflection.json", "solve-rlop", ran, 2, "no solution (exit 2)"),
        (ERROR_DOCUMENTS / "error_precedence.json", "necessary", ran, 3, "input error (exit 3)"),
    ]
    for document, command, out, code, status in cases:
        assert main([command, "--input", str(document), "--output", str(out)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (f"randopt {command}: {status}; report: {out}\n", "")
    # the run-time error's message stays in the report
    assert json.loads(ran.read_text())["error"] == {
        "type": "DomainViolation",
        "message": "non-finite intermediate result",
    }

    cases = [
        (
            ERROR_DOCUMENTS / "huge_exponent.json",
            "solve-rop",
            ran,
            "integer exponent overflows a float (offset 3)",
        ),
        (
            GALLERY / "quartic_double_well.json",
            "oracle",
            missing,
            f"[Errno 2] No such file or directory: '{missing}'",
        ),
    ]
    for document, command, out, message in cases:
        assert main([command, "--input", str(document), "--output", str(out)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"randopt {command}: input error: {message}\n")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_main_unwritable_output_names_the_output_path(tmp_path, capsys, where):
    out = tmp_path / "no" / "r.json" if where == "missing directory" else tmp_path / "r.json"
    if where == "directory":
        out.mkdir()
    argv = ["oracle", "--input", str(GALLERY / "quartic_double_well.json"), "--output", str(out)]
    errors = []
    for _ in range(2):
        assert main(argv) == 3
        errors.append(capsys.readouterr().err)
    assert f"'{out}'" in errors[0] and "r.json" in errors[0]
    assert ".randopt-" not in errors[0]
    assert errors[0] == errors[1]
    # no temporary file is left behind
    assert [p.name for p in tmp_path.rglob("*")] == ([] if where == "missing directory" else ["r.json"])


@pytest.mark.parametrize(
    "document,command,extra,error_type",
    [
        (ERROR_DOCUMENTS / "log_objective.json", "solve-rlop", [], "DomainViolation"),
        (
            ERROR_DOCUMENTS / "level_set_feasible.json",
            "solve-rop",
            [],
            "IncompatibleRepresentation",
        ),
        (ERROR_DOCUMENTS / "reciprocal_candidate.json", "necessary", [], "DivByZero"),
        (GALLERY / "convex_quadratic_2d.json", "solve-rop", ["--grid", "5000"], "RandoptError"),
    ],
)
def test_unevaluable_document_writes_fresh_input_error_report(
    tmp_path, document, command, extra, error_type
):
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    code = main([command, "--input", str(document), "--output", str(out), *extra])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["exit_code"] == 3
    assert report["status"] == "input_error"
    assert report["error"]["type"] == error_type
    assert "np.float64" not in report["error"]["message"]
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    jsonschema.Draft202012Validator(schema).validate(report)


@pytest.mark.parametrize(
    "document,command,expected_code,verdict",
    [
        ("overflowing_candidate.json", "check-measurable", 0, ["results", "candidate"]),
        ("level_set_shapes.json", "check-measurable", 0, ["results", "feasible_set"]),
        ("level_set_shapes.json", "solve-rop", 1, ["refusal"]),
    ],
)
def test_infinite_witness_gap_is_left_out_of_a_fresh_report(
    tmp_path, document, command, expected_code, verdict
):
    # 1e308 - (-1e308) overflows, and level sets of different shape are at
    # distance inf; a report cannot hold inf
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    code = main([command, "--input", str(ERROR_DOCUMENTS / document), "--output", str(out)])
    assert code == expected_code
    report = json.loads(out.read_text())
    assert report["exit_code"] == expected_code
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    jsonschema.Draft202012Validator(schema).validate(report)
    for key in verdict:
        report = report[key]
    assert report.get("measurable", False) is False
    assert (report["witness"]["scenario_a"], report["witness"]["scenario_b"]) == (1, 2)
    assert "gap" not in report["witness"]


@pytest.mark.parametrize("command", ["stationary", "solve-rlop", "necessary"])
@pytest.mark.parametrize("document", ["huge_curvature.json", "overflowing_minors.json"])
def test_a_large_finite_hessian_is_pd_in_a_fresh_report(tmp_path, capsys, document, command):
    # f'' = 1e308 doubles past the largest double when averaged with its
    # transpose, and 2e160 * 2e160 overflows the second minor and its
    # Sylvester threshold; the minor is left out, as an infinite gap is
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    code = main([command, "--input", str(ERROR_DOCUMENTS / document), "--output", str(out)])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    schema = json.loads((SCHEMAS / "report.schema.json").read_text())
    jsonschema.Draft202012Validator(schema).validate(report)
    results = report["results"]
    if command == "stationary":
        (point,) = results["stationary_points"]["1"]
        assert point["classification"] == "PD"
        assert point.get("minors", "left out") == (
            [1e308] if document == "huge_curvature.json" else "left out"
        )
    elif command == "necessary":
        assert results["per_scenario"]["1"]["classification"] == "PD"
    else:
        n = json.loads((ERROR_DOCUMENTS / document).read_text())["dimension"]
        assert results["selection"]["points"]["1"] == [0.0] * n


NAN_CANDIDATE = {
    "schema_version": 1,
    "space": {"scenarios": [1, 2, 3], "weights": [0.25, 0.25, 0.5], "atoms": [[1, 2, 3]]},
    "dimension": 1,
    "objective": {"expression": "x1^2"},
    "search_box": {"lower": [-2], "upper": [2]},
    "candidate": {"1": [float("nan")], "2": [1.0], "3": [2.0]},
}

INFINITE_BOXES = {
    "schema_version": 1,
    "space": {"scenarios": [1, 2], "weights": [0.5, 0.5], "atoms": [[1, 2]]},
    "dimension": 2,
    "objective": {"expression": "x1^2 + x2^2"},
    "search_box": {"lower": [-1, -1], "upper": [1, 1]},
    "feasible_set": {
        "kind": "box",
        "per_scenario": {
            "1": {"lower": [float("-inf"), 0], "upper": [1, 1]},
            "2": {"lower": [float("-inf"), 0.5], "upper": [1, 1]},
        },
    },
}


@pytest.mark.parametrize(
    "text,pointer",
    [
        (json.dumps(NAN_CANDIDATE), "/candidate/1/0: number nan"),
        (json.dumps(INFINITE_BOXES), "/feasible_set/per_scenario/1/lower/0: number -inf"),
        (
            json.dumps(NAN_CANDIDATE).replace("NaN", "1e400"),
            "/candidate/1/0: number inf",
        ),
        (
            json.dumps(NAN_CANDIDATE).replace("NaN", "1" + "0" * 400),
            "/candidate/1/0: integer is too large for a float",
        ),
        (
            json.dumps(NAN_CANDIDATE).replace("NaN", "1" + "0" * 5000),
            ": invalid JSON: Exceeds the limit",
        ),
    ],
    ids=[
        "nan-candidate",
        "infinite-box",
        "overflowing-literal",
        "overflowing-integer",
        "integer-over-digit-limit",
    ],
)
def test_non_finite_number_is_an_input_error(tmp_path, text, pointer):
    # json.load accepts NaN, Infinity and 1e400; a NaN distance never exceeds
    # a tolerance, so these documents used to pass check-measurable
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    code = main(["check-measurable", "--input", str(doc), "--output", str(out)])
    assert code == 3
    report = json.loads(out.read_text())
    assert report["status"] == "input_error"
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith(pointer)


LEVEL_SET_1D = {
    "kind": "level_set",
    "expressions": ["x1 - 1e400"],
    "box": {"lower": [-1], "upper": [1]},
}


@pytest.mark.parametrize(
    "objective,feasible,message",
    [
        ("x1 - 1e400", None, "number overflows a float (offset 5)"),
        ("x1^1" + "0" * 400, None, "integer exponent overflows a float (offset 3)"),
        ("x1^1" + "0" * 5000, None, "integer exponent overflows a float (offset 3)"),
        ("x1^2", LEVEL_SET_1D, "number overflows a float (offset 5)"),
    ],
    ids=["literal", "exponent", "exponent-over-digit-limit", "level-set-literal"],
)
@pytest.mark.parametrize("command", ["check-measurable", "solve-rlop", "stationary"])
def test_a_number_that_overflows_a_float_is_an_input_error(
    tmp_path, capsys, command, objective, feasible, message
):
    # int() and float() of these exponents raise ValueError and
    # OverflowError, and x1 - 1e400 is at gap inf from itself
    doc = {
        "schema_version": 1,
        "space": {"scenarios": [1, 2], "weights": [0.5, 0.5], "atoms": [[1, 2]]},
        "dimension": 1,
        "objective": {"expression": objective},
        "search_box": {"lower": [-1], "upper": [1]},
    }
    if feasible is not None:
        doc["feasible_set"] = feasible
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    assert main([command, "--input", str(path), "--output", str(out)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert (report["status"], report["exit_code"]) == ("input_error", 3)
    assert report["error"] == {"type": "ParseError", "message": message}


@pytest.mark.parametrize("command", ["stationary", "necessary"])
def test_a_constant_power_that_overflows_leaves_the_gradient_defined(tmp_path, capsys, command):
    # d/dx1 of 10^400 holds 10^399, which float ** int cannot fold: it raises
    doc = {
        "schema_version": 1,
        "space": {"scenarios": [1, 2], "weights": [0.5, 0.5], "atoms": [[1, 2]]},
        "dimension": 1,
        "objective": {"expression": "10^400 + x1^2"},
        "search_box": {"lower": [-1], "upper": [1]},
        "candidate": {"1": [0.0], "2": [0.0]},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main([command, "--input", str(path), "--output", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(out.read_text())["status"] == "ok"


def test_huge_grid_is_an_input_error_without_a_traceback(tmp_path, capsys):
    # the cap is checked before np.linspace builds an axis of 10^20 points
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    argv = ["oracle", "--input", str(GALLERY / "cubic_inflection.json"), "--output", str(out)]
    assert main([*argv, "--grid", "100000000000000000000"]) == 3
    report = json.loads(out.read_text())
    assert (report["status"], report["exit_code"]) == ("input_error", 3)
    assert report["error"] == {
        "type": "RandoptError",
        "message": "grid of 100000000000000000000 points exceeds cap 20000000",
    }
    assert "Traceback" not in capsys.readouterr().err


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


def _one_atom_document(**sections):
    return {
        "schema_version": 1,
        "space": {"scenarios": [1, 2], "weights": [0.5, 0.5], "atoms": [[1, 2]]},
        "dimension": 1,
        "objective": {"expression": "(x1 - p1)^2", "parameters": {"1": [1.0], "2": [2.0]}},
        **sections,
    }


def test_check_measurable_probes_the_feasible_sets_bounding_box(tmp_path):
    # no search_box: the first probe is the lower corner of [1, 2] u [2, 3]
    boxes = {"1": {"lower": [1], "upper": [2]}, "2": {"lower": [2], "upper": [3]}}
    doc = _one_atom_document(feasible_set={"kind": "box", "per_scenario": boxes})
    out = tmp_path / "report.json"
    assert main(["check-measurable", "--input", str(_write(tmp_path, doc)), "--output", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    witness = results["objective"]["witness"]
    assert (witness["probe"], witness["value_a"], witness["value_b"]) == ([1], 0, 1)
    assert results["feasible_set"]["measurable"] is False


def test_check_measurable_without_a_region_is_an_input_error(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    path = _write(tmp_path, _one_atom_document())
    assert main(["check-measurable", "--input", str(path), "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["error"] == {
        "type": "SchemaError",
        "message": "/search_box: this command needs a search_box or a feasible_set",
    }


@pytest.mark.parametrize("command", ["check-measurable", "solve-rlop"])
def test_more_dimensions_than_the_probe_grid_is_an_input_error(tmp_path, capsys, command):
    n = 13
    doc = {
        "schema_version": 1,
        "space": {"scenarios": [1], "weights": [1.0], "atoms": [[1]]},
        "dimension": n,
        "objective": {"expression": " + ".join(f"x{i}^2" for i in range(1, n + 1))},
        "search_box": {"lower": [-1] * n, "upper": [1] * n},
    }
    out = tmp_path / "report.json"
    out.write_text("stale report from an earlier run")
    assert main([command, "--input", str(_write(tmp_path, doc)), "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    assert (report["status"], report["exit_code"]) == ("input_error", 3)
    assert report["error"] == {
        "type": "RandoptError",
        "message": "probe grid supports up to 12 dimensions, got 13",
    }
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("atoms", [[[1, "a"]], [[1], ["a"]]])
def test_scenario_ids_that_cannot_be_ordered_are_an_input_error(tmp_path, atoms):
    doc = {
        "schema_version": 1,
        "space": {"scenarios": [1, "a"], "weights": [0.5, 0.5], "atoms": atoms},
        "dimension": 1,
        "objective": {"expression": "x1^2"},
        "search_box": {"lower": [-1], "upper": [1]},
    }
    out = tmp_path / "report.json"
    assert main(["stationary", "--input", str(_write(tmp_path, doc)), "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith("/space/scenarios: scenario ids cannot be ordered")


@pytest.mark.parametrize(
    "space,message",
    [
        (
            {"scenarios": [1, 1], "weights": [0.5, 0.5], "atoms": [[1]]},
            "/space/scenarios: duplicate scenario ids",
        ),
        (
            {"scenarios": [1, "a"], "weights": [0.5, 0.5], "atoms": [[1], ["a"]]},
            "/space/scenarios: scenario ids cannot be ordered: ",
        ),
        (
            {"scenarios": [1, 2], "weights": [0.25, 0.25, 0.5], "atoms": [[1, 2]]},
            "/space/weights: 3 weights for 2 scenarios",
        ),
    ],
    ids=["duplicate-ids", "unordered-ids", "weight-count"],
)
def test_a_space_error_names_the_field_at_fault(tmp_path, space, message):
    doc = {
        "schema_version": 1,
        "space": space,
        "dimension": 1,
        "objective": {"expression": "x1^2"},
        "search_box": {"lower": [-1], "upper": [1]},
    }
    out = tmp_path / "report.json"
    assert main(["stationary", "--input", str(_write(tmp_path, doc)), "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["error"]["type"] == "SchemaError"
    assert report["error"]["message"].startswith(message)


def test_an_integer_valued_float_id_names_the_integer_scenario(tmp_path):
    doc = {
        "schema_version": 1,
        "space": {"scenarios": [1.0, 2], "weights": [0.5, 0.5], "atoms": [[1.0], [2.0]]},
        "dimension": 1,
        "objective": {"expression": "(x1 - p1)^2", "parameters": {"1": [0.5], "2": [-0.5]}},
        "search_box": {"lower": [-1], "upper": [1]},
    }
    out = tmp_path / "report.json"
    argv = ["oracle", "--input", str(_write(tmp_path, doc)), "--output", str(out), "--grid", "5"]
    assert main(argv) == 0
    report = json.loads(out.read_text())
    assert report["scenarios"] == [1, 2]
    assert report["results"]["eta"] == {"1": 0.0, "2": 0.0}
    doc = load_problem(str(tmp_path / "doc.json"))
    assert doc.space.scenarios == (1, 2) and doc.space.atoms == ((1,), (2,))
    assert {type(s) for s in (*doc.space.scenarios, *sum(doc.space.atoms, ()))} == {int}


def _slashed_ids(**sections):
    """Two scenarios whose ids hold the two characters a JSON pointer escapes."""
    return {
        "schema_version": 1,
        "space": {"scenarios": ["a/b", "c~d"], "weights": [0.5, 0.5], "atoms": [["a/b", "c~d"]]},
        "dimension": 1,
        "objective": {"expression": "(x1 - p1)^2", "parameters": {"a/b": [0.5], "c~d": [0.5]}},
        "search_box": {"lower": [-1], "upper": [1]},
        **sections,
    }


def _parameters(**by_id):
    return {"expression": "(x1 - p1)^2", "parameters": by_id}


@pytest.mark.parametrize(
    "doc,message",
    [
        (
            _slashed_ids(objective=_parameters(**{"a/b": [math.nan], "c~d": [0.5]})),
            "/objective/parameters/a~1b/0: number nan is not finite",
        ),
        (
            _slashed_ids(objective=_parameters(**{"a/b": [0.5], "c~d": ["x"]})),
            "/objective/parameters/c~0d/0: 'x' is not of type 'number'",
        ),
        (
            _slashed_ids(objective=_parameters(**{"a/b": [0.5], "c~d": [0.5], "e/f": [0.5]})),
            "/objective/parameters/e~1f: unknown scenario id",
        ),
        (
            _slashed_ids(candidate={"a/b": [0.0, 0.0], "c~d": [0.0]}),
            "/candidate/a~1b: point must have length 1",
        ),
        (
            _slashed_ids(
                feasible_set={
                    "kind": "box",
                    "per_scenario": {
                        "a/b": {"lower": [-1], "upper": [1]},
                        "c~d": {"lower": "a", "upper": [1]},
                    },
                }
            ),
            "/feasible_set/per_scenario/c~0d/lower: 'a' is not of type 'array'",
        ),
    ],
    ids=["nan-parameter", "string-parameter", "unknown-id", "candidate-length", "entry-type"],
)
def test_a_pointer_escapes_the_scenario_id_it_names(tmp_path, doc, message):
    # RFC 6901: "~" is written "~0" and "/" is written "~1"; a raw "a/b"
    # would name member "b" of member "a"
    out = tmp_path / "report.json"
    assert main(["oracle", "--input", str(_write(tmp_path, doc)), "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["error"] == {"type": "SchemaError", "message": message}


TWO_BOXES = {
    "schema_version": 1,
    "space": {"scenarios": [1, 2], "weights": [0.5, 0.5], "atoms": [[1, 2]]},
    "dimension": 1,
    "objective": {"expression": "x1^2"},
    "feasible_set": {
        "kind": "box",
        "per_scenario": {
            "1": {"lower": [-1], "upper": [1]},
            "2": {"lower": [-1], "upper": [1]},
        },
    },
}


@pytest.mark.parametrize(
    "entries,message",
    [
        (["1", "2", "99"], "/feasible_set/per_scenario/99: unknown scenario id"),
        (["1"], "/feasible_set/per_scenario: missing entries for scenarios ['2']"),
    ],
)
def test_feasible_per_scenario_ids_must_match_the_space(tmp_path, entries, message):
    doc = json.loads(json.dumps(TWO_BOXES))
    box = doc["feasible_set"]["per_scenario"]["1"]
    doc["feasible_set"]["per_scenario"] = {key: box for key in entries}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["oracle", "--input", str(path), "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["error"] == {"type": "SchemaError", "message": message}


GOOD_ENTRY = {
    "box": {"lower": [-1], "upper": [1]},
    "point_cloud": {"points": [[0]]},
    "level_set": {"expressions": ["x1"], "box": {"lower": [-1], "upper": [1]}},
}


def _beside(field, value):
    return {"kind": "box", field: value, **TWO_BOXES["feasible_set"]}


def _entries(kind, first, second):
    return {"kind": kind, "per_scenario": {"1": first, "2": second}}


# each was accepted at exit 0, with the field ignored, or ended in a
# traceback with exit 1 (the entry values of the wrong type)
@pytest.mark.parametrize(
    "feasible,message",
    [
        (_beside("lower", [5]), "/feasible_set/lower: not allowed beside 'per_scenario'"),
        (_beside("upper", [6]), "/feasible_set/upper: not allowed beside 'per_scenario'"),
        (_beside("points", [[7]]), "/feasible_set/points: not allowed beside 'per_scenario'"),
        (
            _beside("expressions", ["x1 - 1"]),
            "/feasible_set/expressions: not allowed beside 'per_scenario'",
        ),
        (
            _beside("box", {"lower": [5], "upper": [6]}),
            "/feasible_set/box: not allowed beside 'per_scenario'",
        ),
        (
            _entries("box", GOOD_ENTRY["box"], {**GOOD_ENTRY["box"], "points": [[7]], "bogus": 3}),
            "/feasible_set/per_scenario/2/points: not used by kind 'box'",
        ),
        (
            _entries("box", GOOD_ENTRY["box"], {**GOOD_ENTRY["box"], "bogus": 3}),
            "/feasible_set/per_scenario/2/bogus: not used by kind 'box'",
        ),
        (
            _entries(
                "point_cloud", GOOD_ENTRY["point_cloud"], {"kind": "point_cloud", "points": [[0]]}
            ),
            "/feasible_set/per_scenario/2/kind: not used by kind 'point_cloud'",
        ),
        (
            _entries("level_set", GOOD_ENTRY["level_set"], {**GOOD_ENTRY["level_set"], "a/b": 1}),
            "/feasible_set/per_scenario/2/a~1b: not used by kind 'level_set'",
        ),
        (
            _entries("box", {"lower": "a", "upper": [1]}, GOOD_ENTRY["box"]),
            "/feasible_set/per_scenario/1/lower: 'a' is not of type 'array'",
        ),
        (
            _entries("point_cloud", {"points": [["x"]]}, GOOD_ENTRY["point_cloud"]),
            "/feasible_set/per_scenario/1/points/0/0: 'x' is not of type 'number'",
        ),
        (
            _entries(
                "level_set",
                {**GOOD_ENTRY["level_set"], "expressions": [1]},
                GOOD_ENTRY["level_set"],
            ),
            "/feasible_set/per_scenario/1/expressions/0: 1 is not of type 'string'",
        ),
        (
            {"kind": "box", "lower": [-1], "upper": [1], "points": [[7]]},
            "/feasible_set/points: not used by kind 'box'",
        ),
    ],
    ids=[
        "lower-beside-per-scenario",
        "upper-beside-per-scenario",
        "points-beside-per-scenario",
        "expressions-beside-per-scenario",
        "box-beside-per-scenario",
        "box-entry-with-points-and-bogus",
        "box-entry-with-bogus",
        "point-cloud-entry-with-kind",
        "level-set-entry-with-slash-key",
        "box-entry-string-bound",
        "point-cloud-entry-string-coordinate",
        "level-set-entry-number-expression",
        "box-with-points",
    ],
)
def test_feasible_set_holds_only_the_fields_its_kind_reads(tmp_path, feasible, message):
    doc = dict(TWO_BOXES, feasible_set=feasible)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["oracle", "--input", str(path), "--output", str(out)]) == 3
    report = json.loads(out.read_text())
    assert report["error"] == {"type": "SchemaError", "message": message}


def test_console_script_subprocess(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "randopt.cli",
            "solve-rlop",
            "--input",
            str(GALLERY / "quartic_double_well.json"),
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout
    assert json.loads(out.read_text())["status"] == "ok"


def test_problem_documents_validate_against_shipped_schema():
    schema = json.loads((SCHEMAS / "problem.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for doc_path in sorted(GALLERY.glob("*.json")):
        validator.validate(json.loads(doc_path.read_text()))

