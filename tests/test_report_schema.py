"""Every report validates against ``report.schema.json``, which gives each
command's ``results`` its own shape: a key that a command does not write
fails validation instead of slipping through."""

import copy
import json
from pathlib import Path

import jsonschema
import pytest

from randopt.cli import COMMANDS, run
from randopt.document import load_problem

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
GALLERY = ROOT / "gallery"
VALIDATOR = jsonschema.Draft202012Validator(
    json.loads((ROOT / "src" / "randopt" / "schemas" / "report.schema.json").read_text())
)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_every_golden_report_validates(path):
    VALIDATOR.validate(json.loads(path.read_text()))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("document", sorted(GALLERY.glob("*.json")), ids=lambda p: p.stem)
def test_every_gallery_report_validates(tmp_path, document, command):
    out = tmp_path / "report.json"
    run(command, load_problem(str(document)), str(out))
    VALIDATOR.validate(json.loads(out.read_text()))


def _ok_reports():
    """One golden report with results per command."""
    by_command = {}
    for path in sorted(GOLDEN.glob("*.json")):
        report = json.loads(path.read_text())
        if report["status"] == "ok":
            by_command.setdefault(report["command"], report)
    assert sorted(by_command) == sorted(COMMANDS)
    return by_command


@pytest.mark.parametrize("command", COMMANDS)
def test_a_results_key_that_the_command_does_not_write_is_rejected(command):
    report = copy.deepcopy(_ok_reports()[command])
    report["results"]["notes"] = []
    with pytest.raises(jsonschema.ValidationError, match="notes"):
        VALIDATOR.validate(report)


def test_a_stationary_point_may_leave_out_its_minors_and_nothing_else():
    report = json.loads((GOLDEN / "overflowing_minors.stationary.json").read_text())
    (point,) = report["results"]["stationary_points"]["1"]
    assert "minors" not in point
    VALIDATOR.validate(report)
    for key in ("x", "grad_norm", "classification", "newton_iters"):
        broken = copy.deepcopy(report)
        del broken["results"]["stationary_points"]["1"][0][key]
        with pytest.raises(jsonschema.ValidationError, match=key):
            VALIDATOR.validate(broken)
