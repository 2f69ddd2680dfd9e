"""Every report validates against ``report.schema.json``, which gives each
command's ``results`` its own shape: a key that a command does not write
fails validation instead of slipping through.  Every report also reads
back with the types and bits of its numbers."""

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from randopt import _jsonout
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


# the benchmark's job lists, imported from their file; a dataclass needs
# its module in sys.modules
_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
)
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
BENCHMARK_JOBS = [
    (name, job) for name in ("local-2d", "global-grid", "wide-atoms")
    for job in workloads.WORKLOADS[name](1, str(ROOT))
]


@pytest.mark.parametrize(
    "job", [job for _, job in BENCHMARK_JOBS], ids=[f"{n}.{job.name}" for n, job in BENCHMARK_JOBS]
)
def test_every_benchmark_report_at_seed_1_validates(tmp_path, job):
    path, out = tmp_path / "doc.json", tmp_path / "report.json"
    path.write_text(json.dumps(job.doc))
    run(job.command, load_problem(str(path)), str(out))
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


# --- float encoding ------------------------------------------------------------


def _same(a, b) -> bool:
    """Equal, with the same type everywhere and the same bits in every float."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_every_report_reads_back_with_its_float_bits(tmp_path, monkeypatch):
    # -0.0 and integral floats must read back as floats, not as ints
    reports = []
    dumps = _jsonout.dumps
    monkeypatch.setattr(_jsonout, "dumps", lambda obj: reports.append(obj) or dumps(obj))
    out = tmp_path / "report.json"
    documents = sorted(GALLERY.glob("*.json"))
    for document in documents:
        for command in COMMANDS:
            run(command, load_problem(str(document)), str(out))
    path = tmp_path / "doc.json"
    for _, job in BENCHMARK_JOBS:
        path.write_text(json.dumps(job.doc))
        run(job.command, load_problem(str(path)), str(out))
    assert len(reports) == len(documents) * len(COMMANDS) + len(BENCHMARK_JOBS)
    for report in reports:
        assert _same(json.loads(dumps(report)), report), report["command"]


@settings(max_examples=300, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.0**53, -1e22])
    | st.integers(-(2**60), 2**60).map(float)
)
def test_a_finite_float_reads_back_with_its_bits(v):
    assert _same(json.loads(_jsonout.dumps({"v": [v]})), {"v": [v]})


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_a_non_finite_float_cannot_be_written(v):
    with pytest.raises(ValueError):
        _jsonout.dumps({"v": v})
