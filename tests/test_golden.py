"""Fresh reports must equal the golden reports in tests/golden/ byte for byte.

A numeric change anywhere in a pipeline shows up here; regenerate the
golden files with tests/golden/regen.py only when the change is intended.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize(
    "document,command",
    regen.CORPUS,
    ids=[f"{doc.stem}.{command}" for doc, command in regen.CORPUS],
)
def test_report_matches_golden(tmp_path, document, command):
    out = tmp_path / "report.json"
    regen.write_report(document, command, out)
    assert out.read_bytes() == regen.golden_path(document, command).read_bytes()


def test_no_stale_golden_files():
    expected = {regen.golden_path(doc, command).name for doc, command in regen.CORPUS}
    present = {p.name for p in regen.HERE.glob("*.json")}
    assert present == expected


@pytest.mark.parametrize("stem", ["square_rounding", "exp_rounding"])
def test_certificate_value_equals_eta(tmp_path, stem):
    # solve-rlop certifies with the compiled bundles and oracle scans with
    # eval_grid; on p1^2 and exp(p1) they must give the same bits
    values = {}
    for command in ("solve-rlop", "oracle"):
        out = tmp_path / f"{command}.json"
        regen.write_report(regen.DOCUMENTS / f"{stem}.json", command, out)
        values[command] = json.loads(out.read_text())["results"]
    certificate = values["solve-rlop"]["selection"]["certificates"]["1"]["value"]
    assert float(certificate) == float(values["oracle"]["eta"]["1"])
