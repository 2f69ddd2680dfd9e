"""Scenarios that share an answer share its report fragment: one object,
which ``_jsonout.dumps`` renders once.

- solve-rop and solve-rlop: every scenario of an atom shares the atom's
  point and certificate;
- stationary: every scenario of a distinct parameter vector shares its
  list of stationary points;
- oracle, and ``global_min_per_scenario`` itself: every scenario of a
  distinct (parameter vector, set description) input shares its result.

Distinct inputs are told apart by their bits here, so 0.0 and -0.0 are two
inputs.  The reports are collected by wrapping ``_jsonout.dumps``."""

import json

import pytest

from randopt import _jsonout, cli
from randopt.document import load_problem
from randopt.optimize import global_min_per_scenario

A, B, A_NEG = [0.0, 0.5], [1.0, -0.5], [-0.0, 0.5]  # A_NEG == A, in other bits
ATOMS = [[1, 2, 3], [4, 5], [6]]
BOX = {"lower": [-3.0, -3.0], "upper": [3.0, 3.0]}
OTHER_BOX = {"lower": [-3.0, -2.0], "upper": [3.0, 3.0]}


def _document(params, boxes=None):
    n = len(params)
    doc = {
        "schema_version": 1,
        "space": {"scenarios": list(range(1, n + 1)), "weights": [1.0 / n] * n, "atoms": ATOMS},
        "dimension": 2,
        "objective": {
            "expression": "((x1 - p1)^2 - 1)^2 + ((x2 - p2)^2 - 1)^2",
            "parameters": {str(s): p for s, p in enumerate(params, 1)},
        },
        "search_box": BOX,
        "feasible_set": {"kind": "box", **BOX},
        "options": {"grid": 41, "newton_grid": 5, "seed": 0},
    }
    if boxes is not None:
        doc["feasible_set"] = {
            "kind": "box",
            "per_scenario": {str(s): b for s, b in enumerate(boxes, 1)},
        }
    return doc


# atoms of one parameter vector each, as solve-rop and solve-rlop need;
# atom [6] shares atom [1, 2, 3]'s vector
ATOM_CONSTANT = _document([A, A, A, B, B, A])
# inputs that cross atoms: {1, 3, 5}, {2, 4} and {6}
ACROSS_ATOMS = _document([A, B, A, B, A, A_NEG])
# per-scenario boxes split {1, 3, 5} into {1, 5} and {3}
BOXED = _document([A, B, A, B, A, A_NEG], [BOX, BOX, OTHER_BOX, BOX, BOX, BOX])


def _groups(doc) -> list[list[str]]:
    """The scenarios of each distinct input, keyed by bits."""
    groups: dict[tuple, list[str]] = {}
    per_scenario = doc["feasible_set"].get("per_scenario", {})
    for s, p in doc["objective"]["parameters"].items():
        box = per_scenario.get(s, BOX)
        key = tuple(float(v).hex() for v in [*p, *box["lower"], *box["upper"]])
        groups.setdefault(key, []).append(s)
    return list(groups.values())


def _report(tmp_path, monkeypatch, doc, command) -> dict:
    reports = []
    dumps = _jsonout.dumps
    monkeypatch.setattr(_jsonout, "dumps", lambda obj: reports.append(obj) or dumps(obj))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.run(command, load_problem(str(path)), str(tmp_path / "out.json")) == 0
    (report,) = reports
    return report


def _assert_shared(fragments: dict, groups) -> None:
    assert sorted(fragments, key=int) == sorted((s for g in groups for s in g), key=int)
    for group in groups:
        assert all(fragments[s] is fragments[group[0]] for s in group), group


@pytest.mark.parametrize("command", ["solve-rop", "solve-rlop"])
def test_every_scenario_of_an_atom_shares_its_point_and_certificate(
    tmp_path, monkeypatch, command
):
    selection = _report(tmp_path, monkeypatch, ATOM_CONSTANT, command)["results"]["selection"]
    atoms = [[str(s) for s in atom] for atom in ATOMS]
    _assert_shared(selection["points"], atoms)
    _assert_shared(selection["certificates"], atoms)


@pytest.mark.parametrize("doc", [ATOM_CONSTANT, ACROSS_ATOMS], ids=["atoms", "across-atoms"])
def test_every_scenario_of_a_parameter_vector_shares_its_stationary_points(
    tmp_path, monkeypatch, doc
):
    results = _report(tmp_path, monkeypatch, doc, "stationary")["results"]
    _assert_shared(results["stationary_points"], _groups(doc))


@pytest.mark.parametrize("doc", [ACROSS_ATOMS, BOXED], ids=["one-box", "per-scenario-boxes"])
def test_every_scenario_of_an_input_shares_its_oracle_result(tmp_path, monkeypatch, doc):
    results = _report(tmp_path, monkeypatch, doc, "oracle")["results"]
    groups = _groups(doc)
    assert len(groups) == (3 if doc is ACROSS_ATOMS else 4)
    _assert_shared(results["per_scenario"], groups)


@pytest.mark.parametrize("doc", [ACROSS_ATOMS, BOXED], ids=["one-box", "per-scenario-boxes"])
def test_global_min_per_scenario_returns_one_result_per_input(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    loaded = load_problem(str(path))
    results = global_min_per_scenario(loaded.rf, loaded.feasible.descriptions, 9)
    _assert_shared({str(s): res for s, res in results.items()}, _groups(doc))
