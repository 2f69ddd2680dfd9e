"""The CLI contract on seeded random documents.

Every command on every document the schema accepts exits with a
documented code (0 to 3), writes a fresh report over a stale one, lets no
exception escape, and writes nothing to stderr but the one input-error
line.  The documents have 1 or 2 dimensions and use all five functions,
constants from 1e-300 to 1e300 and bounds up to +-1e308, over boxes, point
clouds and level sets, top-level or per scenario, with and without a
candidate.  Warnings are raised as errors, so a numpy warning that escapes
an ``errstate`` fails the run.
"""

import json
import random
import warnings

import pytest

from randopt.cli import COMMANDS, main

DOCUMENTS = 60


def _constant(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return float(rng.choice([0, 1, -1, 2, 0.5, -0.5]))
    return rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)


def _coordinate(rng: random.Random) -> float:
    if rng.random() < 0.8:
        return round(rng.uniform(-2.0, 2.0), 3)
    return rng.choice([1.0, -1.0]) * rng.choice([1e-300, 1e100, 1e300, 1.7e308])


def _expression(rng: random.Random, n: int, k: int, depth: int) -> str:
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        leaves = [f"x{i}" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, k + 1)]
        return rng.choice(leaves) if rng.random() < 0.7 else repr(_constant(rng))
    sub = _expression(rng, n, k, depth - 1)
    if roll < 0.5:
        return f"{rng.choice(['sin', 'cos', 'exp', 'log', 'sqrt'])}({sub})"
    if roll < 0.65:
        return f"({sub})^{rng.choice([2, 3, 4, -1, -2])}"
    op = rng.choice(["+", "-", "*", "/"])
    return f"({sub} {op} {_expression(rng, n, k, depth - 1)})"


def _box(rng: random.Random, n: int) -> dict:
    pairs = [sorted((_coordinate(rng), _coordinate(rng))) for _ in range(n)]
    return {"lower": [lo for lo, _ in pairs], "upper": [hi for _, hi in pairs]}


def _set(rng: random.Random, n: int, kind: str) -> dict:
    if kind == "box":
        return _box(rng, n)
    if kind == "point_cloud":
        return {"points": [[_coordinate(rng) for _ in range(n)] for _ in range(rng.randint(1, 4))]}
    return {"expressions": [_expression(rng, n, 0, 2)], "box": _box(rng, n)}


def random_document(seed: int) -> dict:
    rng = random.Random(seed)
    n, k = rng.randint(1, 2), rng.randint(0, 1)
    scenarios = list(range(1, rng.randint(1, 3) + 1))
    atoms = [[1]]
    for omega in scenarios[1:]:
        if rng.random() < 0.5:
            atoms.append([])
        atoms[-1].append(omega)
    doc = {
        "schema_version": 1,
        "space": {
            "scenarios": scenarios,
            "weights": [1.0 / len(scenarios)] * len(scenarios),
            "atoms": atoms,
        },
        "dimension": n,
        "objective": {"expression": _expression(rng, n, k, 3)},
        "options": {"grid": rng.randint(2, 9), "newton_grid": rng.randint(2, 4), "seed": seed},
    }
    if rng.random() < 0.4:  # a bowl, so that some documents have a minimizer
        bowl = " + ".join(f"(x{i} - 0.25)^2" for i in range(1, n + 1))
        doc["objective"]["expression"] = f"{bowl} + 1e-3*{doc['objective']['expression']}"
    if k:
        shared = [_constant(rng)]  # scenarios that share it are alike
        doc["objective"]["parameters"] = {
            str(s): shared if rng.random() < 0.7 else [_constant(rng)] for s in scenarios
        }
    if rng.random() < 0.8:
        doc["search_box"] = _box(rng, n)
    kind = rng.choice(["box", "point_cloud", "level_set", None])
    if kind is not None:
        if rng.random() < 0.5:
            doc["feasible_set"] = {"kind": kind, **_set(rng, n, kind)}
        else:
            per = {str(s): _set(rng, n, kind) for s in scenarios}
            doc["feasible_set"] = {"kind": kind, "per_scenario": per}
    if rng.random() < 0.5:
        doc["candidate"] = {str(s): [_coordinate(rng) for _ in range(n)] for s in scenarios}
    return doc


@pytest.mark.parametrize("seed", range(DOCUMENTS))
def test_every_command_keeps_the_cli_contract(tmp_path, capsys, seed):
    doc = random_document(seed)
    document = tmp_path / "problem.json"
    document.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    for command in COMMANDS:
        out.write_text("stale report from an earlier run")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--input", str(document), "--output", str(out)])
        captured = capsys.readouterr()
        report = json.loads(out.read_text())
        context = (command, json.dumps(doc))
        assert code in (0, 1, 2, 3), context
        assert (report["command"], report["exit_code"]) == (command, code), context
        if captured.err:
            message = report["error"]["message"]
            assert captured.err == f"randopt {command}: input error: {message}\n", context
