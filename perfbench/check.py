"""Reference checks for reports, independent of the code under test.

Each check takes the parsed report and the job's reference (built in
workloads.py from how the document was generated) and returns None when
the report agrees, or a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from workloads import BOX, objective_value

POINT_TOL = 1e-6  # closed-form points vs Newton-converged ones
VALUE_TOL = 1e-9  # reported grid values vs the objective recomputed here

# exit code -> report status, from the CLI contract in the README
STATUS = {0: "ok", 1: "refused", 2: "no_solution", 3: "input_error"}


def _near(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(abs(u - v) <= tol for u, v in zip(a, b))


def _minimizers(p: list, n: int) -> list[tuple]:
    return list(itertools.product(*[(p[i] - 1.0, p[i] + 1.0) for i in range(n)]))


def _near_minimizer(x: list, p: list, tol: float) -> bool:
    return any(_near(x, m, tol) for m in _minimizers(p, len(x)))


def _check_rlop(report: dict, ref: dict):
    # Two PD minimizers share the smallest x1 = p1 - 1, and Newton returns
    # each to within an ulp, so the lexicographic tie-break between them
    # depends on rounding: either x2 = p2 - 1 or x2 = p2 + 1 is canonical.
    sel = report["results"]["selection"]
    if not sel["measurable"]["measurable"]:
        return "selection not measurable"
    for s, p in ref["params"].items():
        x = sel["points"][s]
        if not (abs(x[0] - (p[0] - 1.0)) <= POINT_TOL and _near_minimizer(x, p, POINT_TOL)):
            return f"scenario {s}: point {x} is not a minimizer with x1 = {p[0] - 1.0}"
        first = str(ref["atoms"][s][0])
        if x != sel["points"][first]:
            return f"scenario {s}: point differs from its atom's first scenario"
    return None


def _stationary_class(x: list, p: list) -> str:
    zeros = sum(1 for u, q in zip(x, p) if abs(u - q) <= POINT_TOL)
    return "PD" if zeros == 0 else "ND" if zeros == len(x) else "indefinite"


def _check_stationary(report: dict, ref: dict):
    per = report["results"]["stationary_points"]
    for s, p in ref["params"].items():
        n = len(p) - 1
        want = list(itertools.product(*[(p[i] - 1.0, p[i], p[i] + 1.0) for i in range(n)]))
        got = per[s]
        if len(got) != len(want):
            return f"scenario {s}: {len(got)} stationary points, expected {len(want)}"
        for x in want:
            match = [sp for sp in got if _near(sp["x"], x, POINT_TOL)]
            if len(match) != 1:
                return f"scenario {s}: {len(match)} reported points at {list(x)}"
            if match[0]["classification"] != _stationary_class(x, p):
                return f"scenario {s}: {list(x)} classified {match[0]['classification']}"
    return None


def _check_necessary(report: dict, ref: dict):
    res = report["results"]
    if res["all_ok"] is not True:
        return "necessary conditions not all ok at the analytic minimizers"
    if not res["candidate_measurable"]["measurable"]:
        return "atom-constant candidate reported non-measurable"
    return None


def _grid_best(p: list, n: int, grid: int) -> float:
    """Smallest objective value over the grid nodes of the cells around the
    analytic minimizers; the grid minimum can be no larger."""
    axis = np.linspace(-BOX, BOX, grid)
    step = axis[1] - axis[0]
    best = math.inf
    for m in _minimizers(p, n):
        brackets = []
        for v in m:
            k = min(int((v + BOX) / step), grid - 2)
            brackets.append((float(axis[k]), float(axis[k + 1])))
        best = min(best, min(objective_value(x, p) for x in itertools.product(*brackets)))
    return best


def _check_grid_point(x: list, value: float, p: list, grid: int, what: str):
    # a grid argmin lies within one grid step of some analytic minimizer
    if not _near_minimizer(x, p, 2.0 * BOX / (grid - 1) * (1 + 1e-9)):
        return f"{what}: argmin {x} not within a grid step of a minimizer"
    if abs(value - objective_value(x, p)) > VALUE_TOL:
        return f"{what}: value {value} != f(argmin) {objective_value(x, p)}"
    if value > _grid_best(p, len(x), grid) + VALUE_TOL:
        return f"{what}: value {value} is not the grid minimum"
    return None


def _check_rop(report: dict, ref: dict):
    res = report["results"]
    sel = res["selection"]
    if not sel["measurable"]["measurable"]:
        return "selection not measurable"
    for s, p in ref["params"].items():
        bad = _check_grid_point(sel["points"][s], res["eta"][s], p, ref["grid"], f"scenario {s}")
        if bad:
            return bad
        first = str(ref["atoms"][s][0])
        if sel["points"][s] != sel["points"][first]:
            return f"scenario {s}: point differs from its atom's first scenario"
    return None


def _check_oracle(report: dict, ref: dict):
    res = report["results"]
    for s, p in ref["params"].items():
        one = res["per_scenario"][s]
        if one["grid_value"] != res["eta"][s]:
            return f"scenario {s}: eta differs from the grid value"
        bad = _check_grid_point(one["grid_x"], one["grid_value"], p, ref["grid"], f"scenario {s}")
        if bad:
            return bad
    return None


def _check_measurable(report: dict, ref: dict):
    res = report["results"]
    if not res["objective"]["measurable"]:
        return "objective reported non-measurable"
    if not res["feasible_set"]["measurable"]:
        return "feasible set reported non-measurable"
    want = ref["candidate_witness"]
    if want is None:
        return "unexpected candidate verdict" if "candidate" in res else None
    verdict = res.get("candidate")
    if verdict is None or verdict["measurable"]:
        return "non-measurable candidate not flagged"
    got = verdict["witness"]
    for key in ("atom", "scenario_a", "scenario_b"):
        if got[key] != want[key]:
            return f"candidate witness {key} = {got[key]}, expected {want[key]}"
    return None


CONTENT = {
    "rlop": _check_rlop,
    "stationary": _check_stationary,
    "necessary": _check_necessary,
    "rop": _check_rop,
    "oracle": _check_oracle,
    "measurable": _check_measurable,
}


def check_report(report: dict, code: int, ref: dict):
    """None when the report matches the reference, else the reason."""
    if code not in STATUS:
        return f"undocumented exit code {code}"
    if report.get("exit_code") != code:
        return f"report exit_code {report.get('exit_code')} != returned {code}"
    if report.get("status") != STATUS.get(code):
        return f"status {report.get('status')!r} does not match exit code {code}"
    if ref["kind"] == "documented":
        return None
    if code != ref["exit"]:
        return f"exit code {code}, expected {ref['exit']}"
    if ref["kind"] == "exit":
        return None
    try:
        return CONTENT[ref["kind"]](report, ref)
    except (KeyError, TypeError, IndexError) as e:
        return f"report lacks an expected field: {e!r}"
