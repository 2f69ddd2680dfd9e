"""Command-line interface and machine-readable reports.

Exit codes: 0 solved/verified, 1 hypothesis refusal (with witness in the
report), 2 no solution exists, 3 input error, including documents a command
cannot evaluate and reports that cannot be written.  Reports are
deterministic for a fixed (document, seed) pair and are written atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from typing import Iterable, Optional, Sequence

from . import _jsonout
from .document import ProblemDocument, load_problem, with_overrides
from .errors import HypothesisViolation, RandoptError, SchemaError
from .optimize import (
    GlobalMinResult,
    _newton_diagnostics,
    global_min_per_scenario,
    stationary_searches,
)
from .probspace import (
    MeasurabilityVerdict,
    Witness,
    is_measurable_rv,
    is_measurable_setmap,
)
from .randfunc import Box, check_joint_measurability, default_probe_grid
from .selection import (
    Certificate,
    GlobalCert,
    NoPDStationaryPoint,
    NoStationaryPoints,
    Selection,
    check_necessary_conditions,
    solve_rlop,
    solve_rop,
)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_NO_SOLUTION = 2
EXIT_INPUT_ERROR = 3
# the report's status by exit code; the stdout line spells it with spaces
_STATUS = ("ok", "refused", "no_solution", "input_error")


# --- JSON rendering of domain objects ------------------------------------------


def _point_json(p: Iterable[float]) -> list:
    return [float(v) for v in p]


def _witness_json(w: Witness) -> dict:
    out = {"atom": list(w.atom), "scenario_a": w.scenario_a, "scenario_b": w.scenario_b}
    if math.isfinite(w.gap):  # an overflowing difference, or sets of other shapes
        out["gap"] = float(w.gap)
    if w.probe is not None:
        out["probe"] = _point_json(w.probe)
    if isinstance(w.value_a, (int, float)) and isinstance(w.value_b, (int, float)):
        out["value_a"] = float(w.value_a)
        out["value_b"] = float(w.value_b)
    elif isinstance(w.value_a, tuple) and isinstance(w.value_b, tuple):
        out["value_a"] = _point_json(w.value_a)
        out["value_b"] = _point_json(w.value_b)
    return out


def _verdict_json(v: MeasurabilityVerdict) -> dict:
    out = {"measurable": v.measurable}
    if v.witness is not None:
        out["witness"] = _witness_json(v.witness)
    return out


def _cert_json(cert: Certificate) -> dict:
    if isinstance(cert, GlobalCert):
        return {"kind": "global", "value": float(cert.value)}
    return {
        "kind": "local_min",
        "delta": float(cert.delta),
        "samples_checked": cert.samples_checked,
        "min_margin": float(cert.min_margin),
    }


def _selection_json(sel: Selection) -> dict:
    return {
        "points": {str(s): _point_json(sel.points[s]) for s in sel.space.scenarios},
        "measurable": _verdict_json(sel.measurable),
        "certificates": {
            str(s): _cert_json(sel.certificates[s]) for s in sel.space.scenarios
        },
    }


def _stationary_point_json(sp) -> dict:
    out = {"x": _point_json(sp.x), "grad_norm": float(sp.grad_norm)}
    if all(map(math.isfinite, sp.minors)):  # a minor may overflow, as a gap may
        out["minors"] = _point_json(sp.minors)
    out["classification"] = sp.classification.value
    out["newton_iters"] = sp.newton_iters
    return out


def _global_min_json(res: GlobalMinResult) -> dict:
    return {
        "grid_x": _point_json(res.grid_x),
        "grid_value": float(res.grid_value),
        "excluded": res.excluded,
    }


# --- command implementations -----------------------------------------------------


def _probe_region(doc: ProblemDocument) -> Box:
    if doc.search_box is not None:
        return doc.search_box
    if doc.feasible is not None:
        return doc.feasible.bounding_box()
    raise SchemaError(
        "/search_box", "this command needs a search_box or a feasible_set"
    )


def _require(condition: bool, pointer: str, message: str) -> None:
    if not condition:
        raise SchemaError(pointer, message)


def _cmd_check_measurable(doc: ProblemDocument) -> tuple[int, dict, dict]:
    region = _probe_region(doc)
    results = {
        "objective": _verdict_json(
            check_joint_measurability(doc.rf, default_probe_grid(region))
        )
    }
    if doc.feasible is not None:
        results["feasible_set"] = _verdict_json(is_measurable_setmap(doc.space, doc.feasible))
    if doc.candidate is not None:
        results["candidate"] = _verdict_json(
            is_measurable_rv(doc.space, doc.candidate, tol=0.0)
        )
    return EXIT_OK, results, {}


def _cmd_stationary(doc: ProblemDocument) -> tuple[int, dict, dict]:
    _require(doc.search_box is not None, "/search_box", "stationary needs a search_box")

    scenarios = doc.space.scenarios
    searches = stationary_searches(doc.rf, scenarios, doc.search_box, doc.options)
    per_scenario = {
        str(omega): [_stationary_point_json(sp) for sp in search.points]
        for omega, search in zip(scenarios, searches)
    }
    return EXIT_OK, {"stationary_points": per_scenario}, dict(_newton_diagnostics(searches))


def _cmd_necessary(doc: ProblemDocument) -> tuple[int, dict, dict]:
    _require(doc.candidate is not None, "/candidate", "necessary needs a candidate")
    report = check_necessary_conditions(doc.rf, doc.space, doc.candidate)
    per = {}
    for omega in doc.space.scenarios:
        c = report.per_scenario[omega]
        per[str(omega)] = {
            "grad_ok": c.grad_ok,
            "psd_ok": c.psd_ok,
            "grad_norm": float(c.grad_norm),
            "classification": c.classification.value,
        }
    results = {
        "per_scenario": per,
        "candidate_measurable": _verdict_json(report.measurable),
        "all_ok": report.all_ok,
    }
    return EXIT_OK, results, {}


def _cmd_oracle(doc: ProblemDocument) -> tuple[int, dict, dict]:
    if doc.feasible is not None:
        descs = doc.feasible.descriptions
    else:
        _require(
            doc.search_box is not None,
            "/feasible_set",
            "oracle needs a feasible_set or a search_box",
        )
        descs = {s: doc.search_box for s in doc.space.scenarios}

    results = global_min_per_scenario(doc.rf, descs, doc.options.grid_m)
    eta = {}
    per = {}
    excluded = 0
    for omega in doc.space.scenarios:
        res = results[omega]
        eta[str(omega)] = float(res.grid_value)
        per[str(omega)] = _global_min_json(res)
        excluded += res.excluded
    return (
        EXIT_OK,
        {"eta": eta, "per_scenario": per},
        {"excluded_grid_points": excluded},
    )


def _cmd_solve_rop(doc: ProblemDocument) -> tuple[int, dict, dict]:
    _require(doc.feasible is not None, "/feasible_set", "solve-rop needs a feasible_set")
    sel = solve_rop(doc.rf, doc.space, doc.feasible, doc.options)
    # the certificate values are the computed optimal values eta(omega)
    results = {
        "selection": _selection_json(sel),
        "eta": {str(s): float(sel.certificates[s].value) for s in doc.space.scenarios},
    }
    return EXIT_OK, results, dict(sel.diagnostics)


def _cmd_solve_rlop(doc: ProblemDocument) -> tuple[int, dict, dict]:
    _require(doc.search_box is not None, "/search_box", "solve-rlop needs a search_box")
    outcome = solve_rlop(doc.rf, doc.space, doc.search_box, doc.options)
    if isinstance(outcome, (NoStationaryPoints, NoPDStationaryPoint)):
        return EXIT_NO_SOLUTION, {"kind": type(outcome).__name__, "atom": list(outcome.atom)}, {}
    return EXIT_OK, {"selection": _selection_json(outcome)}, dict(outcome.diagnostics)


_DISPATCH = {
    "solve-rop": _cmd_solve_rop,
    "solve-rlop": _cmd_solve_rlop,
    "check-measurable": _cmd_check_measurable,
    "stationary": _cmd_stationary,
    "necessary": _cmd_necessary,
    "oracle": _cmd_oracle,
}
COMMANDS = tuple(_DISPATCH)


# --- run + report ------------------------------------------------------------------


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.  An
    OSError names ``path``, never the temporary file's random name."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".randopt-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:  # the same subclass, from its errno
        raise OSError(e.errno, e.strerror, path) from None


def _report(command: str, code: int, body: dict, doc: Optional[ProblemDocument] = None) -> str:
    """The report's text: the header, with the run's options and scenarios
    if a document was loaded, then ``code``'s status, ``body`` and ``code``."""
    report = {"schema_version": 1, "command": command}
    if doc is not None:
        report["seed"] = doc.options.seed
        report["grid"] = doc.options.grid_m
        report["scenarios"] = list(doc.space.scenarios)
    report["status"] = _STATUS[code]
    report.update(body)
    report["exit_code"] = code
    return _jsonout.dumps(report)


def _input_error(e: Exception) -> dict:
    """The body of an input error's report."""
    return {"error": {"type": type(e).__name__, "message": str(e)}}


def run(command: str, doc: ProblemDocument, output_path: str) -> int:
    """Execute one command against a loaded document and write the report."""
    if command not in _DISPATCH:
        raise ValueError(f"unknown command {command!r}")
    try:
        code, results, diagnostics = _DISPATCH[command](doc)
        key = "no_solution" if code == EXIT_NO_SOLUTION else "results"
        body = {key: results, "diagnostics": diagnostics}
    except HypothesisViolation as e:
        code = EXIT_REFUSED
        refusal = {"error": type(e).__name__, "message": str(e)}
        if e.witness is not None:
            refusal["witness"] = _witness_json(e.witness)
        body = {"refusal": refusal}
    except RandoptError as e:
        code, body = EXIT_INPUT_ERROR, _input_error(e)
    _write_atomic(output_path, _report(command, code, body, doc))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="randopt",
        description="Solve and verify scenario-indexed optimization problems.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="problem document (JSON)")
    parser.add_argument("--output", required=True, help="report path (JSON)")
    parser.add_argument("--grid", type=int, default=None, help="grid points per dimension")
    parser.add_argument("--seed", type=int, default=None, help="sampling seed")
    args = parser.parse_args(argv)

    # a document that cannot be read and a report that cannot be written
    # both end here, with the same exit code and no traceback
    try:
        doc = with_overrides(load_problem(args.input), grid=args.grid, seed=args.seed)
        code = run(args.command, doc, args.output)
    except (RandoptError, OSError) as e:
        try:
            _write_atomic(args.output, _report(args.command, EXIT_INPUT_ERROR, _input_error(e)))
        except OSError:
            pass
        print(f"randopt {args.command}: input error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    status = _STATUS[code].replace("_", " ")
    print(f"randopt {args.command}: {status} (exit {code}); report: {args.output}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
