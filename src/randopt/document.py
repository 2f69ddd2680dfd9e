"""Problem documents: the JSON surface of the library.

A document declares the probability space, the objective (expression plus
per-scenario parameter vectors), an optional feasible set, an optional
search box, and solver options.  Loading validates against the bundled
JSON schema first, then rebuilds every domain object so all type
invariants are enforced with a JSON-pointer diagnostic on failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

import jsonschema

from . import exprlang
from .errors import (
    IncompatibleRepresentation,
    PartitionError,
    SchemaError,
    WeightSumError,
)
from .optimize import SolverOptions
from .probspace import ProbSpace, RandomVariableRn, Scenario, make_space
from .randfunc import Box, LevelSet, PointCloud, RandomFunction, RandomSet


@dataclass(frozen=True)
class ProblemDocument:
    space: ProbSpace
    n: int
    objective_source: str
    rf: RandomFunction
    feasible: Optional[RandomSet]
    search_box: Optional[Box]
    candidate: Optional[RandomVariableRn]
    options: SolverOptions


def _schema() -> dict:
    text = resources.files("randopt").joinpath("schemas/problem.schema.json").read_text()
    return json.loads(text)


def _validate_schema(raw: dict, schema: dict, prefix: str = "") -> None:
    """Raise SchemaError at the first violation of ``schema`` by ``raw``,
    pointing below ``prefix``, the location of ``raw`` in a document."""
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(
        validator.iter_errors(raw),
        key=lambda e: (list(map(str, e.absolute_path)), e.message),
    )
    if errors:
        err = errors[0]
        pointer = prefix + "".join(f"/{p}" for p in err.absolute_path)
        raise SchemaError(pointer, err.message)


def _reject_non_finite(value: object, pointer: str) -> None:
    """Raise SchemaError at the first NaN, infinity or integer too large
    for a float, in document order.

    ``json.load`` accepts ``NaN``, ``Infinity`` and overflowing literals
    such as ``1e400``; a NaN distance never exceeds a tolerance, so such a
    number would make the measurability checks pass unseen.  An integer
    such as ``1`` followed by 400 zeros stays an int, and ``float()``
    would raise OverflowError on it.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(pointer, f"number {value!r} is not finite")
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            float(value)
        except OverflowError:
            raise SchemaError(pointer, "integer is too large for a float") from None
    if isinstance(value, dict):
        for key, item in value.items():
            escaped = key.replace("~", "~0").replace("/", "~1")
            _reject_non_finite(item, f"{pointer}/{escaped}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{pointer}/{i}")


def _scenario_key(scenario: Scenario) -> str:
    return str(scenario)


def _lookup_per_scenario(
    mapping: dict, space: ProbSpace, pointer: str
) -> dict[Scenario, object]:
    """Resolve a JSON object keyed by str(scenario) against the space."""
    by_key = {_scenario_key(s): s for s in space.scenarios}
    out = {}
    for key, value in mapping.items():
        if key not in by_key:
            raise SchemaError(f"{pointer}/{key}", "unknown scenario id")
        out[by_key[key]] = value
    missing = [s for s in space.scenarios if s not in out]
    if missing:
        raise SchemaError(
            pointer, f"missing entries for scenarios {[_scenario_key(s) for s in missing]}"
        )
    return out


def _build_box(raw: dict, n: int, pointer: str) -> Box:
    lower, upper = raw["lower"], raw["upper"]
    if len(lower) != n or len(upper) != n:
        raise SchemaError(pointer, f"bounds must have length {n}")
    try:
        return Box(tuple(float(v) for v in lower), tuple(float(v) for v in upper))
    except IncompatibleRepresentation as e:
        raise SchemaError(pointer, str(e)) from None


def _build_feasible(
    raw: dict, space: ProbSpace, rf: RandomFunction, n: int, k: int
) -> RandomSet:
    kind = raw["kind"]
    per_scenario = raw.get("per_scenario")

    def fields_for(omega: Scenario) -> tuple[dict, str]:
        if per_scenario is not None:
            key = _scenario_key(omega)
            if key not in per_scenario:
                raise SchemaError(
                    f"/feasible_set/per_scenario/{key}", "missing scenario entry"
                )
            return per_scenario[key], f"/feasible_set/per_scenario/{key}"
        return raw, "/feasible_set"

    descs = {}
    for omega in space.scenarios:
        fields, pointer = fields_for(omega)
        if kind == "box":
            if "lower" not in fields or "upper" not in fields:
                raise SchemaError(pointer, "box needs 'lower' and 'upper'")
            descs[omega] = _build_box(fields, n, pointer)
        elif kind == "point_cloud":
            points = fields.get("points")
            if not points:
                raise SchemaError(pointer, "point_cloud needs nonempty 'points'")
            for i, p in enumerate(points):
                if len(p) != n:
                    raise SchemaError(f"{pointer}/points/{i}", f"point must have length {n}")
            descs[omega] = PointCloud(tuple(tuple(float(v) for v in p) for p in points))
        else:  # level_set
            exprs = fields.get("expressions")
            if not exprs:
                raise SchemaError(pointer, "level_set needs nonempty 'expressions'")
            if "box" not in fields:
                raise SchemaError(pointer, "level_set needs a bounding 'box'")
            box = _build_box(fields["box"], n, f"{pointer}/box")
            parsed = tuple(exprlang.parse(text, n, k) for text in exprs)
            descs[omega] = LevelSet(parsed, rf.params_of(omega), box)
    return RandomSet(space, descs)


def load_problem(path: str) -> ProblemDocument:
    """Load, schema-validate, and fully construct a problem document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as e:  # JSONDecodeError, or an int over 4300 digits
            raise SchemaError("", f"invalid JSON: {e}") from None
    _reject_non_finite(raw, "")
    _validate_schema(raw, _schema())

    sp = raw["space"]
    try:
        space = make_space(sp["scenarios"], sp["weights"], sp["atoms"])
    except WeightSumError as e:
        raise SchemaError("/space/weights", str(e)) from None
    except PartitionError as e:
        raise SchemaError("/space/atoms", str(e)) from None

    n = raw["dimension"]
    source = raw["objective"]["expression"]
    raw_params = raw["objective"].get("parameters")
    if raw_params is None:
        params = {s: () for s in space.scenarios}
        k = 0
    else:
        resolved = _lookup_per_scenario(raw_params, space, "/objective/parameters")
        lengths = {len(v) for v in resolved.values()}
        if len(lengths) != 1:
            raise SchemaError(
                "/objective/parameters",
                f"parameter vectors have inconsistent lengths {sorted(lengths)}",
            )
        k = lengths.pop()
        params = {s: tuple(float(v) for v in vec) for s, vec in resolved.items()}
    body = exprlang.parse(source, n, k)  # ParseError/DimensionError propagate
    rf = RandomFunction(space, n, body, params)

    search_box = None
    if "search_box" in raw:
        search_box = _build_box(raw["search_box"], n, "/search_box")

    feasible = None
    if "feasible_set" in raw:
        feasible = _build_feasible(raw["feasible_set"], space, rf, n, k)

    candidate = None
    if "candidate" in raw:
        resolved = _lookup_per_scenario(raw["candidate"], space, "/candidate")
        for s, vec in resolved.items():
            if len(vec) != n:
                raise SchemaError(
                    f"/candidate/{_scenario_key(s)}", f"point must have length {n}"
                )
        candidate = RandomVariableRn(
            space, {s: tuple(float(v) for v in vec) for s, vec in resolved.items()}
        )

    opts = SolverOptions()
    if "options" in raw:
        o = raw["options"]
        opts = replace(
            opts,
            grid_m=o.get("grid", opts.grid_m),
            newton_grid_m=o.get("newton_grid", opts.newton_grid_m),
            seed=o.get("seed", opts.seed),
        )

    return ProblemDocument(space, n, source, rf, feasible, search_box, candidate, opts)


def with_overrides(
    doc: ProblemDocument, grid: Optional[int] = None, seed: Optional[int] = None
) -> ProblemDocument:
    """``doc`` with the grid and seed options replaced where given.

    The values are held to the schema's rules for ``options.grid`` and
    ``options.seed``, as if the document had set them.
    """
    raw = {name: v for name, v in (("grid", grid), ("seed", seed)) if v is not None}
    if not raw:
        return doc
    _validate_schema(raw, _schema()["properties"]["options"], "/options")
    options = replace(
        doc.options,
        grid_m=raw.get("grid", doc.options.grid_m),
        seed=raw.get("seed", doc.options.seed),
    )
    return replace(doc, options=options)
