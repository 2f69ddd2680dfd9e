"""Problem documents: the JSON surface of the library.

A document declares the probability space, the objective (expression plus
per-scenario parameter vectors), an optional feasible set, an optional
search box, and solver options.  Loading validates against the bundled
JSON schema first, then rebuilds every domain object so all type
invariants are enforced with a JSON-pointer diagnostic on failure.

Validation is one walk compiled from the bundled schema, once per process,
that answers only whether a document is clean: schema-valid and free of
NaN, infinities and integers too large for a float.  ``_validate`` holds
the document, a feasible set's per-scenario entry and the option overrides
to that walk alike; only a part that is not clean goes through
``_reject_non_finite`` and jsonschema, which word the rejection; so
jsonschema is imported only to explain one.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Callable, Optional

from . import exprlang
from .errors import (
    IncompatibleRepresentation,
    PartitionError,
    SchemaError,
    WeightSumError,
)
from .optimize import SolverOptions
from .probspace import ProbSpace, RandomVariableRn, Scenario, make_space
from .randfunc import (
    Box,
    LevelSet,
    PointCloud,
    RandomFunction,
    RandomSet,
    SetDescription,
    exact_key,
)


@dataclass(frozen=True)
class ProblemDocument:
    space: ProbSpace
    n: int
    rf: RandomFunction
    feasible: Optional[RandomSet]
    search_box: Optional[Box]
    candidate: Optional[RandomVariableRn]
    options: SolverOptions


def _validate_schema(raw: object, schema: dict, prefix: str) -> None:
    """Raise SchemaError at the first violation of ``schema`` by ``raw``,
    pointing below ``prefix``, the location of ``raw`` in a document."""
    import jsonschema  # only a document that is not clean pays for the import

    validator = jsonschema.Draft202012Validator(schema)
    # document order: array indices compare as ints, so /10 follows /2
    errors = sorted(
        validator.iter_errors(raw),
        key=lambda e: ([(isinstance(k, str), k) for k in e.absolute_path], e.message),
    )
    if errors:
        err = errors[0]
        raise SchemaError(functools.reduce(_child, err.absolute_path, prefix), err.message)


def _child(pointer: str, key: object) -> str:
    """The JSON pointer to member ``key`` of the object or array at
    ``pointer``, with ``~`` and ``/`` escaped as RFC 6901 asks."""
    return pointer + "/" + str(key).replace("~", "~0").replace("/", "~1")


def _reject_non_finite(value: object, pointer: str) -> None:
    """Raise SchemaError at the first NaN, infinity or integer too large
    for a float, in document order.

    ``json.load`` accepts ``NaN``, ``Infinity`` and overflowing literals
    such as ``1e400``; a NaN distance never exceeds a tolerance, so such a
    number would make the measurability checks pass unseen.  An integer
    such as ``1`` followed by 400 zeros stays an int, and ``float()``
    would raise OverflowError on it.
    """
    if type(value) is float and not _is_number(value):
        raise SchemaError(pointer, f"number {value!r} is not finite")
    if type(value) is int and not _is_number(value):
        raise SchemaError(pointer, "integer is too large for a float")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, _child(pointer, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, _child(pointer, i))


# --- the compiled walk -----------------------------------------------------------

_Check = Callable[[object], bool]

_DIALECT = "https://json-schema.org/draft/2020-12/schema"
_KEYWORDS = frozenset({
    "type", "properties", "required", "additionalProperties", "items",
    "minItems", "minimum", "const", "enum", "$ref",
})
_ROOT_ONLY = frozenset({"$schema", "$id", "title", "$defs"})


def _fits_float(value: int) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _clean(value: object) -> bool:
    """Whether ``value`` holds no NaN, infinity or integer too large for a
    float at any depth: the check of a schema that constrains nothing.
    A type ``json.load`` never returns is not clean."""
    t = type(value)
    if t is dict:
        return all(map(_clean, value.values()))
    if t is list:
        return all(map(_clean, value))
    return _is_number(value) or t is str or t is bool or value is None


def _is_number(value: object) -> bool:
    t = type(value)
    if t is float:
        return math.isfinite(value)
    return t is int and _fits_float(value)


def _is_integer(value: object) -> bool:
    t = type(value)
    if t is float:
        return value.is_integer()  # 1.0 is an integer; NaN and inf are not
    return t is int and _fits_float(value)


# draft 2020-12 types, on what json.load returns; a bool is neither a number
# nor an integer, and a number passes only when it is finite
_TYPES: dict[str, _Check] = {
    "number": _is_number,
    "integer": _is_integer,
    "string": lambda v: type(v) is str,
    "array": lambda v: type(v) is list,
    "object": lambda v: type(v) is dict,
}
_SCALAR_TYPES = frozenset({"number", "integer", "string"})


def _never(value: object) -> bool:
    return False


def _either(first: _Check, second: _Check) -> _Check:
    """The check of a union type: one ``or`` of two checks, with no
    generator built per value."""
    return lambda v: first(v) or second(v)


def _json_equal(a: object, b: object) -> bool:
    """Draft 2020-12 equality with a scalar ``b``: 1 equals 1.0, but a bool
    equals only a bool."""
    return (type(a) is bool) == (type(b) is bool) and a == b


class _SchemaCompiler:
    """Compiles a schema into a check that answers only "clean or not".

    A check returning True means the value satisfies the schema and holds
    no NaN, infinity or integer too large for a float, anywhere inside it.
    A keyword without a compiled check raises ValueError, so a schema edit
    cannot pass the walk unseen.
    """

    def __init__(self, root: dict):
        if root.get("$schema", _DIALECT) != _DIALECT:
            raise ValueError(f"no compiled check for dialect {root['$schema']!r}")
        self.defs = root.get("$defs", {})
        self.refs: dict[str, Optional[_Check]] = {}

    def compile(self, schema: object, root: bool = False) -> _Check:
        if schema is True:
            return _clean
        if schema is False:
            return _never
        if not isinstance(schema, dict):
            raise ValueError(f"no compiled check for schema {schema!r}")
        unknown = set(schema) - _KEYWORDS - (_ROOT_ONLY if root else set())
        if unknown:
            raise ValueError(f"no compiled check for schema keywords {sorted(unknown)}")

        checks: list[_Check] = []
        covered = False  # whether the checks so far imply the value is clean
        if "$ref" in schema:
            checks.append(self._ref(schema["$ref"]))
            covered = True
        if "type" in schema:
            names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
            if not names or any(name not in _TYPES for name in names):
                raise ValueError(f"no compiled check for type {schema['type']!r}")
            checks.append(functools.reduce(_either, (_TYPES[name] for name in names)))
            covered = covered or _SCALAR_TYPES.issuperset(names)
        for key in ("const", "enum"):
            if key not in schema:
                continue
            allowed = tuple(schema[key]) if key == "enum" else (schema[key],)
            if any(type(a) not in (str, int, float, bool, type(None)) for a in allowed):
                raise ValueError(f"no compiled check for {key} {schema[key]!r}")
            checks.append(lambda v, allowed=allowed: any(_json_equal(v, a) for a in allowed))
        if "minimum" in schema:
            low = schema["minimum"]
            checks.append(lambda v: not (type(v) is int or type(v) is float) or v >= low)
        if "minItems" in schema:
            least = schema["minItems"]
            checks.append(lambda v: type(v) is not list or len(v) >= least)
        if "required" in schema:
            required = tuple(schema["required"])
            checks.append(lambda v: type(v) is not dict or all(k in v for k in required))
        structural = ("properties", "additionalProperties", "items")
        if not covered or any(k in schema for k in structural):
            checks.append(self._children(schema))

        if len(checks) == 1:
            return checks[0]
        checks_t = tuple(checks)

        def check(value: object) -> bool:
            for c in checks_t:
                if not c(value):
                    return False
            return True

        return check

    def _children(self, schema: dict) -> _Check:
        """The check of a value's members; a scalar must be finite."""
        props = {k: self.compile(s) for k, s in schema.get("properties", {}).items()}
        extra = self.compile(schema.get("additionalProperties", True))
        items = self.compile(schema.get("items", True))

        def children(value: object) -> bool:
            t = type(value)
            if t is dict:
                for key, item in value.items():
                    if not props.get(key, extra)(item):
                        return False
                return True
            if t is list:
                return all(map(items, value))
            return _clean(value)

        return children

    def _ref(self, target: str) -> _Check:
        name = target.removeprefix("#/$defs/")
        if name == target or name not in self.defs:
            raise ValueError(f"no compiled check for $ref {target!r}")
        if name not in self.refs:
            self.refs[name] = None  # marks a $ref that reaches itself
            self.refs[name] = self.compile(self.defs[name])
        check = self.refs[name]
        if check is None:
            raise ValueError(f"no compiled check for the recursive $ref {target!r}")
        return check


# the SolverOptions field that each document option sets
_OPTION_FIELDS = {"grid": "grid_m", "newton_grid": "newton_grid_m", "seed": "seed"}

# the fields of a feasible set that each kind reads
_KIND_FIELDS = {
    "box": ("lower", "upper"),
    "point_cloud": ("points",),
    "level_set": ("expressions", "box"),
}


@functools.cache
def _parts() -> dict[str, tuple[dict, _Check]]:
    """The bundled schema and its compiled check of each part of a document
    that is validated on its own: the ``document``, a feasible set's
    per-scenario ``entry`` and the ``options``."""
    text = resources.files("randopt").joinpath("schemas/problem.schema.json").read_text()
    schema = json.loads(text)
    compiler = _SchemaCompiler(schema)
    # an entry's fields obey the schema of the same top-level fields
    entry = {
        "type": "object",
        "properties": schema["properties"]["feasible_set"]["properties"],
        "$defs": schema["$defs"],
    }
    parts = {"document": schema, "entry": entry, "options": schema["properties"]["options"]}
    return {name: (s, compiler.compile(s, root=True)) for name, s in parts.items()}


def _validate(value: object, pointer: str, part: str) -> None:
    """Raise SchemaError at the first fault of ``value``, the ``part`` of a
    document at ``pointer``: a number that is not finite first, in document
    order, then a schema violation."""
    schema, check = _parts()[part]
    if not check(value):  # word the rejection, or accept after all
        _reject_non_finite(value, pointer)
        _validate_schema(value, schema, pointer)


def _scenario_key(scenario: Scenario) -> str:
    return str(scenario)


def _integer(value: object) -> object:
    """The schema admits an integer-valued float such as 1.0 wherever it
    asks for an integer; it means the int 1, so the run and its report are
    those of the int spelling.  A string scenario id is returned as it is."""
    return int(value) if type(value) is float else value


def _with_options(opts: SolverOptions, raw: dict) -> SolverOptions:
    """``opts`` with each field that the validated ``options`` object
    ``raw`` sets replaced."""
    return replace(opts, **{_OPTION_FIELDS[name]: _integer(v) for name, v in raw.items()})


def _lookup_per_scenario(
    mapping: dict, index: dict[str, Scenario], pointer: str
) -> dict[Scenario, object]:
    """Resolve a JSON object keyed by str(scenario) against ``index``, each
    of the space's scenarios under its key, in the space's order."""
    out = {}
    for key, value in mapping.items():
        if key not in index:
            raise SchemaError(_child(pointer, key), "unknown scenario id")
        out[index[key]] = value
    if len(out) < len(index):
        missing = [key for key, s in index.items() if s not in out]
        raise SchemaError(pointer, f"missing entries for scenarios {missing}")
    return out


def _shared_vectors(resolved: dict[Scenario, list]) -> dict[Scenario, tuple[float, ...]]:
    """Each scenario's validated vector as a tuple of floats, with one
    tuple per distinct bit pattern (``exact_key``): scenarios whose vectors
    have the same bits hold one object, which every later step checks,
    keys and compares once.  ``1`` and ``1.0`` share; ``0.0`` and ``-0.0``
    do not.  The raw vector is keyed before a tuple is built, so a repeat
    builds none: it holds finite ints and floats only, which ``exact_key``
    packs as ``float()`` converts them."""
    distinct: dict[bytes, tuple[float, ...]] = {}
    out = {}
    for s, vec in resolved.items():
        key = exact_key(vec)
        t = distinct.get(key)
        if t is None:
            t = distinct[key] = tuple(map(float, vec))
        out[s] = t
    return out


def _build_box(raw: dict, n: int, pointer: str) -> Box:
    lower, upper = raw["lower"], raw["upper"]
    if len(lower) != n or len(upper) != n:
        raise SchemaError(pointer, f"bounds must have length {n}")
    try:
        return Box(tuple(float(v) for v in lower), tuple(float(v) for v in upper))
    except IncompatibleRepresentation as e:
        raise SchemaError(pointer, str(e)) from None


def _reject_fields(fields: dict, allowed: tuple, pointer: str, message: str) -> None:
    """SchemaError at the first key of ``fields``, in document order, that
    is not ``allowed``."""
    for key in fields:
        if key not in allowed:
            raise SchemaError(_child(pointer, key), message)


def _build_feasible(
    raw: dict, space: ProbSpace, index: dict[str, Scenario], rf: RandomFunction, n: int, k: int
) -> RandomSet:
    """The feasible map of ``raw``, the document's ``feasible_set``.

    A top-level box or point cloud is built once, and every scenario holds
    that same frozen object, which the within-atom scans skip as equal to
    itself (``probspace._first_failure``).  A level set holds its
    scenario's parameter vector, and a ``per_scenario`` entry is its
    scenario's own, so each of those is one object per scenario; a
    top-level level set's expressions and box are still built once, and
    every scenario's level set shares them.
    """
    kind = raw["kind"]
    used = _KIND_FIELDS[kind]
    unused = f"not used by kind {kind!r}"

    def build(fields: dict, pointer: str, omega: Scenario) -> SetDescription:
        if kind == "box":
            if "lower" not in fields or "upper" not in fields:
                raise SchemaError(pointer, "box needs 'lower' and 'upper'")
            return _build_box(fields, n, pointer)
        if kind == "point_cloud":
            points = fields.get("points")
            if not points:
                raise SchemaError(pointer, "point_cloud needs nonempty 'points'")
            for i, p in enumerate(points):
                if len(p) != n:
                    raise SchemaError(f"{pointer}/points/{i}", f"point must have length {n}")
            return PointCloud(tuple(tuple(float(v) for v in p) for p in points))
        exprs = fields.get("expressions")
        if not exprs:
            raise SchemaError(pointer, "level_set needs nonempty 'expressions'")
        if "box" not in fields:
            raise SchemaError(pointer, "level_set needs a bounding 'box'")
        box = _build_box(fields["box"], n, f"{pointer}/box")
        parsed = tuple(exprlang.parse(text, n, k) for text in exprs)
        return LevelSet(parsed, rf.params_of(omega), box)

    if "per_scenario" in raw:
        _reject_fields(
            raw, ("kind", "per_scenario"), "/feasible_set", "not allowed beside 'per_scenario'"
        )
        pointer = "/feasible_set/per_scenario"
        entries = _lookup_per_scenario(raw["per_scenario"], index, pointer)
        sources = {s: (entries[s], _child(pointer, _scenario_key(s))) for s in space.scenarios}
        for fields, at in sources.values():
            _reject_fields(fields, used, at, unused)
            _validate(fields, at, "entry")
        descs = {s: build(*sources[s], s) for s in space.scenarios}
    else:
        _reject_fields(raw, ("kind", *used), "/feasible_set", unused)
        if kind == "level_set":
            shape = build(raw, "/feasible_set", space.scenarios[0])
            descs = {s: replace(shape, params=rf.params_of(s)) for s in space.scenarios}
        else:
            descs = dict.fromkeys(space.scenarios, build(raw, "/feasible_set", None))
    return RandomSet(space, descs)


def load_problem(path: str) -> ProblemDocument:
    """Load, schema-validate, and fully construct a problem document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as e:  # JSONDecodeError, or an int over 4300 digits
            raise SchemaError("", f"invalid JSON: {e}") from None
    _validate(raw, "", "document")

    sp = raw["space"]
    try:
        space = make_space(
            [_integer(s) for s in sp["scenarios"]],
            sp["weights"],
            [[_integer(s) for s in atom] for atom in sp["atoms"]],
        )
    except WeightSumError as e:
        raise SchemaError("/space/weights", str(e)) from None
    except PartitionError as e:
        raise SchemaError(f"/space/{e.field}", str(e)) from None

    index = {_scenario_key(s): s for s in space.scenarios}  # once per load
    n = _integer(raw["dimension"])
    raw_params = raw["objective"].get("parameters")
    if raw_params is None:
        params = {s: () for s in space.scenarios}
        k = 0
    else:
        resolved = _lookup_per_scenario(raw_params, index, "/objective/parameters")
        lengths = {len(v) for v in resolved.values()}
        if len(lengths) != 1:
            raise SchemaError(
                "/objective/parameters",
                f"parameter vectors have inconsistent lengths {sorted(lengths)}",
            )
        k = lengths.pop()
        params = _shared_vectors(resolved)
    # ParseError and DimensionError propagate
    body = exprlang.parse(raw["objective"]["expression"], n, k)
    rf = RandomFunction(space, n, body, params)

    search_box = None
    if "search_box" in raw:
        search_box = _build_box(raw["search_box"], n, "/search_box")

    feasible = None
    if "feasible_set" in raw:
        feasible = _build_feasible(raw["feasible_set"], space, index, rf, n, k)

    candidate = None
    if "candidate" in raw:
        resolved = _lookup_per_scenario(raw["candidate"], index, "/candidate")
        for s, vec in resolved.items():
            if len(vec) != n:
                at = _child("/candidate", _scenario_key(s))
                raise SchemaError(at, f"point must have length {n}")
        candidate = RandomVariableRn(space, _shared_vectors(resolved))

    opts = _with_options(SolverOptions(), raw.get("options", {}))
    return ProblemDocument(space, n, rf, feasible, search_box, candidate, opts)


def with_overrides(
    doc: ProblemDocument, grid: Optional[int] = None, seed: Optional[int] = None
) -> ProblemDocument:
    """``doc`` with the grid and seed options replaced where given.

    The values are held to every rule of ``options.grid`` and
    ``options.seed``, as if the document had set them.
    """
    raw = {name: v for name, v in (("grid", grid), ("seed", seed)) if v is not None}
    if not raw:
        return doc
    _validate(raw, "/options", "options")
    return replace(doc, options=_with_options(doc.options, raw))
