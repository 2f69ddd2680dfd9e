"""The compiled schema walk against the validation it short-cuts.

``reference_reject_non_finite`` and ``reference_validate_schema`` below are
the previous validation: every document went through both, in this order,
and both escape ``~`` and ``/`` in a pointer as RFC 6901 asks.  Now
``document._validate`` runs them only when the compiled walk calls a part
of a document not clean.  On every document the walk must answer "clean"
exactly when both references accept, and a rejection must carry the same
JSON pointer and message.
"""

import copy
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from randopt import document
from randopt.document import _SchemaCompiler, load_problem, with_overrides
from randopt.errors import SchemaError

ROOT = Path(__file__).resolve().parent.parent
GALLERY = ROOT / "gallery"
DOCUMENTS = ROOT / "tests" / "golden" / "documents"
SCHEMA = json.loads(
    resources.files("randopt").joinpath("schemas/problem.schema.json").read_text()
)

# --- the previous validation ------------------------------------------------------


def reference_validate_schema(raw, schema, prefix=""):
    validator = jsonschema.Draft202012Validator(schema)
    # an index sorts as an int, before any key of an object
    def place(p):
        return (0, p, "") if isinstance(p, int) else (1, 0, p)

    errors = sorted(
        validator.iter_errors(raw), key=lambda e: (list(map(place, e.absolute_path)), e.message)
    )
    if errors:
        err = errors[0]
        escaped = (str(p).replace("~", "~0").replace("/", "~1") for p in err.absolute_path)
        pointer = prefix + "".join(f"/{p}" for p in escaped)
        raise SchemaError(pointer, err.message)


def reference_reject_non_finite(value, pointer):
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
            reference_reject_non_finite(item, f"{pointer}/{escaped}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            reference_reject_non_finite(item, f"{pointer}/{i}")


def reference_validate_document(raw):
    reference_reject_non_finite(raw, "")
    reference_validate_schema(raw, SCHEMA)


def outcome(fn, *args):
    """None when ``fn(*args)`` returns, else the SchemaError's bytes."""
    try:
        fn(*args)
    except SchemaError as e:
        return (e.pointer, str(e))
    return None


def walk(doc):
    """The compiled walk's verdict on a whole document."""
    return document._parts()["document"][1](doc)


def assert_same_verdict(doc):
    expected = outcome(reference_validate_document, doc)
    assert outcome(document._validate, doc, "", "document") == expected
    assert walk(doc) is (expected is None)


# --- base documents ---------------------------------------------------------------


def _workload_shaped() -> dict:
    """A wide-atoms-shaped document: parameters, candidate and a box per
    scenario, in three atoms."""
    scenarios = list(range(1, 13))
    return {
        "schema_version": 1,
        "space": {
            "scenarios": scenarios,
            "weights": [1.0 / 12] * 12,
            "atoms": [scenarios[0:4], scenarios[4:8], scenarios[8:12]],
        },
        "dimension": 2,
        "objective": {
            "expression": "((x1-p1)^2-1)^2 + ((x2-p2)^2-1)^2 + p3",
            "parameters": {str(s): [0.25 * (s // 4), -0.5, 0.0] for s in scenarios},
        },
        "search_box": {"lower": [-3.0, -3.0], "upper": [3.0, 3.0]},
        "feasible_set": {"kind": "box", "lower": [-3.0, -3.0], "upper": [3.0, 3.0]},
        "candidate": {str(s): [1.0, 0.5] for s in scenarios},
        "options": {"grid": 21, "newton_grid": 5, "seed": 3},
    }


BASES = (
    [json.loads(p.read_text()) for p in sorted(GALLERY.glob("*.json"))]
    + [json.loads(p.read_text()) for p in sorted(DOCUMENTS.glob("*.json"))]
    + [_workload_shaped()]
)


def test_every_base_document_is_clean():
    for doc in BASES:
        assert walk(doc)
        assert_same_verdict(doc)


# --- mutations --------------------------------------------------------------------

# near the largest float: the first integer that float() refuses, and the one below
OVERFLOW = 2**1024 - 2**970
values = st.one_of(
    st.sampled_from([
        None, True, False, 0, 1, 2, -1, 0.0, -0.0, 1.0, 2.0, 1.5, -2.5, "", "x",
        "box", "level_set", "point_cloud", [], {}, [1.0], [[1.0]], ["1"], [True],
        {"lower": [0.0], "upper": [1.0]}, {"lower": [], "upper": [1.0]},
        math.nan, math.inf, -math.inf, [math.nan], {"1": [math.inf]},
        10**400, -(10**400), OVERFLOW, OVERFLOW - 1, [OVERFLOW], 10**20, 1e300,
    ]),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)
extra_keys = st.sampled_from(["extra", "lower", "grid", "kind", "1", "a/b", "c~d", ""])
# $ref targets and other places a walk through the document reaches less often
TARGETS = [
    ("search_box",), ("search_box", "lower"), ("search_box", "upper", 0),
    ("feasible_set",), ("feasible_set", "box"), ("feasible_set", "box", "lower"),
    ("options",), ("options", "grid"), ("options", "seed"), ("schema_version",),
    ("dimension",), ("space", "weights", 0), ("space", "atoms", 0),
]


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _node(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@st.composite
def mutated(draw):
    # copies, so that no mutation changes a base document or a sampled value
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))

    def value():
        return copy.deepcopy(draw(values))

    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        reachable = [t for t in TARGETS if t in paths]
        path = draw(st.sampled_from(paths + reachable * 3))
        node = _node(doc, path)
        op = draw(st.sampled_from(["replace", "replace", "delete", "add", "truncate"]))
        if op == "replace" and path:
            _node(doc, path[:-1])[path[-1]] = value()
        elif op == "delete" and path:
            del _node(doc, path[:-1])[path[-1]]
        elif op == "add" and isinstance(node, dict):
            node[draw(extra_keys)] = value()
        elif op == "add" and isinstance(node, list):
            node.append(value())
        elif op == "truncate" and isinstance(node, list):
            del node[draw(st.integers(0, 1)):]
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_the_walk_accepts_exactly_what_the_reference_accepts(doc):
    assert_same_verdict(doc)


@pytest.mark.parametrize(
    "path, value, clean",
    [
        (("schema_version",), 1.0, True),  # const 1 accepts 1.0
        (("schema_version",), True, False),  # but not true
        (("dimension",), 2.0, True),  # 2.0 is an integer
        (("dimension",), True, False),  # a bool is not an integer
        (("dimension",), 0, False),  # below the minimum
        (("dimension",), 1.5, False),
        (("space", "weights"), [True], False),  # a bool is not a number
        (("space", "weights"), [math.nan], False),  # nor is NaN clean
        (("search_box", "upper"), [-math.inf], False),
        (("objective", "parameters"), {"1": [1e400]}, False),
        (("space", "scenarios"), [1.0], True),  # integer or string
        (("space", "scenarios"), [], False),  # minItems
        (("options", "grid"), 2.0, True),
        (("options", "seed"), -1, False),
        (("search_box", "lower"), [], False),  # through the $ref
        (("search_box", "lower"), [10**400], False),
        (("search_box", "lower"), [OVERFLOW - 1], True),
        (("search_box", "lower"), [OVERFLOW], False),
        (("feasible_set",), {"kind": "box", "box": {"lower": [0.0]}}, False),
        (("feasible_set",), {"kind": "level_set", "per_scenario": {"1": {"x": math.nan}}}, False),
        (("feasible_set",), {"kind": "level_set", "per_scenario": {"1": {"x": [1e300]}}}, True),
        (("objective", "parameters"), {"1": [1.0], "2": []}, True),
        (("candidate",), {"1": []}, False),
        (("extra",), 1, False),  # additionalProperties: false
    ],
)
def test_draft_2020_12_rules(path, value, clean):
    doc = copy.deepcopy(BASES[0])
    _node(doc, path[:-1])[path[-1]] = value
    assert walk(doc) is clean
    assert_same_verdict(doc)


def test_the_first_bad_index_is_reported_first(tmp_path):
    # indices 2 and 10 compare as ints: as strings, "10" sorts before "2"
    scenarios = list(range(1, 12))
    doc = {
        "schema_version": 1,
        "space": {"scenarios": scenarios, "weights": [1.0 / 11] * 11, "atoms": [scenarios]},
        "dimension": 1,
        "objective": {"expression": "x1^2"},
    }
    doc["space"]["weights"][2], doc["space"]["weights"][10] = "a", "b"
    assert_same_verdict(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as info:
        load_problem(str(path))
    assert str(info.value) == "/space/weights/2: 'a' is not of type 'number'"


def test_missing_keys_are_rejected_alike():
    for key in ("schema_version", "space", "dimension", "objective"):
        doc = copy.deepcopy(BASES[0])
        del doc[key]
        assert not walk(doc)
        assert_same_verdict(doc)


# --- the overrides --------------------------------------------------------------------

overrides = st.one_of(
    st.none(),
    st.integers(-3, 10),
    st.sampled_from([10**400, OVERFLOW, True, False, 2.0, 2.5, math.nan, "5"]),
)


@settings(max_examples=200, deadline=None)
@given(overrides, overrides)
def test_with_overrides_rejects_what_the_reference_rejects(grid, seed):
    doc = load_problem(str(GALLERY / "cubic_inflection.json"))
    raw = {name: v for name, v in (("grid", grid), ("seed", seed)) if v is not None}
    expected = outcome(reference_reject_non_finite, raw, "/options") or outcome(
        reference_validate_schema, raw, SCHEMA["properties"]["options"], "/options"
    )
    try:
        got = with_overrides(doc, grid=grid, seed=seed)
    except SchemaError as e:
        assert (e.pointer, str(e)) == expected
    else:
        assert expected is None
        assert got.options.grid_m == raw.get("grid", doc.options.grid_m)
        assert got.options.seed == raw.get("seed", doc.options.seed)
        assert type(got.options.grid_m) is type(got.options.seed) is int  # 2.0 means 2


# --- the compiler ------------------------------------------------------------------------


def test_a_schema_holding_pattern_does_not_compile():
    schema = copy.deepcopy(SCHEMA)
    schema["properties"]["objective"]["properties"]["expression"]["pattern"] = "^x"
    with pytest.raises(ValueError, match="pattern"):
        _SchemaCompiler(schema).compile(schema, root=True)


@pytest.mark.parametrize(
    "schema",
    [
        {"type": "string", "maxLength": 3},
        {"type": "array", "items": [{"type": "number"}]},  # the tuple form of older drafts
        {"type": "decimal"},
        {"type": "null"},
        {"type": "string", "description": "only the root holds annotations"},
        {"type": []},
        {"$ref": "#/definitions/box"},
        {"$ref": "#/$defs/missing"},
        {"$ref": "#/$defs/tree"},  # reaches itself
        {"const": [1]},
        {"enum": [{"kind": "box"}]},
        {"properties": {"a": {"exclusiveMinimum": 0}}},
        {"$defs": {}},  # only the root holds definitions
        {"$schema": "https://json-schema.org/draft/2020-12/schema"},
        "number",
    ],
)
def test_the_compiler_raises_on_what_it_cannot_check(schema):
    root = {"$defs": {"tree": {"properties": {"child": {"$ref": "#/$defs/tree"}}}}}
    with pytest.raises(ValueError):
        _SchemaCompiler(root).compile(schema)


def test_a_ref_and_its_sibling_keywords_both_apply():
    root = {"$defs": {"obj": {"type": "object", "required": ["a"]}}}
    schema = {"$ref": "#/$defs/obj", "properties": {"a": {"type": "string"}}}
    check = _SchemaCompiler(root).compile(schema)
    validator = jsonschema.Draft202012Validator(dict(schema, **root))
    for value in ({"a": "s"}, {"a": 1}, {}, [], {"a": "s", "b": math.nan}):
        assert check(value) is (validator.is_valid(value) and outcome(reference_reject_non_finite, value, "") is None)


def test_the_compiler_raises_on_another_dialect():
    with pytest.raises(ValueError, match="dialect"):
        _SchemaCompiler({"$schema": "http://json-schema.org/draft-07/schema#"})


# --- the import ---------------------------------------------------------------------------


def test_a_clean_run_never_imports_jsonschema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(BASES[0], schema_version=2)))
    code = f"""
import sys
import randopt.cli
from randopt.errors import SchemaError
code = randopt.cli.main(["oracle", "--input", {str(GALLERY / "cubic_inflection.json")!r},
                         "--output", {str(tmp_path / "r.json")!r}, "--grid", "5", "--seed", "0"])
print(code, "jsonschema" in sys.modules)
try:
    randopt.load_problem({str(bad)!r})
except SchemaError as e:
    print(e, "jsonschema" in sys.modules)
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), *sys.path])),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["0 False", "/schema_version: 1 was expected True"]
