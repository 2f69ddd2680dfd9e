"""The loader's bulk checks against the per-value checks they replaced.

The compiled schema walk checks a list of numbers or of scenario ids, and a
map of number vectors, by a type census and one pass of ``math.isfinite``;
``make_space`` checks an atom with set operations; ``_require_finite``
tests its values in one pass.  Each keeps a per-value loop only to word a
failure.  The references below are the previous code, verbatim: the walk's
``_children`` and ``_clean``, ``make_space`` and ``_require_finite``.  On
drawn inputs, lists long enough for the census among them, the new code
must give the same verdict, or raise the same exception with the same
message.
"""

import copy
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from randopt import document
from randopt.document import _SchemaCompiler, _is_number, _scenarios_of, _shared_vectors
from randopt.errors import DomainMismatch, PartitionError, SchemaError, WeightSumError
from randopt.probspace import (
    WEIGHT_SUM_TOL,
    ProbSpace,
    _require_finite,
    _sorted_ids,
    make_space,
)

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "src" / "randopt" / "schemas" / "problem.schema.json").read_text())

# --- the previous walk --------------------------------------------------------------


def reference_clean(value):
    t = type(value)
    if t is dict:
        return all(map(reference_clean, value.values()))
    if t is list:
        return all(map(reference_clean, value))
    return _is_number(value) or t is str or t is bool or value is None


class ReferenceCompiler(_SchemaCompiler):
    """The compiler with the per-value ``_children`` and ``_clean``."""

    def compile(self, schema, root=False):
        if schema is True:
            return reference_clean
        return super().compile(schema, root)

    def _children(self, schema):
        """The check of a value's members; a scalar must be finite."""
        props = {k: self.compile(s) for k, s in schema.get("properties", {}).items()}
        extra = self.compile(schema.get("additionalProperties", True))
        items = self.compile(schema.get("items", True))

        def children(value):
            t = type(value)
            if t is dict:
                for key, item in value.items():
                    if not props.get(key, extra)(item):
                        return False
                return True
            if t is list:
                return all(map(items, value))
            return reference_clean(value)

        return children


PARTS = document._parts()
NEW = {name: check for name, (_, check) in PARTS.items()}
REFERENCE = {
    name: ReferenceCompiler(SCHEMA).compile(schema, root=True)
    for name, (schema, _) in PARTS.items()
}

# --- drawn documents ------------------------------------------------------------------

OVERFLOW = 2**1024 - 2**970  # the first integer that float() refuses
ODD = [
    math.nan, math.inf, -math.inf, 10**400, -(10**400), OVERFLOW, OVERFLOW - 1, 2**53 + 1,
    True, False, None, "1", "", [], [1.0], {}, {"a": 1.0}, -0.0, 0.0, 0, 5e-324, -5e-324,
    1.7976931348623157e308,
]
plain = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60),
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, 5e-324]),
)


@st.composite
def arrays(draw, size=None):
    """A list of numbers, long enough for a census or not, that holds an odd
    value now and then; or, now and then, a value that is not a list."""
    if draw(st.integers(0, 15)) == 0:
        return copy.deepcopy(draw(st.sampled_from(ODD)))
    if size is None:
        size = draw(st.sampled_from([0, 1, 2, 3, 4, 15, 16, 17, 40]))
    drawn = [draw(plain) for _ in range(min(size, 3))]  # repeated up to the size
    values = [drawn[i % len(drawn)] for i in range(size)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if values:
            at = draw(st.integers(0, len(values) - 1))
            values[at] = copy.deepcopy(draw(st.sampled_from(ODD)))
    return values


@st.composite
def id_lists(draw, count):
    ids = draw(st.sampled_from([list(range(1, count + 1)), [f"s{i}" for i in range(count)]]))
    if draw(st.integers(0, 3)) == 0 and ids:
        ids[draw(st.integers(0, len(ids) - 1))] = copy.deepcopy(
            draw(st.sampled_from([*ODD, 1.0, 2.5, OVERFLOW - 1, -OVERFLOW]))
        )
    return ids


@st.composite
def documents(draw):
    count = draw(st.sampled_from([1, 2, 4, 7, 8, 16, 17, 30]))  # each side of each census threshold
    scenarios = draw(id_lists(count))
    keys = [str(s) for s in scenarios]
    n = draw(st.integers(1, 3))
    # the maps take their vectors from a few drawn arrays, so that a drawn
    # document stays cheap however many scenarios it has
    size = draw(st.sampled_from([0, 1, 2, 3, 17]))
    pool = draw(st.lists(arrays(size=size), min_size=1, max_size=3))

    def cycled(count):
        start = draw(st.integers(0, 2))
        return [copy.deepcopy(pool[(start + i) % len(pool)]) for i in range(count)]

    def vectors():
        return dict(zip(keys, cycled(len(keys))))

    def points():
        return cycled(draw(st.sampled_from([0, 1, 3, 20])))

    doc = {
        "schema_version": 1,
        "space": {
            "scenarios": scenarios,
            "weights": draw(arrays(size=count)),
            "atoms": [draw(id_lists(count)), *draw(st.lists(id_lists(2), max_size=2))],
        },
        "dimension": n,
        "objective": {"expression": "x1^2", "parameters": vectors()},
        "candidate": vectors(),
        "search_box": {"lower": draw(arrays()), "upper": draw(arrays())},
    }
    kind = draw(st.sampled_from(["box", "points", "per_scenario"]))
    if kind == "box":
        doc["feasible_set"] = {"kind": "box", "lower": draw(arrays()), "upper": draw(arrays())}
    elif kind == "points":
        doc["feasible_set"] = {"kind": "point_cloud", "points": points()}
    else:
        doc["feasible_set"] = {
            "kind": "point_cloud",
            "per_scenario": {k: {"points": points()} for k in keys},
        }
    if draw(st.booleans()):  # a map whose values are not all lists, or an empty one
        field = draw(st.sampled_from(["parameters", "candidate"]))
        target = doc["objective"] if field == "parameters" else doc
        target[field] = draw(st.sampled_from([{}, {"1": 1.0}, {"1": None}, {"1": {}}, []]))
    return doc


@settings(max_examples=200, deadline=None)
@given(documents())
def test_the_walk_gives_the_verdict_of_the_per_value_walk(doc):
    assert NEW["document"](doc) is REFERENCE["document"](doc)
    entries = doc["feasible_set"].get("per_scenario", {})
    for fields in entries.values():
        assert NEW["entry"](fields) is REFERENCE["entry"](fields)
    for value in (doc["space"]["weights"], doc["candidate"], doc["feasible_set"]):
        assert document._clean(value) is reference_clean(value)


def test_drawn_documents_reach_the_census_and_pass_it():
    # the strategy above must reach clean documents whose lists are long
    # enough for a census, not only rejections
    scenarios = list(range(1, 31))
    keys = [str(s) for s in scenarios]
    doc = {
        "schema_version": 1,
        "space": {"scenarios": scenarios, "weights": [1 / 30] * 30, "atoms": [scenarios]},
        "dimension": 2,
        "objective": {"expression": "x1^2", "parameters": {k: [0.5] * 17 for k in keys}},
        "candidate": {k: [1, -0.0] for k in keys},
        "feasible_set": {
            "kind": "point_cloud",
            "per_scenario": {k: {"points": [[1.0, 2]] * 20} for k in keys},
        },
    }
    assert NEW["document"](doc) is REFERENCE["document"](doc) is True
    doc["candidate"]["30"] = []  # below the candidate's minItems
    assert NEW["document"](doc) is REFERENCE["document"](doc) is False


# --- the previous space constructor -------------------------------------------------------


def reference_require_finite(values, error):
    for v in values:
        try:
            finite = math.isfinite(v)
        except OverflowError:
            raise error("number is not finite: it overflows a float") from None
        if not finite:
            raise error(f"number {v!r} is not finite")


def reference_make_space(scenario_ids, weights, atom_partition):
    ids = tuple(scenario_ids)
    id_set = set(ids)
    if len(id_set) != len(ids):
        raise PartitionError("duplicate scenario ids", "scenarios")
    if len(weights) != len(ids):
        raise PartitionError(f"{len(weights)} weights for {len(ids)} scenarios", "weights")
    try:
        w = tuple(float(v) for v in weights)
    except OverflowError:
        raise WeightSumError("weight is not finite: it overflows a float") from None
    reference_require_finite(w, WeightSumError)
    for v in w:
        if v < 0.0:
            raise WeightSumError(f"negative weight {v!r}")
    total = sum(w)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"weights sum to {total!r}, not 1")

    seen = set()
    atoms = []
    for block in atom_partition:
        if not block:
            raise PartitionError("empty atom")
        for s in block:
            try:
                known = s in id_set
            except TypeError:  # unhashable, so no scenario id
                known = False
            if not known:
                raise PartitionError(f"atom member {s!r} is not a scenario")
            if s in seen:
                raise PartitionError(f"scenario {s!r} appears in two atoms")
            seen.add(s)
        atoms.append(tuple(_sorted_ids(block)))
    if seen != id_set:
        missing = _sorted_ids(id_set - seen)
        raise PartitionError(f"scenarios not covered by any atom: {missing}")
    atoms = _sorted_ids(atoms, key=lambda a: a[0])
    return ProbSpace(ids, w, tuple(atoms))


def outcome(fn, *args):
    try:
        return ("returned", fn(*args))
    except (PartitionError, WeightSumError, DomainMismatch) as e:
        return ("raised", type(e), str(e), getattr(e, "field", None))


@st.composite
def spaces(draw):
    count = draw(st.integers(1, 12))
    ids = draw(st.sampled_from([list(range(1, count + 1)), [f"s{i}" for i in range(count)]]))
    weights = [1.0 / count] * count
    order = draw(st.permutations(ids))
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, count - 1)), max_size=3))))
    atoms = [list(order[a:b]) for a, b in zip([0, *cuts], [*cuts, count]) if order[a:b]]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from([
            "duplicate id", "unknown", "unhashable", "two atoms", "twice in one atom",
            "uncovered", "negative weight", "huge weight", "empty atom", "weight count",
        ]))
        filled = [a for a in atoms if a]
        atom = draw(st.sampled_from(filled)) if filled else None
        if fault == "duplicate id":
            ids = ids + [draw(st.sampled_from(ids))]
        elif fault == "unknown" and atom is not None:
            atom.insert(draw(st.integers(0, len(atom))), draw(st.sampled_from([0, "zz", 99, 1.5])))
        elif fault == "unhashable" and atom is not None:
            atom.insert(draw(st.integers(0, len(atom))), [draw(st.sampled_from(ids))])
        elif fault == "two atoms" and len(filled) > 1:
            filled[-1].append(draw(st.sampled_from(filled[0])))
        elif fault == "twice in one atom" and atom is not None:
            atom.insert(draw(st.integers(0, len(atom))), draw(st.sampled_from(atom)))
        elif fault == "uncovered" and atom is not None and len(atoms) > 1:
            atoms.remove(atom)
        elif fault == "negative weight":
            i = draw(st.integers(0, count - 1))
            weights = weights[:i] + [-weights[i]] + weights[i + 1 :]
        elif fault == "huge weight":
            weights = weights[:-1] + [draw(st.sampled_from([10**400, math.nan, math.inf]))]
        elif fault == "empty atom":
            atoms.insert(draw(st.integers(0, len(atoms))), [])
        elif fault == "weight count":
            weights = weights + [0.0]
    return ids, weights, atoms


@settings(max_examples=200, deadline=None)
@given(spaces())
def test_make_space_raises_what_the_per_member_loop_raises(args):
    expected = outcome(reference_make_space, *copy.deepcopy(args))
    assert outcome(make_space, *copy.deepcopy(args)) == expected


@pytest.mark.parametrize(
    "atoms, message",
    [
        ([[1, 2], [3, 1]], "scenario 1 appears in two atoms"),
        ([[1, 2, 1], [3]], "scenario 1 appears in two atoms"),
        ([[1, 2], [3, [4]], [9]], "atom member [4] is not a scenario"),
        ([[1, 2, 9, [4]], [3]], "atom member 9 is not a scenario"),
        ([[1, 2]], "scenarios not covered by any atom: [3]"),
        ([[1, 2], [], [3]], "empty atom"),
    ],
)
def test_make_space_names_the_first_faulty_member(atoms, message):
    for fn in (make_space, reference_make_space):
        with pytest.raises(PartitionError) as info:
            fn([1, 2, 3], [0.25, 0.25, 0.5], atoms)
        assert str(info.value) == message


finite_values = st.lists(
    st.one_of(
        st.floats(),
        st.integers(-(2**70), 2**70),
        st.booleans(),
        st.sampled_from([10**400, -(10**400), OVERFLOW, OVERFLOW - 1, -0.0, 5e-324]),
    ),
    max_size=20,
)


@settings(max_examples=200, deadline=None)
@given(finite_values, st.sampled_from(["list", "tuple", "generator", "chain"]))
def test_require_finite_raises_what_the_loop_raises(values, form):
    def given_as():
        if form == "list":
            return list(values)
        if form == "tuple":
            return tuple(values)
        if form == "generator":
            return (v for v in values)
        return itertools.chain(values[:3], values[3:])

    expected = outcome(reference_require_finite, given_as(), DomainMismatch)
    assert outcome(_require_finite, given_as(), DomainMismatch) == expected


# --- document order ------------------------------------------------------------------------


def test_a_per_scenario_map_comes_back_in_document_order():
    index = {"1": 1, "2": 2, "3": 3}
    mapping = {"3": [1.0], "1": [0.0], "2": [-0.0]}
    assert list(_scenarios_of(mapping, index, "/candidate")) == [3, 1, 2]
    shared = _shared_vectors(mapping, index, "/candidate")
    assert list(shared) == [3, 1, 2]
    assert shared[1] is not shared[2]  # 0.0 and -0.0 keep their bits


@pytest.mark.parametrize(
    "mapping, pointer, message",
    [
        ({"3": [1.0], "x": [1.0], "y": [1.0]}, "/candidate/x", "unknown scenario id"),
        ({"3": [1.0], "1": [1.0]}, "/candidate", "missing entries for scenarios ['2']"),
        ({"3": [1.0], "1": [1.0], "2": [1.0], "4": [1.0]}, "/candidate/4", "unknown scenario id"),
    ],
)
def test_a_per_scenario_map_names_its_first_unknown_key_then_the_missing(
    mapping, pointer, message
):
    with pytest.raises(SchemaError) as info:
        _shared_vectors(mapping, {"1": 1, "2": 2, "3": 3}, "/candidate")
    assert (info.value.pointer, str(info.value)) == (pointer, f"{pointer}: {message}")


def test_the_first_candidate_of_the_wrong_length_in_document_order_is_named(tmp_path):
    doc = {
        "schema_version": 1,
        "space": {"scenarios": [1, 2, 3], "weights": [0.25, 0.25, 0.5], "atoms": [[1, 2, 3]]},
        "dimension": 1,
        "objective": {"expression": "x1^2"},
        "candidate": {"3": [1.0, 2.0], "1": [1.0, 2.0], "2": [1.0]},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as info:
        document.load_problem(str(path))
    assert str(info.value) == "/candidate/3: point must have length 1"
