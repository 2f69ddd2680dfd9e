"""The loader's shared vectors against the per-scenario loader they replaced.

``reference_load_problem`` is the previous ``document.load_problem``, and
``reference_lookup_per_scenario`` the previous lookup, verbatim but for the
feasible set, which the generated documents do not hold.  It built one
tuple of floats per scenario for the parameter vectors and the candidate.
Now the loader hands out one tuple per distinct bit pattern.  On documents
whose vectors repeat, with ``0.0`` next to ``-0.0``, ``1`` next to ``1.0``
and the subnormal ``5e-324``, and whose repeated vector may hold a fault
(``1e400``, a wrong length or ``true``) at its first scenario or a later
one, both loaders must raise the same error at the same pointer, or give
every scenario the same floats, bit for bit; and two scenarios must hold
one object exactly when their vectors have the same bits.
"""

import json
import os
import struct
import tempfile

from hypothesis import given, settings, strategies as st

from randopt import exprlang
from randopt.document import (
    _build_box,
    _child,
    _integer,
    _scenario_key,
    _validate,
    _with_options,
    load_problem,
)
from randopt.errors import PartitionError, SchemaError, WeightSumError
from randopt.optimize import SolverOptions
from randopt.probspace import RandomVariableRn, make_space
from randopt.randfunc import RandomFunction

# --- the previous per-scenario loader -------------------------------------------------


def reference_lookup_per_scenario(mapping, space, pointer):
    """Resolve a JSON object keyed by str(scenario) against the space."""
    by_key = {_scenario_key(s): s for s in space.scenarios}
    out = {}
    for key, value in mapping.items():
        if key not in by_key:
            raise SchemaError(_child(pointer, key), "unknown scenario id")
        out[by_key[key]] = value
    missing = [s for s in space.scenarios if s not in out]
    if missing:
        raise SchemaError(
            pointer, f"missing entries for scenarios {[_scenario_key(s) for s in missing]}"
        )
    return out


def reference_load_problem(path):
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

    n = _integer(raw["dimension"])
    raw_params = raw["objective"].get("parameters")
    if raw_params is None:
        params = {s: () for s in space.scenarios}
        k = 0
    else:
        resolved = reference_lookup_per_scenario(raw_params, space, "/objective/parameters")
        lengths = {len(v) for v in resolved.values()}
        if len(lengths) != 1:
            raise SchemaError(
                "/objective/parameters",
                f"parameter vectors have inconsistent lengths {sorted(lengths)}",
            )
        k = lengths.pop()
        params = {s: tuple(float(v) for v in vec) for s, vec in resolved.items()}
    # ParseError and DimensionError propagate
    body = exprlang.parse(raw["objective"]["expression"], n, k)
    rf = RandomFunction(space, n, body, params)

    search_box = None
    if "search_box" in raw:
        search_box = _build_box(raw["search_box"], n, "/search_box")

    assert "feasible_set" not in raw  # the generated documents hold none

    candidate = None
    if "candidate" in raw:
        resolved = reference_lookup_per_scenario(raw["candidate"], space, "/candidate")
        for s, vec in resolved.items():
            if len(vec) != n:
                at = _child("/candidate", _scenario_key(s))
                raise SchemaError(at, f"point must have length {n}")
        candidate = RandomVariableRn(
            space, {s: tuple(float(v) for v in vec) for s, vec in resolved.items()}
        )

    opts = _with_options(SolverOptions(), raw.get("options", {}))
    return space, n, rf, search_box, candidate, opts


# --- generated documents --------------------------------------------------------------

# numbers equal in value, in each of their spellings: 0.0 and -0.0 differ
# in bits, 1 and 1.0 do not
CLASSES = [[0.0, -0.0], [1, 1.0], [5e-324], [-2.5]]
BIG = "__BIG__"  # written as the literal 1e400, which json.dumps cannot spell
FAULTS = {
    "overflow": lambda vec: [BIG] + vec[1:],
    "length": lambda vec: vec + [0.0],
    "bool": lambda vec: [True] + vec[1:],
}


@st.composite
def vector_maps(draw, scenarios, size):
    """A vector per scenario, keyed in a drawn document order.  Each is
    drawn from a pool of up to 4 spellings of at most 2 values, so that
    vectors equal in value repeat, with the same bits or not."""
    vector = st.lists(st.sampled_from(CLASSES), min_size=size, max_size=size)
    values = draw(st.lists(vector, min_size=1, max_size=2))
    pool = [
        [draw(st.sampled_from(spellings)) for spellings in draw(st.sampled_from(values))]
        for _ in range(draw(st.integers(1, 4)))
    ]
    vectors = {s: list(draw(st.sampled_from(pool))) for s in scenarios}
    order = draw(st.permutations(scenarios))
    return {s: vectors[s] for s in order}


@st.composite
def documents(draw):
    count = draw(st.integers(1, 5))
    scenarios = list(range(1, count + 1))
    cut = draw(st.integers(1, count))
    atoms = [scenarios[:cut], scenarios[cut:]] if cut < count else [scenarios]
    n, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    fields = {
        "parameters": draw(vector_maps(scenarios, k)),
        "candidate": draw(vector_maps(scenarios, n)),
    }
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault is not None:
        # in a vector that repeats if there is one, at its first scenario or a later one
        vectors = fields[draw(st.sampled_from(sorted(fields)))]
        holders = {}
        for s in scenarios:
            holders.setdefault(json.dumps(vectors[s]), []).append(s)
        held = max(holders.values(), key=len)
        at = held[0] if draw(st.booleans()) else draw(st.sampled_from(held))
        vectors[at] = FAULTS[fault](vectors[at])
    doc = {
        "schema_version": 1,
        "space": {"scenarios": scenarios, "weights": [1 / count] * count, "atoms": atoms},
        "dimension": n,
        "objective": {
            "expression": " + ".join(
                [f"x{i}^2" for i in range(1, n + 1)] + [f"p{i}" for i in range(1, k + 1)]
            ),
            "parameters": {str(s): v for s, v in fields["parameters"].items()},
        },
        "candidate": {str(s): v for s, v in fields["candidate"].items()},
    }
    return json.dumps(doc).replace(json.dumps(BIG), "1e400")


def outcome(load, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            return ("loaded", load(path))
        except SchemaError as e:
            return ("raised", e.pointer, str(e))


def bits(vectors):
    """Each scenario's vector as its float64 bits, in the mapping's order;
    every number must be a float."""
    assert all(type(v) is float for vec in vectors.values() for v in vec)
    return [(s, struct.pack(f"<{len(vec)}d", *vec)) for s, vec in vectors.items()]


def assert_shared_exactly_when_bits_match(vectors):
    for s, a in vectors.items():
        for t, b in vectors.items():
            assert (a is b) == (struct.pack(f"<{len(a)}d", *a) == struct.pack(f"<{len(b)}d", *b))


@settings(max_examples=200, deadline=None)
@given(documents())
def test_the_loader_matches_the_per_scenario_loader(text):
    expected = outcome(reference_load_problem, text)
    got = outcome(load_problem, text)
    if expected[0] == "raised":
        assert got == expected
        return
    got = got[1]
    space, n, rf, search_box, candidate, opts = expected[1]
    assert (got.space, got.n, got.search_box, got.options) == (space, n, search_box, opts)
    for loaded, reference in ((got.rf.params, rf.params), (got.candidate.values, candidate.values)):
        assert bits(loaded) == bits(reference)
        assert_shared_exactly_when_bits_match(loaded)
