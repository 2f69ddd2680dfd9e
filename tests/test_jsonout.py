"""``_jsonout.dumps`` writes the bytes of ``json.dumps(obj, indent=2,
allow_nan=False)`` and a newline, for every value a report can hold: the
stdlib encoder is the reference.  A container reached more than once is
rendered from a memo, so the tests place one container twice at one depth
and again at another, where its indentation differs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randopt import _jsonout


class _Int(int):
    def __repr__(self):
        return "not an int"


class _Float(float):
    def __repr__(self):
        return "not a float"


class _Str(str):
    pass


def reference(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
# every code point, control characters and lone surrogates included
_text = st.text(st.characters(exclude_categories=()), max_size=6)

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0, 1, True, False, 0.0, 1.0])  # bools next to equal ints
    | _finite
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7976931348623157e308, 2.0**53, 1e16])
    | _finite.map(np.float64)
    | st.integers(-5, 5).map(_Int)
    | _finite.map(_Float)
    | _text
    | _text.map(_Str)
)


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
    )


values = st.recursive(leaves, _containers, max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(values, values, _text)
def test_the_writer_matches_the_stdlib(shared, other, key):
    # ``shared`` twice at depth 2, then at depths 3 and 4, next to ``other``
    obj = {key: [shared, other, shared], "deeper": [[shared], {"x": shared}], "other": other}
    assert _jsonout.dumps(obj) == reference(obj)
    assert _jsonout.dumps(shared) == reference(shared)


# a list of exact ints, such as a report header's scenario ids, is written
# in one join; a bool or an int subclass among them keeps the stdlib's spelling
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.integers(-(2**70), 2**70) | st.sampled_from([True, False, _Int(3), 1.0]),
        min_size=1,
        max_size=8,
    )
)
def test_a_list_of_ints_is_written_as_the_stdlib_writes_it(ids):
    obj = {"scenarios": ids, "nested": [ids, tuple(ids)]}
    assert _jsonout.dumps(obj) == reference(obj)


@pytest.mark.parametrize(
    "ids", [[1, 2, 3], [1, True], [True], [2, _Int(1)], [_Int(1), 2], [0, -(2**70)]]
)
def test_a_bool_or_an_int_subclass_in_a_list_of_ints(ids):
    assert _jsonout.dumps(ids) == reference(ids)


def test_empty_containers_and_a_tuple_are_written_as_the_stdlib_writes_them():
    point = (1.5, -0.0)
    obj = {"points": {"1": point, "2": point}, "empty": [{}, [], ()], "nested": [[point]]}
    assert _jsonout.dumps(obj) == reference(obj)
    assert _jsonout.dumps([]) == "[]\n" and _jsonout.dumps({}) == "{}\n"


@pytest.mark.parametrize("v", [float("nan"), np.float64("inf"), _Float("-inf")])
def test_a_non_finite_float_of_any_float_type_cannot_be_written(v):
    with pytest.raises(ValueError):
        _jsonout.dumps([[v]])


@pytest.mark.parametrize("obj", [{1: "an int key"}, {None: 0}, [np.int64(1)], [{1, 2}]])
def test_a_key_that_is_not_a_str_and_an_unknown_type_raise_type_error(obj):
    with pytest.raises(TypeError):
        _jsonout.dumps(obj)
