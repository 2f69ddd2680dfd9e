"""JSON emission for reports.

``dumps`` writes the bytes of ``json.dumps(obj, indent=2, allow_nan=False)``
and a newline.  Every float is spelled with ``float.__repr__``, the
shortest text that reads back as the same double, so ``json.loads``
returns each float with its bits, the sign of -0.0 and the type of 1.0
included.  NaN and infinities raise ValueError: a report holds only finite
numbers.  Tuples are written as lists, and every key must be a str.  A
list of exact ints, such as a report header's scenario ids, is joined in
one pass.

A dict or list is rendered once per pair of its identity and its depth,
and every later meeting of it at that depth reuses the text, so a fragment
that many scenarios share is encoded once.  The memo is sound only while
``obj`` holds every container it reaches and nothing changes them, so the
report must not change while it is written.  A container that holds itself
is not detected: it recurses until RecursionError.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string


def _float(v) -> str:
    if math.isfinite(v):
        return float.__repr__(v)
    raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")


# exact types first; a subclass of str, int or float falls through to
# _write's isinstance tests, which spell it as the stdlib does
_LEAVES = {
    str: _string,
    float: _float,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _write(o, newline: str, memo: dict) -> str:
    leaf = _LEAVES.get(type(o))
    if leaf is not None:
        return leaf(o)
    if isinstance(o, (dict, list, tuple)):
        key = (id(o), len(newline))
        text = memo.get(key)
        if text is None:
            text = memo[key] = _container(o, newline, memo)
        return text
    for kind, spell in ((str, _string), (int, int.__repr__), (float, _float)):
        if isinstance(o, kind):
            return spell(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _container(o, newline: str, memo: dict) -> str:
    if not o:
        return "{}" if isinstance(o, dict) else "[]"
    inner = newline + "  "
    if isinstance(o, dict):
        items = [_string(k) + ": " + _write(v, inner, memo) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(o[0]) is int and set(map(type, o)) == {int}:
        items = map(int.__repr__, o)
    else:
        items = [_write(v, inner, memo) for v in o]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def dumps(obj) -> str:
    return _write(obj, "\n", {}) + "\n"
