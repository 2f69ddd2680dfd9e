"""The row kernels against the compiled bundles whose bits they keep.

``exprlang.eval_rows`` runs lowered steps on the rows of an array with
numpy's array kernels, which ``eval_batch`` and ``eval_grid`` run too, and
the bundle they render calls numpy's ufuncs on floats for ``exp``,
``log``, ``sin``, ``cos`` and every power but a square.  At every row
``eval_rows`` must find the row valid exactly when the bundle, called at
that row as ``optimize`` calls it (``tuple(x)`` of ``np.float64``
elements, the parameters as floats), returns; and there every value must
have the bundle's bits.  The trees are those of
``test_evaluator_reference.py``.  On seeded rows, ``eval_batch``,
``eval_grid`` and the bundle called with floats must agree with it too.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randopt.exprlang import (
    _Compiler,
    compile_bundle,
    differentiate,
    eval_batch,
    eval_bounds,
    eval_grid,
    eval_rows,
    parse,
)
from test_evaluator_reference import K, N, trees

SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-308, 1e200, 1e308, -1e308, math.inf, -math.inf, math.nan]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0), st.floats())


def bundle_rows(bundle, X, P, scalar=np.float64):
    """What the bundle does at each row, given the elements of ``x`` as
    ``scalar``: None where it raises, else its values' bits."""
    out = []
    for x, p in zip(X.tolist(), P.tolist()):
        try:
            with np.errstate(all="ignore"):
                out.append(tuple(struct.pack("<d", v) for v in bundle(tuple(map(scalar, x)), p)))
        except Exception:
            out.append(None)
    return out


def assert_rows_match(c, X, P):
    """eval_rows of the lowering ``c`` against its rendered bundle."""
    got, valid = eval_rows(c, X, P)
    assert got.shape == (len(X), len(c.results)) and valid.dtype == bool
    for i, want in enumerate(bundle_rows(compile_bundle(c, X.shape[1], P.shape[1]), X, P)):
        assert valid[i] == (want is not None), i
        if want is None:
            assert np.isnan(got[i]).all()
        else:
            assert tuple(struct.pack("<d", v) for v in got[i]) == want, i
    return valid


@settings(max_examples=400, deadline=None)
@given(
    st.lists(trees, min_size=1, max_size=3),
    st.lists(st.tuples(st.tuples(*[values] * N), st.tuples(*[values] * K)), min_size=1, max_size=8),
)
def test_row_kernels_match_the_bundle(roots, rows):
    # the drawn rows, then seeded ordinary ones, where the C library's
    # power, exp and log would differ from numpy's now and then
    ordinary = np.random.default_rng(len(rows)).uniform(-5.0, 5.0, (32, N + K))
    X = np.concatenate([np.array([x for x, _ in rows], dtype=float), ordinary[:, :N]])
    P = np.concatenate([np.array([p for _, p in rows], dtype=float).reshape(-1, K), ordinary[:, N:]])
    assert_rows_match(_Compiler(roots), X, P)


@pytest.mark.parametrize(
    "text",
    ["x1^2", "x1^3", "x1^-3", "x1^31", "exp(x1)", "log(x1)", "sin(x1)", "cos(x1)", "sqrt(x1)",
     "exp(x1)/log(x1) - x1^-2"],
)
def test_seeded_rows_match_the_bundle(text):
    # the C library's power, exp and log differ from numpy's on a few inputs
    # in a thousand; on thousands of rows every runner must give eval_rows'
    # bits and mask
    rng = np.random.default_rng(7)
    X = rng.uniform(-5.0, 5.0, (4000, 1))
    P = np.empty((4000, 0))
    e = parse(text, 1)
    valid = assert_rows_match(e.lowered, X, P)
    assert valid.any()
    values = eval_rows(e.lowered, X, P)[0][:, 0]
    for got, mask in (eval_batch(e, X), eval_grid(e, [X[:, 0]])):
        assert mask.tolist() == valid.tolist()
        assert got.tobytes() == values.tobytes()
    want = [(struct.pack("<d", v),) if ok else None for v, ok in zip(values, valid)]
    assert bundle_rows(e.compiled, X, P, scalar=float) == want


@pytest.mark.parametrize(
    "text, x",
    [
        ("x1^2", 1e200),  # overflow in power
        ("x1^-400", 0.01),  # a negative exponent overflows too
        ("x1^-3", 0.0),  # zero to a negative power is checked first
        ("x1^-3", -0.0),
        ("1/x1", 0.0),  # a zero denominator
        ("1/(x1 - x1)", 1.0),
        ("exp(x1)", 1000.0),  # overflow in function application
        ("sin(x1)", math.inf),  # NaN: non-finite intermediate result
        ("cos(-x1)", -math.inf),  # the same
        ("log(x1)", math.nan),
        ("log(x1)", -1.0),
        ("sqrt(x1)", -1.0),
        ("x1^0", math.nan),
        ("-x1", math.inf),  # a negation is not checked
        ("(x1 + 0)*(x1 + -0)", -0.0),  # signed zeros stay apart
    ],
)
def test_guarded_rows_match_the_bundle(text, x):
    # the failing row sits between two valid ones, so its error must clear
    # it alone
    X = np.array([[0.5], [x], [2.0]])
    valid = assert_rows_match(parse(text, 1).lowered, X, np.empty((3, 0)))
    assert valid[0] or text.startswith("1/(")


def test_an_error_on_a_cleared_row_leaves_the_others():
    # row 0 fails the zero check, then raises in the power on its cleared
    # value; row 1 stays valid
    X = np.array([[0.0], [2.0], [1.0]])
    valid = assert_rows_match(parse("exp(1/x1) + (x1 - 1)^-2", 1).lowered, X, np.empty((3, 0)))
    assert valid.tolist() == [False, True, False]


def test_parameters_come_one_row_each():
    c = _Compiler([parse("(x1 - p1)^3", 1, 1).root, parse("p1^2", 1, 1).root])
    X = np.array([[1.0], [1.0], [1.0]])
    P = np.array([[0.0], [1.0], [3.0]])
    got, valid = eval_rows(c, X, P)
    assert valid.all()
    assert got.tolist() == [[1.0, 0.0], [0.0, 1.0], [-8.0, 9.0]]


# --- constants shared by every run -------------------------------------------------
#
# A lowering builds its constants' one-element arrays once, read-only, and
# every run of it starts from them, so a result that is a constant is that
# shared array.  Each evaluator must hand its caller arrays of its own.


def _constant_results():
    """The Hessian of x1^2 and the gradient of 3*x1 + x2^2: each holds a
    result that is a constant (2 and 3)."""
    square = parse("x1^2", 1)
    mixed = parse("3*x1 + x2^2", 2)
    return [
        [differentiate(differentiate(square, 1), 1)],
        [differentiate(mixed, 1), differentiate(mixed, 2)],
    ]


@pytest.mark.parametrize("exprs", _constant_results())
def test_no_evaluator_hands_out_a_shared_constant(exprs):
    n = exprs[0].n
    X = np.linspace(-1.0, 1.0, 5 * n).reshape(5, n)
    lowered = _Compiler([e.root for e in exprs])
    runs = [lambda: eval_rows(lowered, X, np.empty((5, 0)))]
    for e in exprs:
        runs += [
            lambda e=e: eval_batch(e, X),
            lambda e=e: eval_grid(e, [X[:, j] for j in range(n)]),
            lambda e=e: eval_bounds(e, X, X + 1.0),
        ]
    for run in runs:
        first = run()
        bits = [a.tobytes() for a in first]
        for a in first:
            a[...] = 7  # a caller writes into what it was given
        assert [a.tobytes() for a in run()] == bits


@pytest.mark.parametrize("exprs", _constant_results())
def test_a_lowering_builds_its_constants_once(exprs, monkeypatch):
    lowered = _Compiler([e.root for e in exprs])
    n = exprs[0].n
    X, P = np.ones((3, n)), np.empty((3, 0))
    first = lowered.run_rows(X.T, P.T, np.ones(3, dtype=bool))
    constants = lowered.constant_rows
    assert constants and not any(a.flags.writeable for a in constants.values())
    calls = []
    full = np.full
    monkeypatch.setattr(np, "full", lambda *args, **kw: calls.append(args) or full(*args, **kw))
    second = lowered.run_rows(X.T, P.T, np.ones(3, dtype=bool))
    lowered.run_bounds(X.T, X.T, P.T, np.ones(3, dtype=bool))
    assert calls == []
    assert lowered.constant_rows is constants
    # a constant result is the shared array itself, in every run
    shared = [a for a in first if any(a is c for c in constants.values())]
    assert shared and all(any(a is b for b in second) for a in shared)
