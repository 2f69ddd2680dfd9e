"""The batch evaluator against the tree walk it replaced.

``_eval_rows`` and ``reference_eval_batch`` below are the previous batch
evaluator: a recursive walk that recomputed every shared subtree and
filled every leaf to N rows with ``np.full``.  It is verbatim but for the
log and sqrt masks, which now also clear a row whose argument is NaN, as
the scalar evaluator raises there, and for its parameters, which it reads
as floats, as the scalar evaluator does.  ``eval_batch`` now runs
the hash-consed steps that a scalar call runs on one row, with one-element
leaves.  On every input both must return the same values (dtype, shape and
bytes) and the same valid mask, or raise the same exception class with the
same message.

``eval_grid`` runs the same steps on a box's grid axes, each shaped to
broadcast along its own dimension.  On every box and grid size it must
return what ``eval_batch`` returns on the rows of ``grid_points``, bit for
bit, with the same mask.  On a stack of equal-shaped tiles of a grid, each
with its own parameters, each row must be what ``eval_grid`` returns on
that tile alone; and ``eval_bounds`` with a parameter row per box must
return per box what it returns on that box alone.
"""

import copy
import math
import warnings
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from randopt import exprlang
from randopt.errors import EvalError
from randopt.exprlang import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    Expression,
    Mul,
    Neg,
    Node,
    Num,
    Param,
    Pow,
    Sub,
    Env,
    Var,
    eval_batch,
    eval_bounds,
    eval_grid,
    evaluate,
    parse,
)
from randopt.optimize import grid_axes, grid_points
from randopt.randfunc import Box

# --- the previous batch evaluator -------------------------------------------------


def reference_eval_batch(e, X, p=()):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != e.n:
        raise ValueError(f"X must have shape (N, {e.n})")
    if len(p) != e.k:
        raise ValueError(f"p has length {len(p)}, expected {e.k}")
    N = X.shape[0]
    invalid = np.zeros(N, dtype=bool)
    values = _eval_rows(e.root, X, p, invalid, N)
    values = np.where(invalid, np.nan, values)
    return values, ~invalid


def _eval_rows(
    node: Node, X: np.ndarray, p: Sequence[float], invalid: np.ndarray, N: int
) -> np.ndarray:
    """Values of ``node`` at the N rows of ``X``; rows where evaluation
    fails are set in ``invalid``.  A plain function rather than a closure,
    so a call leaves no reference cycle holding ``X`` and ``invalid``."""
    if isinstance(node, Num):
        return np.full(N, node.value)
    if isinstance(node, Var):
        return X[:, node.index - 1].copy()
    if isinstance(node, Param):  # read as a float, as the scalar bundle reads it
        return np.full(N, float(p[node.index - 1]))
    rows = (X, p, invalid, N)
    if isinstance(node, Neg):
        return -_eval_rows(node.arg, *rows)
    with np.errstate(all="ignore"):
        if isinstance(node, Add):
            v = _eval_rows(node.left, *rows) + _eval_rows(node.right, *rows)
        elif isinstance(node, Sub):
            v = _eval_rows(node.left, *rows) - _eval_rows(node.right, *rows)
        elif isinstance(node, Mul):
            v = _eval_rows(node.left, *rows) * _eval_rows(node.right, *rows)
        elif isinstance(node, Div):
            denom = _eval_rows(node.right, *rows)
            invalid[denom == 0.0] = True
            v = _eval_rows(node.left, *rows) / denom
        elif isinstance(node, Pow):
            base = _eval_rows(node.base, *rows)
            if node.exponent < 0:
                invalid[base == 0.0] = True
            v = base ** float(node.exponent)
        elif isinstance(node, Call):
            arg = _eval_rows(node.arg, *rows)
            if node.func == "sin":
                v = np.sin(arg)
            elif node.func == "cos":
                v = np.cos(arg)
            elif node.func == "exp":
                v = np.exp(arg)
            elif node.func == "log":
                invalid[~(arg > 0.0)] = True
                v = np.log(np.where(arg > 0.0, arg, 1.0))
            else:  # sqrt
                invalid[~(arg >= 0.0)] = True
                v = np.sqrt(np.where(arg >= 0.0, arg, 0.0))
        else:  # pragma: no cover - exhaustive
            raise TypeError(f"unknown node {node!r}")
    invalid[~np.isfinite(v)] = True
    return v


def outcome(fn, *args):
    """What ``fn(*args)`` did: the dtype, shape and bytes of its values and
    of its mask, or the error's class and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            values, valid = fn(*args)
        except Exception as exc:
            return ("raised", type(exc), str(exc))
    return (
        (values.dtype, values.shape, values.tobytes()),
        (valid.dtype, valid.shape, valid.tobytes()),
    )


# --- generated trees, points and parameters ------------------------------------------

N, K = 2, 2

numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-308, 1e200, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
constants = st.builds(Num, numbers)
params = st.builds(Param, st.integers(1, K))
exponents = st.one_of(st.integers(-4, 5), st.sampled_from([-400, -31, 31, 400, 1025]))


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, exponents),
        st.builds(Call, st.sampled_from(FUNCTIONS), children),
        # shared subtrees: one object twice, and two equal objects
        children.map(lambda c: Div(c, c)),
        children.map(lambda c: Mul(c, copy.deepcopy(c))),
    )


leaves = st.one_of(
    constants,
    params,
    st.builds(Var, st.integers(1, N)),
    # whole subtrees of constants only, or of parameters only, whose
    # values stay one-element arrays until they meet a column
    st.recursive(constants, _extend, max_leaves=3),
    st.recursive(params, _extend, max_leaves=3),
)
trees = st.recursive(leaves, _extend, max_leaves=10)

# NaN and infinite entries reach the domain masks without a finite check
# in between, since leaves are not checked
entries = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 1e-308, 1e200, 1e308, -1e308, math.inf, -math.inf, math.nan]
    ),
    st.floats(-10.0, 10.0),
)


@st.composite
def points(draw):
    """N = 0, 1 or more rows, the first of them at 0 when there is one."""
    rows = draw(st.lists(st.tuples(*[entries] * N), max_size=20))
    if rows and draw(st.booleans()):
        rows[0] = (0.0,) * N
    return np.array(rows, dtype=float).reshape(len(rows), N)


# bool and int parameters are read as floats: as numpy's bool or int64
# dtype, True + True would be a logical or, True - True would raise, and an
# int would wrap
parameter = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-308, 1e308]),
    st.floats(-10.0, 10.0),
    st.booleans(),
    st.integers(-3, 3),
)
ps = st.tuples(*[parameter] * K)


_SIN = Call("sin", Pow(Param(1), 2))


@settings(max_examples=600, deadline=None)
@given(trees, points(), ps)
# np.square keeps a bool parameter's dtype, and sin then returns float16
@example(Div(Mul(_SIN, _SIN), Call("cos", Pow(Param(1), 2))), np.zeros((0, N)), (False, 0.0))
def test_eval_batch_matches_the_tree_walk(root, X, p):
    e = Expression(root, N, K)
    assert outcome(eval_batch, e, X, p) == outcome(reference_eval_batch, e, X, p)


# bounds whose grids hold nodes where steps overflow; no span overflows
bounds = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-308, 1e200, -1e200, 1e308]),
    st.floats(-10.0, 10.0),
)


@st.composite
def boxes(draw):
    """A box of 2 or 3 axes, each degenerate (lo == hi) one time in four."""
    lower, upper = [], []
    for _ in range(draw(st.integers(2, 3))):
        lo, hi = sorted((draw(bounds), draw(bounds)))
        lower.append(lo)
        upper.append(lo if draw(st.integers(0, 3)) == 0 else hi)
    return Box(tuple(lower), tuple(upper))


@settings(max_examples=300, deadline=None)
@given(trees, boxes(), st.integers(2, 5), ps)
def test_eval_grid_matches_eval_batch_on_the_grid_points(root, box, m, p):
    e = Expression(root, box.dim, K)
    grid = outcome(eval_grid, e, grid_axes(box, m), p)
    assert grid == outcome(eval_batch, e, grid_points(box, m), p)


# --- fixed cases ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, p",
    [
        ("log(x1) + sqrt(x2) - 1/x1 + x2^-2", (0.0, 0.0)),  # every row mask
        ("(x1 + 0)*(x1 + -0) + 1e308*(x2 + 1e308)", (0.0, 0.0)),  # signed zeros, overflow
        ("exp(p1)*sin(p2) + cos(p1/p2)", (1.0, 3.0)),  # a subtree of parameters only
        ("log(p1 - p2) + x1", (1.0, 3.0)),  # undefined at every row
        ("1e308*10 + x1", (0.0, 0.0)),  # a subtree of constants only overflows
        ("3", (0.0, 0.0)),  # a constant root fills every row
        ("p1 + p1 + x1*0", (True, False)),  # bool parameters: 1.0 + 1.0, not a logical or
        ("p1/p2 + p1^-1", (2, 0)),  # int parameters
        ("p1 - p2", (True, False)),  # 1.0 - 0.0, which bools would refuse
        ("-p1", (True, False)),
    ],
)
@pytest.mark.parametrize("rows", [0, 1, 5])
def test_fixed_trees_match_the_tree_walk(text, p, rows):
    e = parse(text, N, K)
    X = np.linspace(-2.0, 2.0, 2 * rows).reshape(rows, N)
    assert outcome(eval_batch, e, X, p) == outcome(reference_eval_batch, e, X, p)


@pytest.mark.parametrize(
    "text, p",
    [
        ("sin(p1^2) + x1", (True, 0)),  # np.square keeps a bool, and sin gives float16
        ("p1 - p1 + x1", (True, 0)),  # numpy refuses bool subtraction
        ("p1^2 + x1", (10**10, 0)),  # 10^20 wraps in int64
        ("(p1 + p1) + (p1 + p1) + (x1 - 1)^2 + p2/x2", (-(2**62) - 1, False)),
    ],
)
def test_every_runner_reads_int_and_bool_parameters_as_floats(text, p):
    e = parse(text, N, K)
    floats = tuple(map(float, p))
    box = Box((-1.0, 0.5), (2.0, 3.0))
    X, axes = grid_points(box, 3), grid_axes(box, 3)
    assert outcome(eval_batch, e, X, p) == outcome(eval_batch, e, X, floats)
    assert outcome(eval_grid, e, axes, p) == outcome(eval_grid, e, axes, floats)
    if e.lowered.bounded:
        ends = np.array([box.lower]), np.array([box.upper])
        assert outcome(eval_bounds, e, *ends, p) == outcome(eval_bounds, e, *ends, floats)


@pytest.mark.parametrize("text", ["log(x1)", "sqrt(x2)", "1/x1", "x2^-3", "-x1", "exp(x1) + p1"])
def test_non_finite_rows_match_the_tree_walk(text):
    e = parse(text, N, K)
    X = np.array([[math.nan, math.inf], [-math.inf, math.nan], [0.0, -0.0], [1.0, -1.0]])
    assert outcome(eval_batch, e, X, (1.0, 2.0)) == outcome(reference_eval_batch, e, X, (1.0, 2.0))
    # a row is valid exactly where the scalar evaluator returns, NaN rows
    # under log and sqrt included
    _, valid = eval_batch(e, X, (1.0, 2.0))
    for row, ok in zip(X, valid):
        try:
            evaluate(e, Env(tuple(row), (1.0, 2.0)))
        except EvalError:
            assert not ok, row
        else:
            assert ok, row


@pytest.mark.parametrize("text", ["log(x1)", "sqrt(x1)", "log(x1) + x2", "sqrt(p1) + x1"])
def test_a_nan_reaching_log_or_sqrt_clears_its_row(text):
    e = parse(text, N, K)
    X = np.array([[math.nan, 1.0], [4.0, 1.0]])
    p = (math.nan,) if "p1" in text else (4.0,)
    values, valid = eval_batch(e, X, p + (0.0,))
    expected = [False, "p1" not in text]
    assert valid.tolist() == expected
    assert np.isnan(values[~valid]).all()


def test_wrong_shapes_raise_as_before():
    e = parse("x1 + p1", N, K)
    for X, p in ((np.zeros((3, 1)), (0.0, 0.0)), (np.zeros(3), (0.0, 0.0)), (np.zeros((3, 2)), (0.0,))):
        assert outcome(eval_batch, e, X, p) == outcome(reference_eval_batch, e, X, p)


def test_the_steps_are_lowered_once_per_expression():
    e = parse("log(x1) + x1*x2", N, K)
    first = e.lowered
    eval_batch(e, np.ones((4, N)), (0.0, 0.0))
    assert e.lowered is first
    # one value step per distinct node, the finite checks as steps of their own
    assert [op for op, *_ in first.steps] == [
        "x", "log", "finite", "x", "*", "finite", "+", "finite"
    ]


def test_values_do_not_alias_the_input():
    e = parse("x1", N, K)
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    values, valid = eval_batch(e, X, (0.0, 0.0))
    X[:] = 0.0
    assert values.tolist() == [1.0, 3.0] and valid.all()
    assert not np.shares_memory(values, X)



# --- stacks of grids and rows of parameters -------------------------------------------


@st.composite
def tile_stacks(draw):
    """Tiles of one shape of the grid of a box of N axes, with their starts,
    and a parameter vector per tile."""
    lower, upper = [], []
    for _ in range(N):
        lo, hi = sorted((draw(bounds), draw(bounds)))
        lower.append(lo)
        upper.append(lo if draw(st.integers(0, 3)) == 0 else hi)
    axes = grid_axes(Box(tuple(lower), tuple(upper)), draw(st.integers(2, 6)))
    shape = [draw(st.integers(1, len(a))) for a in axes]
    count = draw(st.integers(1, 4))
    starts = [[draw(st.integers(0, len(a) - m)) for a, m in zip(axes, shape)] for _ in range(count)]
    return axes, shape, starts, draw(st.lists(ps, min_size=count, max_size=count))


@settings(max_examples=300, deadline=None)
@given(trees, tile_stacks())
def test_a_stacked_eval_grid_matches_eval_grid_per_tile(root, stack):
    # each grid of the stack has the bits and the mask of its own call
    axes, shape, starts, params = stack
    e = Expression(root, N, K)
    tiles = [[a[i:i + m] for a, i, m in zip(axes, start, shape)] for start in starts]
    stacked = [np.stack(column) for column in zip(*tiles)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values, valid = eval_grid(e, stacked, np.array(params, dtype=float))
    assert values.shape == valid.shape == (len(tiles), math.prod(shape))
    for j, (tile, p) in enumerate(zip(tiles, params)):
        alone = outcome(eval_grid, e, tile, p)
        assert alone[0] == (values.dtype, values[j].shape, values[j].tobytes())
        assert alone[1] == (valid.dtype, valid[j].shape, valid[j].tobytes())


def _bounded(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(lambda c: Pow(c, 2), children),
    )


bounded_trees = st.recursive(
    st.one_of(constants, params, st.builds(Var, st.integers(1, N))), _bounded, max_leaves=10
)


@settings(max_examples=300, deadline=None)
@given(bounded_trees, st.lists(st.tuples(bounds, bounds, bounds, bounds, ps), min_size=1, max_size=5))
def test_eval_bounds_with_a_parameter_row_per_box_matches_eval_bounds_per_box(root, rows):
    e = Expression(root, N, K)
    lower = np.array([[min(a, b), min(c, d)] for a, b, c, d, _ in rows])
    upper = np.array([[max(a, b), max(c, d)] for a, b, c, d, _ in rows])
    P = np.array([p for *_, p in rows], dtype=float)
    least, proved = eval_bounds(e, lower, upper, [p for *_, p in rows])
    for i, (*_, p) in enumerate(rows):
        one = eval_bounds(e, lower[i:i + 1], upper[i:i + 1], p)
        assert (least[i:i + 1].tobytes(), proved[i]) == (one[0].tobytes(), one[1][0])
    assert outcome(eval_bounds, e, lower, upper, P) == outcome(eval_bounds, e, lower, upper, list(P))
