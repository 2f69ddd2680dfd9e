"""The interval bounds of ``exprlang.eval_bounds`` hold the nodes they bound.

A box scan skips a block when its bound proves every node valid and above
eta by more than the tolerance, so a bound must hold the floats that
``eval_grid`` computes, not only the real values.  On generated trees over
``neg + - * /``, squares, constants and parameters, with bounds up to
+-1e300 and degenerate axes, every valid node of a block must lie at or
above the block's bound, and a block whose bound claims every node valid
must have every node valid.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randopt.exprlang import (
    Add,
    Div,
    Expression,
    Mul,
    Neg,
    Num,
    Param,
    Pow,
    Sub,
    Var,
    eval_bounds,
    eval_grid,
    parse,
)

N, K = 3, 2

numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-308, 1e150, 1e300, -1e300]),
    st.floats(-10.0, 10.0),
)


def _extend(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(lambda c: Pow(c, 2), children),
        # shared subtrees: one object twice, and two equal objects
        children.map(lambda c: Mul(c, c)),
        children.map(lambda c: Sub(c, copy.deepcopy(c))),
    )


variables = st.builds(Var, st.integers(1, N))
leaves = st.one_of(variables, st.builds(Num, numbers), variables, st.builds(Param, st.integers(1, K)))
trees = st.recursive(leaves, _extend, max_leaves=10)
ps = st.tuples(*[numbers] * K)
ends = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-308, 1e150, -1e150, 1e300, -1e300]),
    st.floats(-10.0, 10.0),
)


@st.composite
def axes(draw):
    """One block's axes: per variable, sorted nodes between two ends, the
    ends among them; an axis is one node (degenerate) one time in eight."""
    out = []
    for _ in range(N):
        lo, hi = sorted((draw(ends), draw(ends)))
        if draw(st.integers(0, 7)) == 0:
            out.append(np.array([lo]))
            continue
        inner = draw(st.lists(st.floats(0.0, 1.0), max_size=4))
        out.append(np.sort(np.array([lo, hi] + [lo + t * (hi - lo) for t in inner])))
    return out


def _subtrees(node):
    yield node
    for child in vars(node).values():
        if isinstance(child, (Neg, Add, Sub, Mul, Div, Pow, Num, Param, Var)):
            yield from _subtrees(child)


@settings(max_examples=200, deadline=None)
@given(trees, st.lists(axes(), min_size=1, max_size=4), ps)
def test_every_valid_node_lies_above_its_block_bound(root, blocks, p):
    # each subtree, and its negation, whose bound is minus the subtree's
    # upper end: so both ends of every step's interval are checked
    lower = np.array([[a.min() for a in block] for block in blocks])
    upper = np.array([[a.max() for a in block] for block in blocks])
    for tree in _subtrees(root):
        for e in (Expression(tree, N, K), Expression(Neg(tree), N, K)):
            assert e.lowered.bounded
            least, proved = eval_bounds(e, lower, upper, p)
            assert least.shape == proved.shape == (len(blocks),)
            for block, low, sure in zip(blocks, least.tolist(), proved.tolist()):
                values, valid = eval_grid(e, block, p)
                assert not (values[valid] < low).any(), (low, values[valid].min())
                assert valid.all() or not sure


@pytest.mark.parametrize(
    "text, bounded",
    [
        ("x1 - p1*x2 + -x3 + 2.5", True),
        ("((x1 - p1)^2 - 1)^2 / (x2^2 + 1)", True),
        ("exp(x1)", False),
        ("log(x1) + x2", False),
        ("sin(x1)*x2", False),
        ("cos(x1)", False),
        ("sqrt(x1^2)", False),
        ("x1^3", False),
        ("x1^-2", False),
        ("x1^1", False),
    ],
)
def test_only_loads_arithmetic_and_squares_are_bounded(text, bounded):
    assert parse(text, N, K).lowered.bounded is bounded


@pytest.mark.parametrize(
    "text, lower, upper, least, proved",
    [
        # a square's interval holding 0 gives 0, not a negative product
        ("((x1 - p1)^2 - 1)^2", (-2.0,), (2.0,), 0.0, True),
        # x1*x1 is a product: its interval's ends are products of the ends
        ("x1*x1", (-2.0,), (2.0,), -4.0, True),
        # a denominator holding 0 only as an end has one sign where valid:
        # a nonnegative numerator over (0, 4] is at least 1/4 and over
        # [-4, 0) at most -1/4; a node at 0 is not proved valid
        ("(x1 + 2)/x1^2", (-1.0,), (2.0,), 0.25, False),
        ("-((x1 + 2)/-x1^2)", (-1.0,), (2.0,), 0.25, False),
        ("1/x1", (0.0,), (2.0,), 0.5, False),
        ("0/x1", (0.0,), (2.0,), -5e-324, False),
        # one holding 0 inside gives no bound
        ("1/x1", (-1.0,), (2.0,), -math.inf, False),
        # overflow at some nodes: the bound does not prove the block
        ("(1e154*x1)^2", (1.0,), (2.0,), 1e308, False),
    ],
)
def test_fixed_bounds(text, lower, upper, least, proved):
    e = parse(text, 1, 1)
    got_least, got_proved = eval_bounds(e, np.array([lower]), np.array([upper]), (1.0,))
    assert got_proved.tolist() == [proved]
    if math.isfinite(least) and least != 0.0:  # a few ulps below at most
        assert got_least[0] <= least and math.isclose(got_least[0], least, rel_tol=1e-15)
    else:
        assert got_least[0] == least
