"""A square is one multiplication, with the same bits in every evaluator.

``u^2`` is ``u * u`` in the tree walk of ``test_evaluator_reference.py``,
in ``evaluate``, ``eval_rows``, ``eval_batch`` and ``eval_grid``, and when
``pow_`` folds a constant.  The
product is correctly rounded; the C library's ``pow`` misrounds about one
square in a thousand, among them the square of ``SQUARE_BASE`` on glibc,
so a square that went through ``pow`` in one evaluator and through numpy's
square in another could differ in its last bit.
"""

import struct

import numpy as np
from hypothesis import given, settings, strategies as st

from randopt import exprlang
from randopt.errors import EvalError
from randopt.exprlang import (
    Add,
    Env,
    Expression,
    Mul,
    Num,
    Param,
    Pow,
    Sub,
    Var,
    eval_batch,
    eval_grid,
    eval_rows,
    evaluate,
    parse,
)
from test_evaluator_reference import reference_evaluate

SQUARE_BASE = -1.4119752588045307
SQUARE = 1.9936741314761213  # SQUARE_BASE * SQUARE_BASE


def bits(v) -> bytes:
    return struct.pack("<d", v)


def test_a_square_has_the_products_bits_in_every_evaluator():
    e = parse("x1^2", 1)

    def rows(count):
        return np.full((count, 1), SQUARE_BASE), np.empty((count, 0))

    got = {
        "evaluate": evaluate(e, Env((SQUARE_BASE,))),
        "evaluate at np.float64": evaluate(e, Env((np.float64(SQUARE_BASE),))),
        "tree walk": reference_evaluate(e, Env((SQUARE_BASE,))),
        "eval_rows on one row": eval_rows(e.lowered, *rows(1))[0][:, 0],
        "eval_rows on 39 rows": eval_rows(e.lowered, *rows(39))[0][:, 0],
        "eval_rows on 40 rows": eval_rows(e.lowered, *rows(40))[0][:, 0],
        "eval_batch": eval_batch(e, rows(3)[0])[0],
        "eval_grid": eval_grid(e, [np.array([SQUARE_BASE])])[0],
    }
    for where, values in got.items():
        assert {bits(v) for v in np.ravel(values)} == {bits(SQUARE)}, where


def test_a_constant_square_folds_to_the_product():
    assert exprlang.pow_(Num(SQUARE_BASE), 2) == Num(SQUARE)
    e = exprlang.substitute_params(parse("p1^2 + x1", 1, 1), (SQUARE_BASE,))
    assert e.root == Add(Num(SQUARE), Var(1))
    # the constant as written is a power node, squared when evaluated
    assert evaluate(parse("1.4119752588045307^2", 0), Env(())) == SQUARE
    # a square that overflows stays a power, whose evaluation fails
    assert exprlang.pow_(Num(1e200), 2) == Pow(Num(1e200), 2)


# --- evaluate against eval_batch on sums, differences, products and squares ---

N, K = 2, 1
numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, SQUARE_BASE, 1e154, 1e200, 1e308]),
    st.floats(-10.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
leaves = st.one_of(
    st.builds(Num, numbers),
    st.builds(Var, st.integers(1, N)),
    st.builds(Param, st.integers(1, K)),
)


def _extend(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        children.map(lambda c: Pow(c, 2)),
    )


polynomials = st.recursive(leaves, _extend, max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(polynomials, st.tuples(*[numbers] * N), st.tuples(*[numbers] * K))
def test_evaluate_and_eval_batch_agree_bit_for_bit(root, x, p):
    # the drawn point, then seeded ordinary ones: pow misrounds about one
    # square in a thousand of these
    ordinary = np.random.default_rng(0).uniform(-5.0, 5.0, (256, N))
    X = np.concatenate([np.array([x]), ordinary])
    e = Expression(root, N, K)
    values, valid = eval_batch(e, X, p)
    for i, row in enumerate(X.tolist()):
        try:
            want = evaluate(e, Env(tuple(row), p))
        except EvalError:
            assert not valid[i], i
        else:
            assert valid[i] and bits(values[i]) == bits(want), i
