"""The compiled scalar evaluator against the tree walk it replaced.

``_eval_node`` below is the previous evaluator, verbatim but for the bits
and the overflow rule it shares with every evaluator.  It walked the tree
on every call and recomputed every shared subtree.  It squared with
``base ** 2`` and called ``math`` and the C library's ``pow`` for the
functions and other powers; every evaluator now squares by one
multiplication and calls numpy's ``exp``, ``log``, ``sin``, ``cos`` and
``power`` (sqrt stays ``math``'s, which has the same bits), so the walk
does too.  It caught ``OverflowError``; numpy returns inf instead, so the
walk raises the overflow error where a power or a function of a finite
operand is not finite, and the values of numpy's calls are floats, as
``math``'s were.  It reads its leaves as floats, as every bundle reads its
inputs, so an ``np.float64`` input computes in Python floats.  ``evaluate``, ``eval_f``, ``gradient`` and ``hessian``
now run straight-line code, compiled once per bundle, that computes each
distinct subexpression once.  At every input they must return the same
value (same bits, same type) or raise the same exception class with the
same message.
"""

import copy
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt.errors import DivByZero, DomainMismatch, DomainViolation
from randopt.exprlang import (
    FUNCTIONS,
    Add,
    Call,
    Div,
    Env,
    Expression,
    Mul,
    Neg,
    Num,
    Param,
    Pow,
    Sub,
    Var,
    evaluate,
    parse,
)
from randopt.randfunc import eval_f, gradient, hessian

# --- the previous tree-walking evaluator ------------------------------------------


def _eval_node(node, x, p):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(x[node.index - 1])
    if isinstance(node, Param):
        return float(p[node.index - 1])
    if isinstance(node, Neg):
        return -_eval_node(node.arg, x, p)
    if isinstance(node, Add):
        v = _eval_node(node.left, x, p) + _eval_node(node.right, x, p)
    elif isinstance(node, Sub):
        v = _eval_node(node.left, x, p) - _eval_node(node.right, x, p)
    elif isinstance(node, Mul):
        v = _eval_node(node.left, x, p) * _eval_node(node.right, x, p)
    elif isinstance(node, Div):
        denom = _eval_node(node.right, x, p)
        if denom == 0.0:
            raise DivByZero("division by zero")
        v = _eval_node(node.left, x, p) / denom
    elif isinstance(node, Pow):
        base = _eval_node(node.base, x, p)
        if base == 0.0 and node.exponent < 0:
            raise DivByZero("zero raised to a negative power")
        if node.exponent == 2:
            v = base * base
        else:
            with np.errstate(all="ignore"):
                v = float(np.power(base, float(node.exponent)))
        if not math.isfinite(v) and math.isfinite(base):
            raise DomainViolation("overflow in power")
    elif isinstance(node, Call):
        arg = _eval_node(node.arg, x, p)
        if node.func == "log" and arg <= 0.0:
            raise DomainViolation(f"log of non-positive value {arg!r}")
        if node.func == "sqrt" and arg < 0.0:
            raise DomainViolation(f"sqrt of negative value {arg!r}")
        if node.func == "sqrt":
            v = math.sqrt(arg)
        else:
            with np.errstate(all="ignore"):
                v = float(getattr(np, node.func)(arg))
        if not math.isfinite(v) and math.isfinite(arg):
            raise DomainViolation("overflow in function application")
    else:  # pragma: no cover - exhaustive
        raise TypeError(f"unknown node {node!r}")
    if not math.isfinite(v):
        raise DomainViolation("non-finite intermediate result")
    return v


def reference_evaluate(e, env):
    if len(env.x) != e.n:
        raise ValueError(f"env.x has length {len(env.x)}, expected {e.n}")
    if len(env.p) != e.k:
        raise ValueError(f"env.p has length {len(env.p)}, expected {e.k}")
    return _eval_node(e.root, env.x, env.p)


def reference_eval_f(rf, omega, x):
    return reference_evaluate(rf.body, Env(tuple(x), rf.params_of(omega)))


def reference_gradient(rf, omega, x):
    env = Env(tuple(x), rf.params_of(omega))
    return np.array([reference_evaluate(g, env) for g in rf.grad_exprs])


def reference_hessian(rf, omega, x):
    env = Env(tuple(x), rf.params_of(omega))
    n = rf.n
    H = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            H[i, j] = reference_evaluate(rf.hess_exprs[i][j], env)
    return (H + H.T) / 2.0


def outcome(fn, *args):
    """What ``fn(*args)`` did: the value's type and bits, or the error's
    class and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # numpy overflow warnings
        try:
            v = fn(*args)
        except Exception as exc:
            return ("raised", type(exc), str(exc))
    if isinstance(v, np.ndarray):
        return ("array", v.dtype, v.shape, v.tobytes())
    return ("value", type(v), struct.pack("<d", v))


# --- generated trees and points -------------------------------------------------------

N, K = 2, 1
SPACE = r.make_space([1], [1.0], [[1]])

numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-308, 1e200, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
leaves = st.one_of(
    st.builds(Num, numbers),
    st.builds(Var, st.integers(1, N)),
    st.builds(Param, st.integers(1, K)),
)
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


trees = st.recursive(leaves, _extend, max_leaves=10)

scalars = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, 1e-308, -1e-308, 1e200, 1e308, -1e308,
         math.inf, -math.inf, math.nan]
    ),
    st.floats(-10.0, 10.0),
    st.floats(),
)
# every input is a float or an np.float64, which is read as a float
typed = st.builds(lambda v, wrap: np.float64(v) if wrap else v, scalars, st.booleans())
xs = st.tuples(*[typed] * N)
ps = st.tuples(*[typed] * K)


@settings(max_examples=500, deadline=None)
@given(trees, xs, ps)
def test_evaluate_matches_the_tree_walk(root, x, p):
    e = Expression(root, N, K)
    env = Env(x, p)
    assert outcome(evaluate, e, env) == outcome(reference_evaluate, e, env)


@settings(max_examples=200, deadline=None)
@given(trees, xs, ps, st.booleans())
def test_f_gradient_and_hessian_match_the_tree_walk(root, x, p, as_array):
    body = Expression(root, N, K)
    if not all(math.isfinite(v) for v in p):
        # a random function holds finite parameters only; evaluate itself is
        # still compared at non-finite p above
        with pytest.raises(DomainMismatch, match="is not finite"):
            r.RandomFunction(SPACE, N, body, {1: p})
        return
    rf = r.RandomFunction(SPACE, N, body, {1: p})
    point = np.array(x) if as_array else x
    for new, old in (
        (eval_f, reference_eval_f),
        (gradient, reference_gradient),
        (hessian, reference_hessian),
    ):
        assert outcome(new, rf, 1, point) == outcome(old, rf, 1, point)


# --- fixed cases ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, x",
    [
        ("(x1 + 0)*(x1 + -0)", (-0.0,)),  # 0 and -0 are equal, not the same
        ("x1*x1", (1e200,)),  # non-finite product
        ("x1^2", (1e200,)),  # the product overflows
        ("x1^2", (np.float64(1e200),)),  # the same error for numpy's scalar
        ("x1^-1", (-0.0,)),
        ("log(x1)", (-0.0,)),
        ("log(x1)", (np.float64(-1.0),)),  # the message carries a plain float
        ("sqrt(x1)", (-1.0,)),
        ("exp(x1)", (1000.0,)),
        ("sin(x1)", (math.inf,)),  # NaN: non-finite intermediate result
        ("-x1", (math.inf,)),  # Neg is not checked
        ("x1/(x1 - x1)", (1.0,)),
        ("(x1 - 1)^-2 + 1/(x1 - 1)", (1.0,)),
        ("cos(-x1)", (-math.inf,)),  # the same as sin(inf)
    ],
)
def test_guards_match_the_tree_walk(text, x):
    e = parse(text, 1)
    assert outcome(evaluate, e, Env(x)) == outcome(reference_evaluate, e, Env(x))


@pytest.mark.parametrize(
    "text, x, message",
    [
        ("x1^2", 1e200, "overflow in power"),
        ("x1^2", np.float64(1e200), "overflow in power"),
        ("x1^3", 1e200, "overflow in power"),
        ("x1^-400", 0.01, "overflow in power"),
        ("exp(x1)", 1000.0, "overflow in function application"),
        ("log(x1)", -1.0, "log of non-positive value -1.0"),
        ("log(x1)", np.float64(-1.0), "log of non-positive value -1.0"),
        ("sqrt(x1)", -1.0, "sqrt of negative value -1.0"),
        ("sin(x1)", math.inf, "non-finite intermediate result"),
        ("cos(-x1)", -math.inf, "non-finite intermediate result"),
        ("x1^3", math.inf, "non-finite intermediate result"),
    ],
)
def test_errors_keep_their_messages(text, x, message):
    # numpy gives inf or NaN where math raised; the bundle raises the
    # walk's messages from the non-finite value, and no warning escapes,
    # also where the input is an np.float64, which the bundle reads as a float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainViolation) as exc:
            evaluate(parse(text, 1), Env((x,)))
    assert str(exc.value) == message


def test_signed_zero_constants_stay_apart():
    v = evaluate(parse("(x1 + 0)*(x1 + -0)", 1), Env((-0.0,)))
    assert struct.pack("<d", v) == struct.pack("<d", -0.0)


def test_zero_denominator_wins_over_a_failing_numerator():
    # the tree walk evaluates a quotient's denominator first
    e = parse("log(x1)/x2", 2)
    with pytest.raises(DivByZero, match="^division by zero$"):
        evaluate(e, Env((-1.0, 0.0)))


def test_gradient_stays_finite_where_the_hessian_overflows():
    # every Hessian entry holds the product 2e200 * 1e200, so the Hessian
    # fails at every x while the gradient is finite near 0
    rf = r.RandomFunction(SPACE, 1, parse("(1e200*x1)^2", 1), {1: ()})
    x = (1e-300,)
    assert np.isfinite(gradient(rf, 1, x)).all()
    assert outcome(gradient, rf, 1, x) == outcome(reference_gradient, rf, 1, x)
    with pytest.raises(DomainViolation, match="^non-finite intermediate result$"):
        hessian(rf, 1, x)
    assert outcome(hessian, rf, 1, x) == outcome(reference_hessian, rf, 1, x)


def test_wrong_dimensions_raise_as_before():
    e = parse("x1 + p1", 1, 1)
    for env in (Env((1.0, 2.0), (0.0,)), Env((1.0,), ())):
        assert outcome(evaluate, e, env) == outcome(reference_evaluate, e, env)
