"""Row runs that skip covered finite checks against the loop that ran them all.

``reference_run_rows`` is the previous ``_Compiler.run_rows``, verbatim
but for its kernels, which are now the one table that ``run_rows`` runs:
it ran every finite check.  ``run_rows`` now skips the checks in
``_Compiler.covered``, those of a value that is no result and that only
``+ - *`` steps read: a non-finite operand gives those steps a non-finite
value (inf - inf and inf * 0 give NaN), and each of them is checked.
``eval_grid`` and ``eval_rows`` must return the same
values and masks, dtype, shape and bytes, as with the reference loop.
Checks read by a denominator, ``exp``, a power, a negation or a zero test
stay, since those steps can make a non-finite value finite.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randopt import exprlang
from randopt.errors import DomainViolation
from randopt.exprlang import (
    Call,
    Env,
    Expression,
    Mul,
    Num,
    Pow,
    Var,
    eval_grid,
    eval_rows,
    evaluate,
    parse,
)
from randopt.optimize import grid_axes
from numeric_helpers import eval_each_row
from test_batch_reference import K, N, boxes, outcome, points, ps, trees

# --- the previous step loop ---------------------------------------------------------


def reference_run_rows(self, X, P, valid):
    """The steps on rows, with ``X[j]`` the column of variable j and
    ``P[j]`` that of parameter j (one element, or one per row), through
    ``exprlang._ARRAY_KERNELS``; a failed check clears its rows in ``valid``.  Returns
    the values of the results, each of one element or one per row.
    Constants are one-element arrays of the dtype ``np.full`` gives
    them.  Columns only need to broadcast with ``valid``, so a grid's
    axes can stand for its rows (``eval_grid``)."""
    kernels = exprlang._ARRAY_KERNELS
    env = {name: np.full(1, value) for name, value in self.constants.items()}
    for (op, t, args, extra), dead in zip(self.steps, self.dead):
        if op == "finite":
            valid &= np.isfinite(env[args[0]])
        elif op == "nonzero":
            valid &= ~(env[args[0]] == 0.0)
        elif op == "x":
            env[t] = X[extra]
        elif op == "p":
            env[t] = P[extra]
        elif op == "**":
            a = env[args[0]]
            env[t] = np.square(a) if self.squares(extra) else np.power(a, self.constants[extra])
        elif op == "log":
            a = env[args[0]]
            valid &= a > 0.0
            env[t] = np.log(np.where(a > 0.0, a, 1.0))
        elif op == "sqrt":
            a = env[args[0]]
            valid &= a >= 0.0
            env[t] = np.sqrt(np.where(a >= 0.0, a, 0.0))
        else:
            env[t] = kernels[op](*[env[a] for a in args])
        for name in dead:
            del env[name]
    return [env[name] for name in self.results]


def every_check(fn, *args):
    """``outcome(fn, *args)`` with the reference loop in place of
    ``run_rows``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exprlang._Compiler, "run_rows", reference_run_rows)
        return outcome(fn, *args)


def assert_same_rows(e: Expression, X: np.ndarray, p):
    """eval_rows at the rows of ``X`` with ``p`` on every row, and
    eval_grid on ``X``'s columns as axes, each against the reference
    loop."""
    axes = [np.unique(X[:, j]) if len(X) else np.zeros(1) for j in range(e.n)]
    assert outcome(eval_grid, e, axes, p) == every_check(eval_grid, e, axes, p)
    P = np.tile(np.asarray(p, dtype=float), (len(X), 1))
    assert outcome(eval_rows, e.lowered, X, P) == every_check(eval_rows, e.lowered, X, P)


# --- generated trees ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(trees, points(), ps)
def test_generated_trees_keep_their_rows(root, X, p):
    assert_same_rows(Expression(root, N, K), X, p)


@settings(max_examples=60, deadline=None)
@given(trees, boxes(), st.integers(2, 5), ps)
def test_generated_trees_keep_their_grids(root, box, m, p):
    e = Expression(root, box.dim, K)
    axes = grid_axes(box, m)
    assert outcome(eval_grid, e, axes, p) == every_check(eval_grid, e, axes, p)


# --- fixed trees --------------------------------------------------------------------------

# rows where 1e308*x1 overflows (x1 = +-2, +-10) and where it does not
ROWS = np.array(
    [[x1, x2] for x1 in (-10.0, -2.0, -1.0, 0.0, 0.5, 2.0, 10.0) for x2 in (-1.0, 0.0, 3.0)]
)
BIG = Mul(Num(1e308), Var(1))  # inf at |x1| > 1.8


def _steps(text_or_root):
    root = parse(text_or_root, N, K).root if isinstance(text_or_root, str) else text_or_root
    e = Expression(root, N, K)
    c = e.lowered
    # a covered check is of a value that is no result and that only + - *
    # steps read, besides the check itself
    for i in c.covered:
        op, _, (name,), _ = c.steps[i]
        readers = {step[0] for step in c.steps if name in step[2]} - {"finite"}
        assert op == "finite" and name not in c.results and readers <= {"+", "-", "*"}
    return e, c


@pytest.mark.parametrize(
    "text, skipped",
    [
        # an overflow feeding +: 1e308*x1 is read by + only
        ("1e308*x1 + x2", 1),
        # inf - inf, through a product that only a difference reads
        ("1e308*x1*x2 - 1e308*x1*x2*2", 3),
        # inf * 0, where x2 - x2 is 0
        ("(1e308*x1)*(x2 - x2) + x1", 3),
        # a chain of + - *, checked only at its result
        ("((1e308*x1 + 1)*x2 - x1)*(x1 + x2) + 1", 6),
        # a value read by + and by a denominator keeps its check, and the
        # quotient, read by + only, does not
        ("1e308*x1 + 1/(1e308*x1)", 1),
    ],
)
def test_an_overflow_feeding_sums_and_products_clears_the_same_rows(text, skipped):
    e, c = _steps(text)
    assert len(c.covered) == skipped
    assert_same_rows(e, ROWS, (0.0, 0.0))
    valid = eval_each_row(e, ROWS, (0.0, 0.0))[1]
    assert not valid.all() and valid.any()


@pytest.mark.parametrize(
    "root",
    [
        Mul(Num(1.0), Pow(BIG, -2)),  # inf ** -2 is 0
        Mul(Num(1.0), Call("exp", Mul(BIG, Num(-1.0)))),  # exp(-inf) is 0
        Mul(Num(1.0), Call("sin", BIG)),
        parse("1/(1e308*x1) + x2", N, K).root,  # 1/inf is 0
        parse("x2/(1e308*x1*x2) - 1", N, K).root,
        parse("-(1e308*x1) + 1e308*x1*0", N, K).root,  # a negation reads it
    ],
)
def test_an_overflow_feeding_a_step_that_can_end_it_keeps_its_check(root):
    e, _ = _steps(root)
    assert_same_rows(e, ROWS, (0.0, 0.0))
    # the rows are cleared where 1e308*x1 overflows, though the steps after
    # it can give a finite root there
    valid = eval_each_row(e, ROWS, (0.0, 0.0))[1]
    assert not valid[np.abs(ROWS[:, 0]) > 1.8].any()


def test_the_bundle_keeps_every_check(monkeypatch):
    # a scalar call raises at the first failing check, whose message the
    # reports carry, so its one-row run makes every finite check, the
    # covered ones too; a stack of rows skips the covered ones
    e, c = _steps("((1e308*x1 + 1)*x2 - x1)*(x1 + x2) + 1")
    assert c.covered
    finite = sum(op == "finite" for op, *_ in c.steps)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a) or isfinite(a))
    assert math.isfinite(evaluate(e, Env((0.5, 0.5), (0.0, 0.0))))
    assert len(calls) == finite
    calls.clear()
    eval_each_row(e, np.full((3, N), 0.5), (0.0, 0.0))
    assert len(calls) == finite - len(c.covered)
    with pytest.raises(DomainViolation, match="non-finite intermediate result"):
        evaluate(e, Env((10.0, 0.0), (0.0, 0.0)))
