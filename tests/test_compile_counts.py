"""Bundles are lowered once and rendered only for a scalar call, counted
rather than timed.

A 2-D double well with 40 scenarios in 4 atoms runs every stack of
``solve_rlop``, ``stationary`` and ``necessary``: of f, of its gradient
and of its Hessian.  Each of the three is lowered once for the function,
a second solve lowers nothing, and no command renders a bundle
(``exprlang.compile_bundle``, which compiles Python source) while every
row is defined.  A row that is undefined replays its scalar call, which
renders that one bundle.
"""

import pytest

import randopt as r
from randopt import exprlang, optimize
from randopt.optimize import stationary_searches


@pytest.fixture
def made(monkeypatch):
    """Every lowering (the ids of its roots) and every rendering (its
    lowering), in order."""
    made = {"lowered": [], "rendered": []}
    lower, render = exprlang._Compiler, exprlang.compile_bundle

    class Counted(lower):
        def __init__(self, roots):
            made["lowered"].append(tuple(id(root) for root in roots))
            super().__init__(roots)

    def counted(c, n, k):
        made["rendered"].append(c)
        return render(c, n, k)

    monkeypatch.setattr(exprlang, "_Compiler", Counted)
    monkeypatch.setattr(exprlang, "compile_bundle", counted)
    return made


def _double_well(text="(x1^2 - 1)^2 + (x2^2 - 1)^2 + p1*x1 + 0.5*x1*x2"):
    ids = list(range(40))
    space = r.make_space(ids, [1 / 40] * 40, [ids[a::4] for a in range(4)])
    rf = r.RandomFunction(space, 2, r.parse(text, 2, 1), {s: (0.1 * (s % 4),) for s in ids})
    return rf, space, r.Box((-2.0, -2.0), (2.0, 2.0))


def test_solve_rlop_lowers_each_bundle_once_and_renders_none(made):
    rf, space, box = _double_well()
    first = r.solve_rlop(rf, space, box)
    assert isinstance(first, r.Selection)
    f = (id(rf.body.root),)
    grad = tuple(id(g.root) for g in rf.grad_exprs)
    hess = tuple(id(h.root) for row in rf.hess_exprs for h in row)
    assert sorted(made["lowered"]) == sorted([f, grad, hess])
    again = r.solve_rlop(rf, space, box)
    assert sorted(made["lowered"]) == sorted([f, grad, hess])
    assert again.points == first.points
    assert made["rendered"] == []


def test_stationary_and_necessary_render_no_bundle(made):
    rf, space, box = _double_well()
    searches = stationary_searches(rf, space.scenarios, box)
    assert all(search.points for search in searches)
    points = {s: search.points[0].x for s, search in zip(space.scenarios, searches)}
    xi = r.RandomVariableRn(space, points)
    assert r.check_necessary_conditions(rf, space, xi).all_ok
    assert made["rendered"] == []
    assert len(made["lowered"]) == len(set(made["lowered"])) == 2  # gradient, Hessian


def test_the_necessary_replay_of_an_undefined_gradient_renders_it_alone(made):
    # at x1 = p1 the gradient and the Hessian divide by zero; the replay
    # raises the gradient's error before the Hessian's bundle is needed
    rf, space, _ = _double_well("x1^2 + x2^2 + 1/(x1 - p1)")
    xi = r.RandomVariableRn(space, {s: (5.0 + s, 0.0) for s in space.scenarios} | {6: (0.2, 0.0)})
    with pytest.raises(r.DivByZero, match="^division by zero$"):
        r.check_necessary_conditions(rf, space, xi)
    assert made["rendered"] == [rf.grad_lowered]


def test_the_tree_walking_evaluator_is_gone():
    assert not hasattr(exprlang, "_eval_node")
    assert not hasattr(exprlang, "_eval_rows")


def test_the_per_row_path_is_gone():
    assert not hasattr(optimize, "_at_rows")
    assert not hasattr(optimize, "ROW_KERNEL_MIN_ROWS")
