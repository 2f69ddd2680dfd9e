"""Scalar bundles compile once per function, counted rather than timed.

A 2-D double well with 40 scenarios in 4 atoms runs every scalar path of
``solve_rlop``: f, gradient and Hessian.  Each of the three bundles must
compile once for the function, and a second solve must compile nothing.
"""

import randopt as r
from randopt import exprlang


def test_solve_rlop_compiles_each_bundle_once(monkeypatch):
    compiled = []
    original = exprlang.compile_bundle

    def counted(roots, n, k):
        compiled.append(tuple(id(root) for root in roots))
        return original(roots, n, k)

    monkeypatch.setattr(exprlang, "compile_bundle", counted)
    ids = list(range(40))
    space = r.make_space(ids, [1 / 40] * 40, [ids[a::4] for a in range(4)])
    body = r.parse("(x1^2 - 1)^2 + (x2^2 - 1)^2 + p1*x1 + 0.5*x1*x2", 2, 1)
    rf = r.RandomFunction(space, 2, body, {s: (0.1 * (s % 4),) for s in ids})
    box = r.Box((-2.0, -2.0), (2.0, 2.0))

    first = r.solve_rlop(rf, space, box)
    assert isinstance(first, r.Selection)
    assert len(compiled) == len(set(compiled)) == 3  # f, gradient, Hessian
    again = r.solve_rlop(rf, space, box)
    assert len(compiled) == 3
    assert again.points == first.points


def test_the_tree_walking_evaluator_is_gone():
    assert not hasattr(exprlang, "_eval_node")
    assert not hasattr(exprlang, "_eval_rows")
