import random
from fractions import Fraction

import numpy as np
import pytest

import randopt as r
from randopt import exprlang
from randopt.errors import DomainMismatch, DomainViolation, IncompatibleRepresentation
from randopt.randfunc import halton_points

from numeric_helpers import box_contains


@pytest.fixture
def space3():
    return r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])


def quartic(space):
    return r.RandomFunction(
        space, 1, r.parse("x1^4 - 2*x1^2", 1, 0), {s: () for s in space.scenarios}
    )


def shifted_parabola(space, params):
    return r.RandomFunction(space, 1, r.parse("(x1 - p1)^2", 1, 1), params)


# --- evaluation, gradient, hessian ------------------------------------------------


def test_eval_f_examples(space3):
    rf = quartic(space3)
    assert r.eval_f(rf, 2, (1.0,)) == -1.0
    rf2 = r.RandomFunction(
        space3, 1, r.parse("x1^2 + p1", 1, 1), {1: (3.0,), 2: (3.0,), 3: (3.0,)}
    )
    assert r.eval_f(rf2, 1, (0.0,)) == 3.0
    rf3 = shifted_parabola(space3, {1: (2.0,), 2: (2.0,), 3: (2.0,)})
    assert r.eval_f(rf3, 3, (2.0,)) == 0.0


def test_eval_f_goes_through_evaluate(space3, monkeypatch):
    # the benchmark's trace-mode coverage check counts exprlang.evaluate calls
    calls = []
    evaluate = exprlang.evaluate
    monkeypatch.setattr(exprlang, "evaluate", lambda e, env: calls.append(env) or evaluate(e, env))
    rf = shifted_parabola(space3, {1: (2.0,), 2: (2.0,), 3: (-0.5,)})
    assert r.eval_f(rf, 3, [1.5]) == 4.0
    assert calls == [exprlang.Env((1.5,), (-0.5,))]


def test_eval_f_unknown_scenario(space3):
    with pytest.raises(DomainMismatch):
        r.eval_f(quartic(space3), 99, (0.0,))


def test_each_distinct_parameter_vector_is_checked_at_its_first_scenario(space3):
    # scenarios 2 and 3 hold one vector, which is checked once, at scenario 2
    for bad, message in (((float("inf"),), "number inf is not finite"), ((), "scenario 2 has 0")):
        with pytest.raises(DomainMismatch, match=message):
            shifted_parabola(space3, {1: (2.0,), 2: bad, 3: bad})


def test_missing_parameters_are_named_in_the_spaces_order():
    # an entry for a scenario outside the space does not stand in for one
    space = r.make_space([3, 1, 2, 4], [0.25] * 4, [[1, 2, 3, 4]])
    with pytest.raises(DomainMismatch) as err:
        shifted_parabola(space, {2: (0.0,), 9: (0.0,), 5: (0.0,)})
    assert str(err.value) == "no parameters for scenarios [3, 1, 4]"


def test_missing_set_descriptions_are_named_in_the_spaces_order():
    space = r.make_space([3, 1, 2, 4], [0.25] * 4, [[1, 2, 3, 4]])
    box = r.Box((0.0,), (1.0,))
    with pytest.raises(DomainMismatch) as err:
        r.RandomSet(space, {2: box, 9: box, 5: box})
    assert str(err.value) == "no set description for scenarios [3, 1, 4]"


def test_a_shared_set_description_is_read_once(space3, monkeypatch):
    # scenarios 1 and 3 hold one box, scenario 2 an equal one of its own
    reads = []
    dim = r.Box.dim
    monkeypatch.setattr(r.Box, "dim", property(lambda b: reads.append(b) or dim.fget(b)))
    shared, own = r.Box((0.0,), (1.0,)), r.Box((0.0,), (1.0,))
    r.RandomSet(space3, {1: shared, 2: own, 3: shared})
    assert [id(b) for b in reads] == [id(shared), id(own)]
    with pytest.raises(IncompatibleRepresentation, match=r"mix dimensions \[1, 2\]"):
        r.RandomSet(space3, {1: shared, 2: r.Box((0.0, 0.0), (1.0, 1.0)), 3: shared})


def test_gradient_examples(space3):
    rf = quartic(space3)
    assert r.gradient(rf, 1, (1.0,)).tolist() == [0.0]
    sq = r.RandomFunction(
        space3, 2, r.parse("x1^2 + x2^2", 2, 0), {s: () for s in space3.scenarios}
    )
    assert r.gradient(sq, 1, (1.0, 2.0)).tolist() == [2.0, 4.0]
    rf3 = shifted_parabola(space3, {1: (0.7,), 2: (0.7,), 3: (0.7,)})
    assert r.gradient(rf3, 1, (0.7,)).tolist() == [0.0]


def test_hessian_examples(space3):
    rf = quartic(space3)
    assert r.hessian(rf, 1, (1.0,)).tolist() == [[8.0]]
    assert r.hessian(rf, 1, (0.0,)).tolist() == [[-4.0]]
    sq = r.RandomFunction(
        space3, 2, r.parse("x1^2 + x2^2", 2, 0), {s: () for s in space3.scenarios}
    )
    assert np.array_equal(r.hessian(sq, 1, (3.0, -2.0)), 2.0 * np.eye(2))


def test_hessian_symmetric_cross_terms(space3):
    rf = r.RandomFunction(
        space3,
        2,
        r.parse("x1^3*x2 + sin(x1*x2)", 2, 0),
        {s: () for s in space3.scenarios},
    )
    H = r.hessian(rf, 1, (0.8, -0.3))
    assert H[0, 1] == H[1, 0]


def test_hessian_raw_asymmetry_tiny_on_polynomials(space3):
    # the (i,j) and (j,i) derivative orders give structurally different
    # trees; before averaging they must still agree to 1e-12
    rng = random.Random(17)
    from randopt.exprlang import Env, evaluate

    for _ in range(20):
        body = (
            f"{rng.uniform(-2, 2)}*x1^3*x2 + {rng.uniform(-2, 2)}*x1*x2^2"
            f" + {rng.uniform(-2, 2)}*x1^2*x2^2 + {rng.uniform(-2, 2)}*x1*x2"
        )
        rf = r.RandomFunction(
            space3, 2, r.parse(body, 2, 0), {s: () for s in space3.scenarios}
        )
        x = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        env = Env(x, ())
        h12 = evaluate(rf.hess_exprs[0][1], env)
        h21 = evaluate(rf.hess_exprs[1][0], env)
        assert abs(h12 - h21) <= 1e-12 * max(1.0, abs(h12))


# --- joint measurability --------------------------------------------------------------


def test_joint_measurability_parameter_free(space3):
    rf = quartic(space3)
    grid = r.default_probe_grid(r.Box((-2.0,), (2.0,)))
    assert r.check_joint_measurability(rf, grid).measurable


def test_joint_measurability_violated_within_atom(space3):
    rf = shifted_parabola(space3, {1: (1.0,), 2: (2.0,), 3: (0.0,)})
    verdict = r.check_joint_measurability(rf, [(0.0,)])
    assert not verdict.measurable
    w = verdict.witness
    assert w.atom == (1, 2)
    assert {w.value_a, w.value_b} == {1.0, 4.0}


def test_joint_measurability_singleton_atoms():
    space = r.make_space([1, 2], [0.5, 0.5], [[1], [2]])
    rf = shifted_parabola(space, {1: (1.0,), 2: (2.0,)})
    assert r.check_joint_measurability(rf, [(0.0,)]).measurable


def test_joint_measurability_monotone_in_probes(space3):
    rf = shifted_parabola(space3, {1: (1.0,), 2: (2.0,), 3: (0.0,)})
    # p1*0 == p1*0: the single probe x=p-independent value hides the gap
    rf_masked = r.RandomFunction(
        space3, 1, r.parse("p1*x1", 1, 1), {1: (1.0,), 2: (2.0,), 3: (0.0,)}
    )
    assert r.check_joint_measurability(rf_masked, [(0.0,)]).measurable
    # adding a probe can only flip measurable -> non_measurable
    assert not r.check_joint_measurability(rf_masked, [(0.0,), (1.0,)]).measurable
    assert not r.check_joint_measurability(rf, [(0.0,), (1.0,)]).measurable


def test_joint_measurability_eval_error_propagates(space3):
    rf = r.RandomFunction(
        space3, 1, r.parse("log(x1)", 1, 0), {s: () for s in space3.scenarios}
    )
    with pytest.raises(DomainViolation):
        r.check_joint_measurability(rf, [(-1.0,)])


# --- probe grids ------------------------------------------------------------------------


def test_default_probe_grid_contents():
    box = r.Box((-1.0, 0.0), (1.0, 2.0))
    grid = r.default_probe_grid(box)
    assert len(grid) == 4 + 1 + 32
    assert (-1.0, 0.0) in grid and (1.0, 2.0) in grid
    assert (0.0, 1.0) in grid  # center
    assert all(box_contains(box, p) for p in grid)


@pytest.mark.parametrize(
    "lo,hi,mid",
    [
        (1e308, 1.5e308, float((Fraction(1e308) + Fraction(1.5e308)) / 2)),
        (-1.7e308, -1e308, float((Fraction(-1.7e308) + Fraction(-1e308)) / 2)),
        (-1.7e308, 1.7e308, 0.0),
        # halving first would give 5e-324 here: a sum that stays finite
        # keeps the bits of (lo + hi) / 2
        (5e-324, 1e-323, 1e-323),
    ],
    ids=["overflow", "negative-overflow", "symmetric", "subnormal"],
)
def test_box_center_is_finite_where_the_bound_sum_overflows(lo, hi, mid):
    box = r.Box((lo, 0.0), (hi, 2.0))
    assert box.center() == (mid, 1.0)
    grid = r.default_probe_grid(box)
    assert all(box_contains(box, p) for p in grid)


def test_default_probe_grid_deterministic():
    box = r.Box((0.0,), (1.0,))
    assert r.default_probe_grid(box) == r.default_probe_grid(box)


def test_halton_low_discrepancy_range():
    pts = halton_points(64, 3)
    assert pts.shape == (64, 3)
    assert np.all(pts > 0) and np.all(pts < 1)
    assert len({tuple(p) for p in pts}) == 64


def test_box_validation():
    with pytest.raises(IncompatibleRepresentation):
        r.Box((1.0,), (0.0,))
    with pytest.raises(IncompatibleRepresentation):
        r.PointCloud(())
