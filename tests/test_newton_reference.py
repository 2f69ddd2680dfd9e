"""Lock-step multistart Newton against the per-start loop it replaced.

``_newton_from`` below is the previous sequential Newton, verbatim except
for one fix: a start that takes all ``NEWTON_MAX_ITERS`` steps reports
that many (the ``else`` clause of its loop), where it used to report one
less.  ``reference_find_stationary_points`` is the previous multistart
loop around it.  ``optimize._newton`` advances every start of a
scenario together, with whole-stack sup-norms, symmetrization and solves.
On every start it must reach the same point (same bytes), after the same
number of steps, with the same status; the searches built on it must
agree on every point, skip and stall.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt.errors import EvalError
from randopt.optimize import (
    DEDUP_RADIUS,
    MARGIN_TOL,
    NEWTON_MAX_ITERS,
    NEWTON_TOL,
    SolverOptions,
    StationaryPoint,
    StationarySearch,
    _newton,
    classify_definiteness,
    grid_points,
    leading_principal_minors,
    sup_norm,
)
from randopt.randfunc import eval_f, gradient, hessian

from numeric_helpers import polish_point

# --- the previous sequential Newton -------------------------------------------------


def _newton_from(rf, omega, x0):
    """Damped Newton on the gradient; returns (point or None, iters, status).

    Iteration continues past the convergence tolerance as long as steps
    keep shrinking the gradient, so degenerate roots (vanishing Hessian)
    are driven to the numerical limit instead of stopping at a point whose
    Hessian still looks definite.
    """
    x = np.asarray(x0, dtype=float).copy()
    try:
        g = gradient(rf, omega, x)
    except EvalError:
        return None, 0, "singular"
    reason = "limit"
    it = 0
    for it in range(NEWTON_MAX_ITERS):
        gn = sup_norm(g)
        if gn == 0.0:
            break
        if sup_norm(x) > 1e8:
            reason = "runaway"
            break
        try:
            H = hessian(rf, omega, x)
            d = np.linalg.solve(H, -g)
        except (EvalError, np.linalg.LinAlgError):
            reason = "singular"
            break
        lam = 1.0
        moved = False
        attempts = 2 if gn <= NEWTON_TOL else 30
        for _ in range(attempts):
            xn = x + lam * d
            try:
                gnew = gradient(rf, omega, xn)
            except EvalError:
                lam /= 2.0
                continue
            if sup_norm(gnew) < gn:
                x, g = xn, gnew
                moved = True
                break
            lam /= 2.0
        if not moved:
            reason = "nodecrease"
            break
    else:
        it = NEWTON_MAX_ITERS
    gn = sup_norm(g)
    if gn <= NEWTON_TOL and reason != "runaway":
        return x, it, "converged"
    if reason == "singular":
        return None, it, "singular"
    return None, it, "stalled"


def reference_find_stationary_points(rf, omega, region, opts=SolverOptions()):
    starts = grid_points(region, opts.newton_grid_m)
    converged = []
    skipped = stalled = 0
    for x0 in starts:
        x, iters, status = _newton_from(rf, omega, x0)
        if status == "singular":
            skipped += 1
        elif status == "stalled":
            stalled += 1
        elif region.contains(x, tol=1e-9):
            converged.append((x, iters))
    converged.sort(key=lambda pair: tuple(pair[0]))
    kept = []
    for x, iters in converged:
        if all(sup_norm(x - y) > DEDUP_RADIUS for y, _ in kept):
            kept.append((x, iters))
    points = []
    for x, iters in kept:
        try:
            g = gradient(rf, omega, x)
            H = hessian(rf, omega, x)
        except EvalError:
            skipped += 1
            continue
        points.append(
            StationaryPoint(
                omega=omega,
                x=tuple(float(v) for v in x),
                grad_norm=sup_norm(g),
                minors=tuple(float(v) for v in leading_principal_minors(H)),
                classification=classify_definiteness(H),
                newton_iters=iters,
            )
        )
    return StationarySearch(tuple(points), len(starts), skipped, stalled)


def reference_polish_point(rf, omega, x0, region):
    x, _, status = _newton_from(rf, omega, x0)
    if status != "converged" or x is None:
        return None
    if not region.contains(x, tol=1e-9):
        return None
    try:
        if eval_f(rf, omega, x) > eval_f(rf, omega, x0) + MARGIN_TOL:
            return None
    except EvalError:
        return None
    return tuple(float(v) for v in x)


# --- comparison ---------------------------------------------------------------------


def _point_bytes(point):
    return np.asarray(point, dtype=float).tobytes()


def assert_same_runs(rf, omega, starts):
    """Every start reaches the reference's point, step count and status;
    returns the statuses."""
    X, iters, status = _newton(rf, omega, starts)
    assert X.shape == starts.shape and len(iters) == len(status) == len(starts)
    for i, x0 in enumerate(starts):
        x, steps, want = _newton_from(rf, omega, x0)
        assert (status[i], iters[i]) == (want, steps), (x0, i)
        if want == "converged":
            assert X[i].tobytes() == x.tobytes(), (x0, X[i], x)
    return list(status)


def assert_same_search(rf, omega, region, opts):
    got = r.find_stationary_points(rf, omega, region, opts)
    want = reference_find_stationary_points(rf, omega, region, opts)
    assert (got.starts, got.skipped_singular, got.stalled) == (
        want.starts,
        want.skipped_singular,
        want.stalled,
    )
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert _point_bytes(a.x) == _point_bytes(b.x)
        assert _point_bytes(a.grad_norm) == _point_bytes(b.grad_norm)
        assert _point_bytes(a.minors) == _point_bytes(b.minors)
        assert (a.classification, a.newton_iters, a.omega) == (
            b.classification,
            b.newton_iters,
            b.omega,
        )
        assert type(a.newton_iters) is int
    return got


def _rf(text, n, params=()):
    space = r.make_space([1], [1.0], [[1]])
    return r.RandomFunction(space, n, r.parse(text, n, len(params)), {1: tuple(params)})


# --- double wells ---------------------------------------------------------------------


def _double_well(n):
    """n shifted 1-D double wells plus a coupling term (perfbench's local family)."""
    wells = [f"((x{i}-p{i})^2-1)^2" for i in range(1, n + 1)]
    return " + ".join(wells) + f" + p{n + 1}*" + "*".join(wells)


_coord = st.floats(-2.5, 2.5, allow_nan=False)


@st.composite
def double_well_problems(draw):
    n = draw(st.integers(1, 3))
    params = [draw(_coord) for _ in range(n)] + [draw(st.floats(-1.0, 1.0))]
    lower = [draw(st.floats(-3.0, 1.0)) for _ in range(n)]
    width = [draw(st.sampled_from([0.0, 0.5]) | st.floats(0.1, 4.0)) for _ in range(n)]
    box = r.Box(tuple(lower), tuple(lo + w for lo, w in zip(lower, width)))
    m = draw(st.sampled_from([2, 5, 9] if n < 3 else [2, 4, 5]))
    return _rf(_double_well(n), n, params), box, SolverOptions(newton_grid_m=m)


@settings(max_examples=60, deadline=None)
@given(double_well_problems())
def test_double_wells_match_the_sequential_newton(problem):
    rf, box, opts = problem
    assert_same_runs(rf, 1, grid_points(box, opts.newton_grid_m))
    search = assert_same_search(rf, 1, box, opts)
    # polishing shares the routine: polish every point found, and a start
    for x0 in [sp.x for sp in search.points] + [box.center()]:
        assert polish_point(rf, 1, x0, box) == reference_polish_point(
            rf, 1, x0, box
        )


# --- the cases the lock step must reach ---------------------------------------------------


def test_undefined_gradient_at_a_start_is_singular_from_the_start():
    # d/dx log(x1) = 1/x1 is undefined at the start 0.0 and defined elsewhere,
    # where Newton runs away from the root-free gradient
    rf = _rf("log(x1)", 1)
    box = r.Box((-2.0,), (2.0,))
    starts = grid_points(box, 9)
    statuses = assert_same_runs(rf, 1, starts)
    X, iters, status = _newton(rf, 1, starts)
    assert (status[4], iters[4]) == ("singular", 0)
    assert statuses.count("singular") == 1
    assert_same_search(rf, 1, box, SolverOptions(newton_grid_m=9))


@pytest.mark.parametrize(
    "text,n,box",
    [
        ("x1^3 + x1", 1, r.Box((-1.0,), (1.0,))),
        ("x1^3 + x1 + x2^4 - 2*x2^2", 2, r.Box((-1.0, -2.0), (1.0, 2.0))),
    ],
    ids=["1d", "2d"],
)
def test_one_singular_hessian_is_solved_around(monkeypatch, text, n, box):
    # the Hessian 6*x1 is exactly singular at the starts with x1 = 0 and
    # regular at the others: the stacked solve raises for the whole stack
    stacked_failures = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            if np.ndim(a) == 3:
                stacked_failures.append(len(a))
            raise

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    rf = _rf(text, n)
    starts = grid_points(box, 9)
    statuses = assert_same_runs(rf, 1, starts)
    assert stacked_failures and stacked_failures[0] == len(starts)
    assert 0 < statuses.count("singular") < len(starts)
    assert_same_search(rf, 1, box, SolverOptions(newton_grid_m=9))


def test_a_start_at_the_iteration_cap_reports_every_step():
    # Newton on x1^3 halves the distance to the degenerate root per step and
    # keeps going while the gradient shrinks, so only the cap stops it
    rf = _rf("x1^3", 1)
    starts = grid_points(r.Box((-1.0,), (1.0,)), 9)
    assert_same_runs(rf, 1, starts)
    X, iters, status = _newton(rf, 1, starts)
    capped = [i for i in range(len(starts)) if iters[i] == NEWTON_MAX_ITERS]
    assert capped and all(status[i] == "converged" for i in capped)


def test_a_start_below_the_tolerance_gets_two_damping_tries():
    # from this start the gradient drops below NEWTON_TOL within 5 steps;
    # then neither lambda = 1 nor 1/2 shrinks it, and the start stops there,
    # although a smaller lambda would have moved it once more
    rf = _rf(_double_well(2), 2, (-2.184, 1.476, -0.289))
    box = r.Box((-0.65, -2.86), (-0.65 + 3.0, -2.86 + 3.0))
    starts = grid_points(box, 9)
    assert_same_runs(rf, 1, starts)
    i = next(i for i, x in enumerate(starts) if tuple(x) == (-0.65, -0.23499999999999988))
    X, iters, status = _newton(rf, 1, starts[i : i + 1])
    assert (status[0], iters[0]) == ("converged", 5)
    assert_same_search(rf, 1, box, SolverOptions(newton_grid_m=9))


def test_a_runaway_start_stalls_though_its_gradient_vanishes():
    # Newton on d/dx 1/x1 = -1/x1^2 multiplies x1 by 1.5 per step: the
    # gradient falls below NEWTON_TOL long before |x1| passes 1e8
    rf = _rf("1/x1", 1)
    starts = grid_points(r.Box((1.0,), (2.0,)), 5)
    assert assert_same_runs(rf, 1, starts) == ["stalled"] * 5
    X, iters, status = _newton(rf, 1, starts)
    assert np.all(np.abs(X[:, 0]) > 1e8) and np.all(iters < NEWTON_MAX_ITERS)
