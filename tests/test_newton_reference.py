"""Lock-step multistart Newton against the per-start loop it replaced.

``_newton_from`` below is the previous sequential Newton, verbatim except
for one fix: a start that takes all ``NEWTON_MAX_ITERS`` steps reports
that many (the ``else`` clause of its loop), where it used to report one
less.  ``reference_find_stationary_points`` is the previous multistart
loop around it.  ``optimize._newton`` advances a stack of starts
together, of one scenario or of several, each with its own parameter
row, with whole-stack derivatives, sup-norms, symmetrization and solves.
On every start it must reach the same point (same bytes), after the same
number of steps, with the same status; the searches built on it must
agree on every point, skip and stall.

``reference_search_result`` is the previous tail of a search, verbatim:
``box_contains`` per point, a greedy dedup with numpy reductions per
point, and ``leading_principal_minors`` plus ``classify_definiteness`` on
each kept Hessian.  ``optimize._searches`` builds the searches of a whole
Newton stack of runs, with one Hessian stack and one classification for
the points every run keeps; each run must give the search the previous
tail gives it alone, on stacks whose points lie one ulp either side of
``DEDUP_RADIUS`` from each other and of the region's boundary widened by
1e-9.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt import optimize
from randopt.errors import EvalError
from randopt.optimize import (
    DEDUP_RADIUS,
    MARGIN_TOL,
    NEWTON_MAX_ITERS,
    NEWTON_TOL,
    SolverOptions,
    StationaryPoint,
    StationarySearch,
    _hessians,
    _newton,
    _params_rows,
    _searches,
    _solve_stack,
    classify_definiteness,
    grid_points,
    leading_principal_minors,
    stationary_searches,
    sup_norm,
)
from randopt.randfunc import eval_f, gradient, hessian

from numeric_helpers import box_contains, polish_point

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
        elif box_contains(region, x, tol=1e-9):
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
    if not box_contains(region, x, tol=1e-9):
        return None
    try:
        if eval_f(rf, omega, x) > eval_f(rf, omega, x0) + MARGIN_TOL:
            return None
    except EvalError:
        return None
    return tuple(float(v) for v in x)


def reference_search_result(rf, region, X, G, P, newton_iters, status):
    skipped = int(np.count_nonzero(status == "singular"))
    stalled = int(np.count_nonzero(status == "stalled"))
    converged = [
        i for i in np.flatnonzero(status == "converged") if box_contains(region, X[i], tol=1e-9)
    ]
    converged.sort(key=lambda i: tuple(X[i]))
    kept_x = np.empty((len(converged), rf.n))
    kept: list[int] = []
    for i in converged:
        if np.all(np.abs(kept_x[: len(kept)] - X[i]).max(axis=1) > DEDUP_RADIUS):
            kept_x[len(kept)] = X[i]
            kept.append(i)
    H, defined = _hessians(rf, kept_x[: len(kept)], P[kept])
    points = tuple(
        StationaryPoint(
            x=tuple(float(v) for v in X[i]),
            grad_norm=sup_norm(G[i]),
            minors=tuple(float(v) for v in leading_principal_minors(H[j])),
            classification=classify_definiteness(H[j]),
            newton_iters=int(newton_iters[i]),
        )
        for j, i in enumerate(kept)
        if defined[j]
    )
    skipped += int(np.count_nonzero(~defined))
    return StationarySearch(points, len(X), skipped, stalled)


# --- comparison ---------------------------------------------------------------------


def newton_of(rf, scenarios, starts):
    """``_newton`` from every start, for each scenario in turn, in one stack."""
    X0 = np.tile(starts, (len(scenarios), 1))
    return _newton(rf, X0, _params_rows(rf, scenarios, len(starts)))


def _point_bytes(point):
    return np.asarray(point, dtype=float).tobytes()


def assert_same_runs(rf, omega, starts):
    """Every start reaches the reference's point, step count and status, and
    a converged start holds the gradient there; returns the statuses."""
    X, G, iters, status = newton_of(rf, [omega], starts)
    assert X.shape == G.shape == starts.shape and len(iters) == len(status) == len(starts)
    for i, x0 in enumerate(starts):
        x, steps, want = _newton_from(rf, omega, x0)
        assert (status[i], iters[i]) == (want, steps), (x0, i)
        if want == "converged":
            assert X[i].tobytes() == x.tobytes(), (x0, X[i], x)
            assert G[i].tobytes() == gradient(rf, omega, x).tobytes(), (x0, G[i])
    return list(status)


def assert_same_search(rf, omega, region, opts, got=None, want=None):
    if got is None:
        got = r.find_stationary_points(rf, omega, region, opts)
    if want is None:
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
        assert (a.classification, a.newton_iters) == (b.classification, b.newton_iters)
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


@pytest.mark.parametrize("text", ["x1^2 + p1*log(x1 - p2)", "(x1^2 - 1)^2 + p1*log(x1 - p2)"])
def test_a_point_whose_hessian_is_undefined_is_skipped(text):
    # with p1 = 0 the log term leaves the gradient 0/(x1 - p2), defined at
    # the root x1 = 0, but the Hessian divides by (x1 - p2)^2 = 1e-400,
    # which underflows to 0: the point converges and is then skipped
    space = r.make_space([1], [1.0], [[1]])
    rf = r.RandomFunction(space, 1, r.parse(text, 1, 2), {1: (0.0, -1e-200)})
    with pytest.raises(EvalError):
        hessian(rf, 1, (0.0,))
    box = r.Box((-2.0,), (2.0,))
    assert "converged" in assert_same_runs(rf, 1, grid_points(box, 9))
    search = assert_same_search(rf, 1, box, SolverOptions(newton_grid_m=9))
    assert search.skipped_singular == 1 and (0.0,) not in [sp.x for sp in search.points]


def test_undefined_gradient_at_a_start_is_singular_from_the_start():
    # d/dx log(x1) = 1/x1 is undefined at the start 0.0 and defined elsewhere,
    # where Newton runs away from the root-free gradient
    rf = _rf("log(x1)", 1)
    box = r.Box((-2.0,), (2.0,))
    starts = grid_points(box, 9)
    statuses = assert_same_runs(rf, 1, starts)
    X, G, iters, status = newton_of(rf, [1], starts)
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
    X, G, iters, status = newton_of(rf, [1], starts)
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
    X, G, iters, status = newton_of(rf, [1], starts[i : i + 1])
    assert (status[0], iters[0]) == ("converged", 5)
    assert_same_search(rf, 1, box, SolverOptions(newton_grid_m=9))


def test_a_runaway_start_stalls_though_its_gradient_vanishes():
    # Newton on d/dx 1/x1 = -1/x1^2 multiplies x1 by 1.5 per step: the
    # gradient falls below NEWTON_TOL long before |x1| passes 1e8
    rf = _rf("1/x1", 1)
    starts = grid_points(r.Box((1.0,), (2.0,)), 5)
    assert assert_same_runs(rf, 1, starts) == ["stalled"] * 5
    X, G, iters, status = newton_of(rf, [1], starts)
    assert np.all(np.abs(X[:, 0]) > 1e8) and np.all(iters < NEWTON_MAX_ITERS)


# --- stacks of scenarios ---------------------------------------------------------------


def _stack_rf(text, n, params):
    """One scenario per parameter vector, each its own atom."""
    ids = list(range(1, len(params) + 1))
    space = r.make_space(ids, [1 / len(ids)] * len(ids), [[s] for s in ids])
    body = r.parse(text, n, len(params[0]))
    return r.RandomFunction(space, n, body, {s: tuple(p) for s, p in zip(ids, params)})


def assert_same_stack(rf, starts):
    """One stack runs every start of every scenario; each start reaches the
    reference's point, step count and status, and a converged one holds
    the gradient there.  Returns the statuses by scenario."""
    scenarios = rf.space.scenarios
    X, G, iters, status = newton_of(rf, scenarios, starts)
    by_scenario = []
    for j, omega in enumerate(scenarios):
        for i, x0 in enumerate(starts):
            row = j * len(starts) + i
            x, steps, want = _newton_from(rf, omega, x0)
            assert (status[row], iters[row]) == (want, steps), (omega, x0)
            if want == "converged":
                assert X[row].tobytes() == x.tobytes(), (omega, x0, X[row], x)
                assert G[row].tobytes() == gradient(rf, omega, x).tobytes(), (omega, x0)
        by_scenario.append(list(status[j * len(starts) : (j + 1) * len(starts)]))
    return by_scenario


@st.composite
def stacked_problems(draw):
    """Double wells plus c*sqrt(x1 - s) over 2 to 4 scenarios: s = -10 keeps
    the term smooth on the box, and s = 10 leaves the gradient undefined at
    every start of the scenario that draws it."""
    n = draw(st.integers(1, 2))
    count = draw(st.integers(2, 4))
    undefined = draw(st.integers(0, count))  # count: every scenario is defined
    params = [
        [draw(_coord) for _ in range(n)]
        + [draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 0.5)), 10.0 if j == undefined else -10.0]
        for j in range(count)
    ]
    text = _double_well(n) + f" + p{n + 2}*sqrt(x1 - p{n + 3})"
    lower = [draw(st.floats(-3.0, 1.0)) for _ in range(n)]
    width = [draw(st.sampled_from([0.0, 0.5]) | st.floats(0.1, 4.0)) for _ in range(n)]
    box = r.Box(tuple(lower), tuple(lo + w for lo, w in zip(lower, width)))
    m = draw(st.sampled_from([2, 5, 9]))
    return _stack_rf(text, n, params), box, SolverOptions(newton_grid_m=m), undefined


@settings(max_examples=40, deadline=None)
@given(stacked_problems())
def test_a_stack_of_scenarios_matches_the_sequential_newton(problem):
    rf, box, opts, undefined = problem
    starts = grid_points(box, opts.newton_grid_m)
    statuses = assert_same_stack(rf, starts)
    if undefined < len(statuses):
        assert statuses[undefined] == ["singular"] * len(starts)
    scenarios = rf.space.scenarios
    for omega, got in zip(scenarios, stationary_searches(rf, scenarios, box, opts)):
        assert_same_search(rf, omega, box, opts, got)


def test_stacks_on_both_sides_of_the_row_kernel_crossover():
    # 3 scenarios of 9 starts each make stacks of 27 rows, 3 of 81 of 243:
    # either side of 40 rows, below which a stack once called the bundle
    # per row; every stack now runs on the lowered steps
    params = [(0.3, -0.2, 0.5), (-1.1, 0.4, 0.25), (0.0, 1.4, 1.0)]
    rf = _stack_rf(_double_well(2), 2, params)
    small = grid_points(r.Box((-3.0, 0.0), (3.0, 0.0)), 9)
    large = grid_points(r.Box((-3.0, -3.0), (3.0, 3.0)), 9)
    assert 3 * len(small) < 40 <= 3 * len(large)
    for starts in (small, large):
        assert_same_stack(rf, starts)


def _recording_solves(monkeypatch):
    """Record the size and outcome of every stacked solve."""
    calls = []
    solve = np.linalg.solve

    def recording_solve(a, b):
        try:
            out = solve(a, b)
        except np.linalg.LinAlgError:
            if np.ndim(a) == 3:
                calls.append((len(a), False))
            raise
        if np.ndim(a) == 3:
            calls.append((len(a), True))
        return out

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    return calls


def test_one_singular_hessian_in_the_middle_of_a_stack(monkeypatch):
    # the Hessian 6*(x1 - p1) is singular at the start x1 = p1 of the middle
    # scenario alone: no other p1 lies on the grid
    params = [(-0.3,), (0.2,), (0.0,), (0.35,), (-0.15,)]
    rf = _stack_rf("(x1 - p1)^3 - 3*x1", 1, params)
    box, opts = r.Box((-1.0,), (1.0,)), SolverOptions(newton_grid_m=9)
    calls = _recording_solves(monkeypatch)
    statuses = assert_same_stack(rf, grid_points(box, 9))
    assert [s.count("singular") for s in statuses] == [0, 0, 1, 0, 0]
    # the failed stack is bisected down to the singular matrix alone: each
    # halving fails once, on the half that holds it
    failed = [size for size, ok in calls if not ok]
    assert failed[0] > 40 and failed[-1] == 1
    assert all(a // 2 <= b <= (a + 1) // 2 for a, b in zip(failed, failed[1:]))
    scenarios = rf.space.scenarios
    for omega, got in zip(scenarios, stationary_searches(rf, scenarios, box, opts)):
        assert_same_search(rf, omega, box, opts, got)


def test_a_bisected_solve_gives_each_matrix_its_own_bits():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((13, 3, 3))
    H[[0, 6, 12]] = 0.0  # singular at both ends and in the middle
    B = rng.standard_normal((13, 3))
    D, ok = _solve_stack(H, B)
    assert ok.tolist() == [i not in (0, 6, 12) for i in range(13)]
    for i in np.flatnonzero(ok):
        assert D[i].tobytes() == np.linalg.solve(H[i], B[i]).tobytes()


# --- the tail of a search -----------------------------------------------------------

_EDGES = tuple(np.nextafter(DEDUP_RADIUS, [0.0, DEDUP_RADIUS, 1.0]).tolist())
_STATUSES = ["converged"] * 4 + ["singular", "stalled"]


@st.composite
def search_tails(draw):
    """Newton rows of runs of f = (x1 - p1)^2*(x1 - p2) + sqrt(x1 - p3) +
    x2^4 over a box around 0, one to three runs of the same rows in their
    own orders, each with its own parameters, statuses, gradients and
    step counts: chains of points that start at 0.0 or -0.0 and step
    DEDUP_RADIUS, one ulp less or one ulp more, along an axis, and points
    one ulp either side of the box widened by 1e-9.  sqrt leaves the
    Hessian undefined left of p3.  Returns (rf, box, X, G, P, iters,
    status, m), m rows per run."""
    n = draw(st.integers(1, 2))
    lower = [-draw(st.sampled_from([1e-5, 1e-6, 0.5])) for _ in range(n)]
    upper = [draw(st.sampled_from([1e-5, 1e-6, 0.5])) for _ in range(n)]
    box = r.Box(tuple(lower), tuple(upper))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        x = [draw(st.sampled_from([0.0, -0.0])) for _ in range(n)]
        for _ in range(draw(st.integers(1, 4))):
            rows.append(list(x))
            axis = draw(st.integers(0, n - 1))
            x[axis] += draw(st.sampled_from(_EDGES)) * draw(st.sampled_from([1.0, -1.0]))
    for _ in range(draw(st.integers(0, 4))):
        x = [draw(st.sampled_from([lo, 0.0, hi])) for lo, hi in zip(lower, upper)]
        axis = draw(st.integers(0, n - 1))
        side = draw(st.sampled_from([-1.0, 1.0]))
        edge = lower[axis] - 1e-9 if side < 0 else upper[axis] + 1e-9
        x[axis] = float(np.nextafter(edge, edge + draw(st.sampled_from([-1.0, 0.0, 1.0]))))
        rows.append(x)
    m = len(rows)
    text = "(x1 - p1)^2*(x1 - p2) + sqrt(x1 - p3)" + (" + x2^4" if n == 2 else "")
    rf = _rf(text, n, (0.0, 0.0, 0.0))
    X, G, P, iters, status = [], [], [], [], []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(range(m)))
        X += [rows[i] for i in order]
        status += [draw(st.sampled_from(_STATUSES)) for _ in rows]
        G += [[draw(st.floats(-1e-10, 1e-10)) for _ in range(n)] for _ in rows]
        iters += [draw(st.integers(0, NEWTON_MAX_ITERS)) for _ in rows]
        p = (draw(st.sampled_from([0.0, 2e-6])), draw(st.sampled_from([-1.0, 1e-6])))
        P += [(*p, draw(st.sampled_from([-1.0, 1e-6])))] * m
    arrays = (np.array(X, dtype=float), np.array(G), np.array(P), np.array(iters), np.array(status))
    return (rf, box, *arrays, m)


@settings(max_examples=300, deadline=None)
@given(search_tails())
def test_the_tail_of_a_search_matches_the_previous_tail(tail):
    rf, box, X, G, P, iters, status, m = tail
    got = _searches(rf, box, X, G, P, iters, status, m)
    assert len(got) == len(X) // m
    for k, search in enumerate(got):
        run = slice(k * m, (k + 1) * m)
        want = reference_search_result(rf, box, X[run], G[run], P[run], iters[run], status[run])
        assert_same_search(rf, 1, box, None, search, want)


@pytest.mark.parametrize(
    "step,kept",
    [(_EDGES[0], 1), (_EDGES[1], 1), (_EDGES[2], 2)],
    ids=["one ulp less", "the radius", "one ulp more"],
)
def test_points_merge_at_the_radius_and_not_beyond(step, kept):
    # 0.0 and step differ by exactly step, which merges up to DEDUP_RADIUS
    rf = _rf("x1^2", 1)
    X = np.array([[step], [0.0]])
    status = np.array(["converged"] * 2)
    args = rf, r.Box((-1.0,), (1.0,)), X, np.zeros((2, 1)), _params_rows(rf, [1], 2)
    (search,) = _searches(*args, np.array([3, 4]), status, 2)
    assert [sp.x for sp in search.points] == [(0.0,), (step,)][:kept]
    assert [sp.newton_iters for sp in search.points] == [4, 3][:kept]


@pytest.mark.parametrize(
    "step,inside", [(-1.0, False), (0.0, True), (1.0, True)], ids=["out", "edge", "in"]
)
def test_points_count_within_1e9_of_the_region(step, inside):
    # the region [-1, 1] widened by 1e-9; a point one ulp outward is out
    rf = _rf("x1^2", 1)
    box = r.Box((-1.0,), (1.0,))
    for edge, inward in ((-1.0 - 1e-9, 1.0), (1.0 + 1e-9, -1.0)):
        x = float(np.nextafter(edge, edge + step * inward))
        args = rf, box, np.array([[x]]), np.zeros((1, 1)), _params_rows(rf, [1], 1)
        (search,) = _searches(*args, np.array([1]), np.array(["converged"]), 1)
        assert [sp.x for sp in search.points] == ([(x,)] if inside else [])


# --- the line search ---------------------------------------------------------------------
#
# ``_line_search`` tries lambda = 1 for every start in one stack, then the
# halvings of the starts that it leaves, several per start and stack.  Newton
# on the gradient e^x1 - 1 of f = exp(x1) - x1 from x1 = -t overshoots by
# about e^t, so the first step of a start left of 0 needs about 1.44 t
# halvings, and from t = 7 on the first halvings overflow exp: their
# gradients are undefined.  A start right of 0 takes lambda = 1.

_EXP = "exp(x1) - x1"


def first_decrease(rf, omega, x0):
    """The halving k at which the first Newton step from ``x0`` decreases
    the gradient's sup-norm, by scalar calls (None if no k < 30 does), and
    how many of the halvings before it are undefined."""
    g = gradient(rf, omega, x0)
    d = np.linalg.solve(hessian(rf, omega, x0), -g)
    undefined = 0
    for k in range(30):
        try:
            if sup_norm(gradient(rf, omega, x0 + 2.0**-k * d)) < sup_norm(g):
                return k, undefined
        except EvalError:
            undefined += 1
    return None, undefined


def _gradient_stacks(monkeypatch, rf):
    """Record the gradient stacks of ``_newton``, one list per step (a step
    begins with its Hessian stack): each stack's rows and defined mask."""
    steps = [[]]
    evaluate = optimize.eval_rows

    def recording(c, X, P):
        out, ok = evaluate(c, X, P)
        if c is rf.hess_lowered:
            steps.append([])
        elif c is rf.grad_lowered:
            steps[-1].append(ok.copy())
        return out, ok

    monkeypatch.setattr(optimize, "eval_rows", recording)
    return steps


def test_starts_that_need_each_number_of_halvings():
    # one stack of starts whose first steps need every k from 0 to 29,
    # next to starts that take lambda = 1 and starts that need more than 29
    rf = _rf(_EXP, 1)
    starts = np.concatenate([-np.arange(0.25, 24.5, 0.25), np.arange(0.25, 2.0, 0.25)])[:, None]
    needed = [first_decrease(rf, 1, x0)[0] for x0 in starts]
    assert set(range(30)) <= set(needed) and None in needed
    assert_same_runs(rf, 1, starts)


def test_starts_at_or_below_the_tolerance_get_two_tries():
    # scaled by 1e-12, every gradient from x1 = -25 to 2 is at most about
    # 6.4e-12 <= NEWTON_TOL: a start that needs 2 or more halvings stops
    rf = _rf(f"1e-12*({_EXP})", 1)
    starts = np.concatenate([-np.arange(0.25, 24.5, 0.25), np.arange(0.25, 2.0, 0.25)])[:, None]
    assert np.all(np.abs(newton_of(rf, [1], starts)[1]) <= NEWTON_TOL)
    needed = [first_decrease(rf, 1, x0)[0] for x0 in starts]
    assert {0, 1, 2, 29} <= set(needed)
    X, G, iters, status = newton_of(rf, [1], starts)
    assert_same_runs(rf, 1, starts)
    # a start that needs 2 halvings or more does not move at all
    stopped = [i for i, k in enumerate(needed) if k is None or k >= 2]
    assert all(iters[i] == 0 and X[i].tobytes() == starts[i].tobytes() for i in stopped)


def test_undefined_gradients_inside_the_tail(monkeypatch):
    rf = _rf(_EXP, 1)
    starts = np.array([[-20.0], [-12.0], [-3.0], [0.5], [1.0]])
    assert [first_decrease(rf, 1, x0) for x0 in starts[:3]] == [(25, 20), (14, 8), (3, 0)]
    steps = _gradient_stacks(monkeypatch, rf)
    assert_same_runs(rf, 1, starts)
    first_tail = steps[1][1:]
    assert first_tail and not all(ok.all() for ok in first_tail)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-24.0, 2.0), min_size=1, max_size=12), st.sampled_from([1.0, 1e-12]))
def test_generated_starts_match_the_sequential_newton(xs, scale):
    # any mix of starts, each with its own number of halvings, and the two
    # tries of a gradient at or below the tolerance
    rf = _rf(f"{scale!r}*({_EXP})", 1)
    assert_same_runs(rf, 1, np.array(xs)[:, None])


def test_a_tail_split_over_several_stacks(monkeypatch):
    # every start fails at lambda = 1, so the first tail stacks give each one
    # halving; as starts move, the others get more halvings per stack
    rf = _rf(_EXP, 1)
    starts = np.array([[-20.0], [-14.0], [-8.0], [-4.0]])
    steps = _gradient_stacks(monkeypatch, rf)
    assert_same_runs(rf, 1, starts)
    sizes = [len(ok) for ok in steps[1]]
    assert sizes[0] == 4 and len(sizes) > 2
    assert all(size <= 4 for size in sizes)


def test_a_step_where_every_start_takes_lambda_one(monkeypatch):
    # Newton on x1^2 + x2^2 lands on 0 in one step from every start (none
    # of the grid's nodes is 0), and there the gradient is 0
    rf = _rf("x1^2 + x2^2", 2)
    starts = grid_points(r.Box((-1.0, -2.0), (3.0, 2.0)), 4)
    steps = _gradient_stacks(monkeypatch, rf)
    assert set(assert_same_runs(rf, 1, starts)) == {"converged"}
    assert [[len(ok) for ok in step] for step in steps] == [[16], [16]]


def test_one_lambda_one_stack_per_step_and_no_larger_tail(monkeypatch):
    # 40 starts right of 0 take lambda = 1; -5, -10 and -20 need 5, 12 and
    # 25 halvings at their first step.  The first tail stack gives each of
    # the 3 starts 43 // 3 = 14 halvings (42 rows) and moves -5 and -10;
    # the next gives -20 its remaining 15.  One stack per halving would
    # have made 25 tail stacks.
    rf = _rf(_EXP, 1)
    starts = np.concatenate([[[-5.0], [-10.0], [-20.0]], np.linspace(0.05, 2.0, 40)[:, None]])
    assert [first_decrease(rf, 1, x0)[0] for x0 in starts[:3]] == [5, 12, 25]
    steps = _gradient_stacks(monkeypatch, rf)
    assert_same_runs(rf, 1, starts)
    assert [len(ok) for ok in steps[0]] == [43]  # the gradients at the starts
    assert [len(ok) for ok in steps[1]] == [43, 42, 15]
    for step in steps[1:]:
        assert all(len(ok) <= len(step[0]) for ok in step[1:])
