"""Lock-step ball certification against the per-sample loop it replaced.

``reference_verify_local_min`` below is the previous ``verify_local_min``,
verbatim: it evaluated each Hessian of a halving and each objective sample
one call at a time, for one point.  ``optimize._certify`` certifies the
points of several scenarios at once: the Hessians at every center are one
stack, each halving stacks the balls of every point still without one,
and the hunts and the objective samples are one stack each.  Per point,
both must return the same certificate or failure (same bits), naming the
first failing sample in sample order, or raise the same exception class
with the same message; ``verify_local_min`` (``numeric_helpers``) is the
one-point case.  ``solve_rlop`` then raises the first error in atom order,
as its loop over atoms did.
"""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt import optimize, selection
from randopt.errors import EvalError, NoRadiusFound
from randopt.optimize import (
    MARGIN_TOL,
    STATIONARITY_TOL,
    Definiteness,
    LocalMinCertificate,
    LocalMinFailure,
    SolverOptions,
    _certify,
    _unit_directions,
    classify_definiteness,
    sup_norm,
)
from randopt.randfunc import eval_f, gradient, hessian

from numeric_helpers import verify_local_min

# --- the previous certification -----------------------------------------------------


def reference_verify_local_min(rf, omega, x, opts=SolverOptions()):
    x = np.asarray(x, dtype=float)
    n = rf.n
    g = gradient(rf, omega, x)
    if sup_norm(g) > STATIONARITY_TOL:
        raise ValueError(
            f"point is not stationary: |g|_inf = {sup_norm(g):g}"
        )
    f0 = eval_f(rf, omega, x)

    rng = np.random.default_rng([opts.seed, 0xB0A1])
    count = 8 * n
    dirs = np.concatenate([np.eye(n), -np.eye(n), _unit_directions(rng, count - 2 * n, n)])
    radii = np.array([(1.0, 0.75, 0.5, 0.25)[i % 4] for i in range(len(dirs))])

    def ball_is_pd(delta: float) -> bool:
        try:
            if classify_definiteness(hessian(rf, omega, x)) is not Definiteness.PD:
                return False
            for d, r in zip(dirs, radii):
                H = hessian(rf, omega, x + delta * r * d)
                if classify_definiteness(H) is not Definiteness.PD:
                    return False
        except EvalError:
            return False
        return True

    delta = None
    for halving in range(41):
        cand = 2.0 ** -halving
        if ball_is_pd(cand):
            delta = cand
            break

    if delta is None:
        # no PD ball: look for an explicit descent direction instead
        hunt_dirs = np.concatenate([np.eye(n), -np.eye(n), _unit_directions(rng, 10 * n, n)])
        best_margin = math.inf
        best_d = None
        for j in range(41):
            r = 2.0 ** -j
            for d in hunt_dirs:
                try:
                    margin = eval_f(rf, omega, x + r * d) - f0
                except EvalError:
                    continue
                if margin < best_margin:
                    best_margin = margin
                    best_d = r * d
        if best_d is not None and best_margin < -MARGIN_TOL:
            return LocalMinFailure(tuple(float(v) for v in best_d), float(best_margin))
        raise NoRadiusFound(
            "no ball with positive definite Hessian after 40 halvings, "
            "and sampling found no descent direction"
        )

    rng2 = np.random.default_rng([opts.seed, 0xF00D])
    K = 200 * n
    exponents = np.arange(K) / max(K - 1, 1)
    sample_radii = delta * (1.0 / 1024.0) ** exponents
    sample_dirs = _unit_directions(rng2, K, n)
    min_margin = math.inf
    for r, d in zip(sample_radii, sample_dirs):
        margin = eval_f(rf, omega, x + r * d) - f0
        if margin < min_margin:
            min_margin = margin
            if min_margin < -MARGIN_TOL:
                return LocalMinFailure(tuple(float(v) for v in r * d), float(min_margin))
    return LocalMinCertificate(delta, K, float(min_margin))


# --- comparison ---------------------------------------------------------------------


def _bits(v):
    return struct.pack("<d", v)


def _outcome(got):
    """A certificate, failure or exception as comparable bits."""
    if isinstance(got, Exception):
        return ("raised", type(got), str(got))
    if isinstance(got, LocalMinCertificate):
        return ("cert", _bits(got.delta), got.samples_checked, _bits(got.min_margin))
    return ("failure", tuple(map(_bits, got.witness)), _bits(got.margin))


def outcome(fn, *args):
    try:
        return _outcome(fn(*args))
    except Exception as exc:
        return _outcome(exc)


def assert_same(rf, x, opts=SolverOptions()):
    got = outcome(verify_local_min, rf, 1, x, opts)
    assert got == outcome(reference_verify_local_min, rf, 1, x, opts)
    return got


def _rf(text, n, params=()):
    space = r.make_space([1], [1.0], [[1]])
    return r.RandomFunction(space, n, r.parse(text, n, len(params)), {1: tuple(params)})


# --- cases ----------------------------------------------------------------------------


def _double_well(n):
    wells = [f"((x{i}-p{i})^2-1)^2" for i in range(1, n + 1)]
    return " + ".join(wells) + f" + p{n + 1}*" + "*".join(wells)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4),
    st.integers(0, 5),
)
def test_double_well_minimizers_get_the_same_certificate(n, params, seed):
    rf = _rf(_double_well(n), n, params[:n] + [abs(params[3]) / 2])
    box = r.Box((-3.0,) * n, (3.0,) * n)
    opts = SolverOptions(newton_grid_m=5 if n < 3 else 3, seed=seed)
    search = r.find_stationary_points(rf, 1, box, opts)
    for sp in search.points:
        assert_same(rf, sp.x, opts)


def test_a_shallow_slope_fails_at_the_same_first_sample():
    # |g| = 1e-8 passes as stationary, and every Hessian is PD, but the
    # samples toward -x1 closer than 0.01 go down by more than MARGIN_TOL
    got = assert_same(_rf("1e-6*x1^2", 1), (0.005,))
    assert got[0] == "failure"


def test_an_undefined_sample_raises_the_same_error():
    # 0*(1/(x1 - a)) drops out of the derivatives, so every Hessian is
    # defined, but f is undefined at the sample that lands on a
    rf = _rf("x1^2", 1)
    assert assert_same(rf, (0.0,))[0] == "cert"
    K = 200
    sample_radii = 1.0 * (1.0 / 1024.0) ** (np.arange(K) / (K - 1))
    dirs = _unit_directions(np.random.default_rng([0, 0xF00D]), K, 1)
    a = float(sample_radii[17] * dirs[17][0])
    text = f"x1^2 + 0*(1/(x1 - {abs(a)!r}))" if a > 0 else f"x1^2 + 0*(1/(x1 + {abs(a)!r}))"
    got = assert_same(_rf(text, 1), (0.0,))
    assert got == ("raised", r.DivByZero, "division by zero")


def test_undefined_hessians_shrink_the_ball_alike():
    # the sqrt term is undefined beyond x1 + x2 = -0.9, which the Hessian
    # samples at radius 1 reach and those at radius 1/2 do not
    rf = _rf("x1^2 + x2^2 + 1e-9*sqrt(x1 + x2 + 0.9)^3", 2)
    (point,) = r.find_stationary_points(rf, 1, r.Box((-0.5, -0.5), (0.5, 0.5))).points
    got = assert_same(rf, point.x)
    assert got[0] == "cert" and got[1] == _bits(0.5)


def test_a_sample_beyond_the_objective_domain_raises_with_its_value():
    # the Hessian of log(u) holds no log, so the ball of radius 1 is PD, but
    # f is undefined at some samples in it; the first one names its value
    rf = _rf("x1^2 + x2^2 + 1e-9*log(x1 + x2 + 0.9)", 2)
    (point,) = r.find_stationary_points(rf, 1, r.Box((-0.5, -0.5), (0.5, 0.5))).points
    kind, error, message = assert_same(rf, point.x)
    assert (kind, error) == ("raised", r.DomainViolation)
    assert message.startswith("log of non-positive value -0.")


@pytest.mark.parametrize(
    "text",
    [
        "x1^4",
        "x1^3",
        "x1^4 + 1e-30*log(x1 + 0.5)",
        "x1^3 + 1e-30*log(x1 + 0.5)",
        "x1^3 + x2^4 + 1e-30*sqrt(x1 + x2 + 0.3)",
    ],
)
def test_no_pd_ball_hunts_alike(text):
    # a vanishing Hessian at the center: the hunt finds descent for x1^3
    # and none for x1^4; the log and sqrt domains end inside the hunt
    # radius 1, so some hunt samples are undefined
    n = 2 if "x2" in text else 1
    got = assert_same(_rf(text, n), (0.0,) * n)
    assert got[0] == ("failure" if "x1^3" in text else "raised")


# --- several points in one lock step ----------------------------------------------------

# one objective whose parameters pick each outcome: p1 x1^2 certifies with
# delta 1; p4 (x1^4 - 2 x1^2) at x1 = 1 after two halvings; 1e-6 x1^2 at
# 0.005 descends at a sample; x1^3 has a hunt witness and x1^4 none; and
# the term 0*(1/(x1 - p5)), which drops out of the derivatives, leaves f
# undefined at the objective sample that lands on p5
MIXED = "p1*x1^2 + p2*x1^3 + p3*x1^4 + p4*(x1^4 - 2*x1^2) + 0*(1/(x1 - p5))"


def _undefined_sample(index=17):
    """The objective sample of index ``index`` around 0 in a ball of radius 1."""
    K = 200
    radii = (1.0 / 1024.0) ** (np.arange(K) / (K - 1))
    return float(radii[index] * _unit_directions(np.random.default_rng([0, 0xF00D]), K, 1)[index][0])


MIXED_CASES = {  # scenario: (parameters, point, outcome kind)
    1: ((1.0, 0.0, 0.0, 0.0, 100.0), 0.0, "cert"),
    2: ((0.0, 0.0, 0.0, 1.0, 100.0), 1.0, "cert"),
    3: ((1e-6, 0.0, 0.0, 0.0, 100.0), 0.005, "failure"),
    4: ((1.0, 0.0, 0.0, 0.0, _undefined_sample()), 0.0, "raised"),
    5: ((0.0, 1.0, 0.0, 0.0, 100.0), 0.0, "failure"),
    6: ((0.0, 0.0, 1.0, 0.0, 100.0), 0.0, "raised"),
    7: ((1.0, 0.0, 0.0, 0.0, 100.0), 0.5, "raised"),
    8: ((0.0, 0.0, 0.0, 1.0, 100.0), -1.0, "cert"),
}


def _mixed_rf():
    ids = list(MIXED_CASES)
    space = r.make_space(ids, [1 / len(ids)] * len(ids), [[s] for s in ids])
    params = {s: case[0] for s, case in MIXED_CASES.items()}
    return r.RandomFunction(space, 1, r.parse(MIXED, 1, 5), params)


@pytest.mark.parametrize("group", [1, 40, 10**9])
@pytest.mark.parametrize("order", ["forward", "backward"])
def test_the_lock_step_gives_each_point_its_own_outcome(group, order):
    # the 8 cases, six times over, are certified ``group`` pairs per lock
    # step: the centers are stacks of 1 row, of 40 and 8 rows, or of all 48,
    # and each halving stacks 8 Hessians per pair still without a ball, so
    # stacks fall on both sides of 40 rows, below which a stack once called
    # the bundle per row
    rf = _mixed_rf()
    once = list(MIXED_CASES) if order == "forward" else list(reversed(MIXED_CASES))
    scenarios = once * 6
    points = [(MIXED_CASES[s][1],) for s in scenarios]
    got = []
    for i in range(0, len(scenarios), group):
        got += [_outcome(o) for o in _certify(rf, scenarios[i:i + group], points[i:i + group])]
    want = [outcome(reference_verify_local_min, rf, s, x) for s, x in zip(once, points)]
    assert got == want * 6
    by_scenario = dict(zip(once, got))
    assert [by_scenario[s][0] for s in MIXED_CASES] == [case[2] for case in MIXED_CASES.values()]
    # the balls are certified at different halvings
    assert by_scenario[1][1] == _bits(1.0) and by_scenario[2][1] == _bits(0.25)
    errors = {s: by_scenario[s][1] for s in (4, 6, 7)}
    assert errors == {4: r.DivByZero, 6: NoRadiusFound, 7: ValueError}


def test_a_center_that_raises_leaves_the_other_points_alone():
    # the gradient at x1 = p5 divides by zero when the term has a nonzero
    # factor; the other scenarios are certified as if alone
    space = r.make_space([1, 2, 3], [1 / 3] * 3, [[1], [2], [3]])
    body = r.parse("x1^2 + p2*(1/(x1 - p1))", 1, 2)
    rf = r.RandomFunction(space, 1, body, {1: (5.0, 0.0), 2: (0.0, 1.0), 3: (7.0, 0.0)})
    got = [_outcome(o) for o in _certify(rf, [1, 2, 3], [(0.0,)] * 3)]
    assert got == [outcome(reference_verify_local_min, rf, s, (0.0,)) for s in (1, 2, 3)]
    assert [kind for kind, *_ in got] == ["cert", "raised", "cert"]


# p2*sqrt(x1 - p1)^3 leaves f defined at x1 = p1, where its derivative
# divides by zero; 0*log(x1 - p3) drops out of the derivatives, so only f
# is undefined where x1 = p3.  At x1 = 0 the centers' stacks of gradients
# and values find these rows undefined, and each replays its scalar call
CENTERS = "x1^2 + p2*sqrt(x1 - p1)^3 + 0*log(x1 - p3)"
CENTER_CASES = {  # scenario: (parameters, the outcome's first fields)
    1: ((-5.0, 0.0, -5.0), ("cert", _bits(1.0))),
    # the gradient alone is undefined
    2: ((0.0, 0.0, -5.0), ("raised", r.DivByZero, "division by zero")),
    # f alone is undefined
    3: ((-5.0, 0.0, 0.0), ("raised", r.DomainViolation, "log of non-positive value 0.0")),
    # both are: the gradient's error
    4: ((0.0, 0.0, 0.0), ("raised", r.DivByZero, "division by zero")),
    # not stationary, so f, undefined, is not evaluated
    5: ((-5.0, 1.0, 0.0), ("raised", ValueError, "point is not stationary: |g|_inf = 3.3541")),
}


@pytest.mark.parametrize("order", ["forward", "backward"])
def test_an_undefined_gradient_or_value_at_a_center_replays_its_error(order):
    ids = list(CENTER_CASES)
    space = r.make_space(ids, [1 / len(ids)] * len(ids), [[s] for s in ids])
    params = {s: case[0] for s, case in CENTER_CASES.items()}
    rf = r.RandomFunction(space, 1, r.parse(CENTERS, 1, 3), params)
    scenarios = ids if order == "forward" else ids[::-1]
    got = [_outcome(o) for o in _certify(rf, scenarios, [(0.0,)] * len(ids))]
    assert got == [outcome(reference_verify_local_min, rf, s, (0.0,)) for s in scenarios]
    for s, o in zip(scenarios, got):
        want = CENTER_CASES[s][1]
        assert o[: len(want)] == want, s


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 2),
    st.lists(st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3), min_size=1, max_size=3),
    st.integers(0, 5),
)
def test_every_stationary_point_of_several_scenarios_in_one_lock_step(n, params, seed):
    # the PD points certify at their own halvings; the saddles and maxima
    # find no PD ball and hunt for a descent witness
    ids = list(range(1, len(params) + 1))
    space = r.make_space(ids, [1 / len(ids)] * len(ids), [[s] for s in ids])
    per = {s: tuple(p[:n]) + (abs(p[2]) / 2,) for s, p in zip(ids, params)}
    rf = r.RandomFunction(space, n, r.parse(_double_well(n), n, n + 1), per)
    box = r.Box((-3.0,) * n, (3.0,) * n)
    opts = SolverOptions(newton_grid_m=5, seed=seed)
    pairs = [(s, sp.x) for s in ids for sp in r.find_stationary_points(rf, s, box, opts).points]
    got = [_outcome(o) for o in _certify(rf, [s for s, _ in pairs], [x for _, x in pairs], opts)]
    assert got == [outcome(reference_verify_local_min, rf, s, x, opts) for s, x in pairs]


# --- the first error in atom order --------------------------------------------------------


def reference_solve_rlop_tail(rf, space, region, opts, selected, convex):
    """The previous loop of ``solve_rlop`` over its selected atoms, verbatim
    but for the names of the calls it makes: verify, then scan a convex
    atom, then the next atom."""
    solved = []
    for (atom, x), is_convex in zip(selected, convex):
        rep = atom[0]
        cert = reference_verify_local_min(rf, rep, x, opts)
        if isinstance(cert, LocalMinFailure):
            raise r.RandoptError(
                f"ball verification failed at a PD stationary point {x} "
                f"(margin {cert.margin:g}); this contradicts the sufficient "
                "condition and indicates a numerical inconsistency"
            )
        if is_convex:
            gm = optimize.global_min_compact(rf, rep, region, opts.grid_m)
            fx = eval_f(rf, rep, x)
            if fx <= gm.grid_value + 1e-9:
                cert = ("global", float(fx))
        solved.append((atom, x, cert))
    return solved


ATOM_CASES = {
    "convex": (1.0, 0.0, 0.0, 0.0, 100.0),  # x1^2: certified, then scanned
    "undefined": (1.0, 0.0, 0.0, 0.0, _undefined_sample()),  # convex, raises
    "wells": (0.0, 0.0, 0.0, 1.0, 100.0),  # not convex: certified, no scan
}


@pytest.mark.parametrize(
    "atoms",
    [
        ("convex", "undefined"),
        ("undefined", "convex"),
        ("wells", "undefined", "convex"),
        ("convex", "wells", "undefined", "undefined"),
        ("convex", "wells"),
    ],
)
@pytest.mark.parametrize("scan_raises", [False, True])
def test_solve_rlop_raises_the_first_error_in_atom_order(atoms, scan_raises):
    ids = list(range(1, len(atoms) + 1))
    space = r.make_space(ids, [1 / len(ids)] * len(ids), [[s] for s in ids])
    rf = r.RandomFunction(space, 1, r.parse(MIXED, 1, 5), {s: ATOM_CASES[a] for s, a in zip(ids, atoms)})
    region = r.Box((-1.5,), (1.5,))
    opts = SolverOptions(grid_m=21)

    real_scan, real_scan_min = optimize.global_min_compact, optimize.scan_min

    def run(solve):
        scans = []

        def scan(rf, rep, region, grid_m):  # the loop's scan of one atom
            scans.append(rep)
            if scan_raises:
                raise r.DomainViolation(f"scan of scenario {rep}")
            return real_scan(rf, rep, region, grid_m)

        def scan_min(rf, inputs, grid_m, tol):  # solve_rlop's one scan of every convex atom
            scans.append([rep for rep, _ in inputs])
            if scan_raises:
                return [r.DomainViolation(f"scan of scenario {rep}") for rep, _ in inputs]
            return real_scan_min(rf, inputs, grid_m, tol)

        with mock.patch.object(selection, "scan_min", scan_min), \
                mock.patch.object(optimize, "global_min_compact", scan):
            try:
                solved = solve()
            except r.RandoptError as exc:
                return scans, (type(exc), str(exc))
        return scans, solved

    recorded = {}

    def tail(rf, reps, points, opts):
        recorded["reps"] = reps
        return _certify(rf, reps, points, opts)

    def solved(sel):
        certs = [sel.certificates[s] for s in ids]
        return [
            ((s,), sel.points[s], ("global", c.value) if isinstance(c, selection.GlobalCert) else c)
            for s, c in zip(ids, certs)
        ]

    with mock.patch.object(selection, "_certify", tail):
        got = run(lambda: solved(r.solve_rlop(rf, space, region, opts)))
    selected = [((s,), (0.0,) if atoms[s - 1] != "wells" else (-1.0,)) for s in ids]
    convex = [a != "wells" for a in atoms]
    want = run(lambda: reference_solve_rlop_tail(rf, space, region, opts, selected, convex))
    assert recorded["reps"] == ids  # every atom is certified in one lock step
    assert got[1] == want[1]
    # one call scans every convex atom; the loop scanned the convex atoms
    # before the first atom that raises, and only those; a scan that
    # raises is the first error
    assert got[0] == [[s for s in ids if atoms[s - 1] != "wells"]]
    first_bad = atoms.index("undefined") if "undefined" in atoms else len(atoms)
    scanned = [s for s in ids[:first_bad] if atoms[s - 1] == "convex"]
    if scan_raises and scanned:
        assert want == (scanned[:1], (r.DomainViolation, f"scan of scenario {scanned[0]}"))
    elif first_bad < len(atoms):
        assert want == (scanned, (r.DivByZero, "division by zero"))
    else:
        assert want[0] == scanned
        kinds = [type(cert) for *_, cert in got[1]]
        assert kinds == [tuple if a == "convex" else LocalMinCertificate for a in atoms]
