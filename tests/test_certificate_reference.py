"""Batched ball certification against the per-sample loop it replaced.

``reference_verify_local_min`` below is the previous ``verify_local_min``,
verbatim: it evaluated each Hessian of a halving and each objective sample
one call at a time.  ``optimize.verify_local_min`` evaluates each
halving's Hessians and all the objective samples as one stack of rows.
On every input both must return the same certificate or failure (same
bits), naming the first failing sample in sample order, or raise the same
exception class with the same message.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt.errors import EvalError, NoRadiusFound
from randopt.optimize import (
    MARGIN_TOL,
    STATIONARITY_TOL,
    Definiteness,
    LocalMinCertificate,
    LocalMinFailure,
    SolverOptions,
    _unit_directions,
    classify_definiteness,
    sup_norm,
    verify_local_min,
)
from randopt.randfunc import eval_f, gradient, hessian

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


def outcome(fn, *args):
    try:
        got = fn(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(got, LocalMinCertificate):
        return ("cert", _bits(got.delta), got.samples_checked, _bits(got.min_margin))
    return ("failure", tuple(map(_bits, got.witness)), _bits(got.margin))


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
    assert message.startswith("log of non-positive value np.float64(-0.")


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
