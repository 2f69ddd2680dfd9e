import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt.errors import IncompatibleRepresentation, NotSymmetric
from randopt import cli, optimize
from randopt.document import load_problem
from randopt.optimize import (
    MAX_GRID_POINTS,
    Definiteness,
    LocalMinFailure,
    SolverOptions,
    grid_points,
    jacobi_eigenvalues,
    leading_principal_minors,
    sup_norm,
)
from randopt.randfunc import symmetrize

from classify_reference import _classify as reference_classify
from numeric_helpers import verify_local_min

GALLERY = Path(__file__).resolve().parent.parent / "gallery"


@pytest.fixture
def space3():
    return r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])


def make_rf(space, text, n=1, params=None):
    k = 0 if params is None else len(next(iter(params.values())))
    if params is None:
        params = {s: () for s in space.scenarios}
    return r.RandomFunction(space, n, r.parse(text, n, k), params)


# --- leading principal minors ------------------------------------------------------


def test_minors_paper_value():
    assert leading_principal_minors(np.array([[8.0]])).tolist() == [8.0]


def test_minors_identity():
    assert leading_principal_minors(np.eye(3)).tolist() == [1.0, 1.0, 1.0]


def test_minors_2x2_hand_value():
    assert leading_principal_minors(np.array([[2.0, 1.0], [1.0, 2.0]])).tolist() == [
        2.0,
        3.0,
    ]


def test_minors_large_matches_numpy_det():
    rng = np.random.default_rng(3)
    A = rng.uniform(-2, 2, size=(6, 6))
    H = (A + A.T) / 2
    minors = leading_principal_minors(H)
    for k in range(1, 7):
        assert minors[k - 1] == pytest.approx(np.linalg.det(H[:k, :k]), rel=1e-10)


def test_minors_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        leading_principal_minors(np.array([[1.0, 2.0], [0.0, 1.0]]))


# --- Jacobi eigenvalues --------------------------------------------------------------


def test_jacobi_hand_eigenvalues():
    lam = jacobi_eigenvalues(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert lam == pytest.approx([-1.0, 3.0], abs=1e-12)


def test_jacobi_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = rng.integers(1, 7)
        A = rng.uniform(-5, 5, size=(n, n))
        H = (A + A.T) / 2
        lam = jacobi_eigenvalues(H)
        ref = np.linalg.eigvalsh(H)
        assert np.max(np.abs(lam - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


# --- definiteness classification -------------------------------------------------------


def test_classify_paper_examples():
    assert r.classify_definiteness(np.array([[8.0]])) is Definiteness.PD
    assert r.classify_definiteness(np.array([[-4.0]])) is Definiteness.ND
    assert (
        r.classify_definiteness(np.array([[1.0, 2.0], [2.0, 1.0]]))
        is Definiteness.INDEFINITE
    )


def test_classify_degenerate_cases():
    assert (
        r.classify_definiteness(np.diag([1.0, 0.0])) is Definiteness.PSD_DEGENERATE
    )
    assert (
        r.classify_definiteness(np.diag([-1.0, 0.0])) is Definiteness.NSD_DEGENERATE
    )
    assert r.classify_definiteness(np.zeros((2, 2))) is Definiteness.PSD_DEGENERATE


def _cholesky_pivots_ok(H: np.ndarray, tau: float) -> bool:
    """Independent oracle: Cholesky succeeds with every pivot above tau."""
    H = np.array(H, dtype=float)
    n = H.shape[0]
    L = np.zeros_like(H)
    for j in range(n):
        s = H[j, j] - np.dot(L[j, :j], L[j, :j])
        if s <= tau:
            return False
        L[j, j] = math.sqrt(s)
        for i in range(j + 1, n):
            L[i, j] = (H[i, j] - np.dot(L[i, :j], L[j, :j])) / L[j, j]
    return True


def test_sylvester_equals_cholesky_and_eigen_oracles():
    rng = np.random.default_rng(5)
    tol_rel = 1e-10
    for trial in range(300):
        n = int(rng.integers(1, 7))
        if trial % 3 == 2:
            M = rng.uniform(-2, 2, size=(n, n))
            H = M.T @ M + 0.5 * np.eye(n)  # constructed PD
        else:
            A = rng.uniform(-5, 5, size=(n, n))
            H = (A + A.T) / 2
        tau = tol_rel * (1.0 + float(np.max(np.sum(np.abs(H), axis=1))))
        pd_sylvester = r.classify_definiteness(H) is Definiteness.PD
        pd_cholesky = _cholesky_pivots_ok(H, tau)
        pd_jacobi = float(jacobi_eigenvalues(H)[0]) > tau
        assert pd_sylvester == pd_cholesky == pd_jacobi


# --- one symmetrization, one classification ----------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "public", [r.classify_definiteness, leading_principal_minors, jacobi_eigenvalues]
)
def test_the_public_matrix_functions_reject_a_non_finite_matrix(public, bad):
    with pytest.raises(NotSymmetric, match=f"number {bad!r} is not finite"):
        public(np.array([[1.0, 0.0], [0.0, bad]]))


@pytest.mark.parametrize("big", [1e308, 2e160])
def test_a_pd_matrix_whose_minors_overflow_is_pd(big):
    # 1e308 + 1e308 overflows an averaging that adds first, and the second
    # minor and its Sylvester threshold pass the largest double
    H = np.diag([big, big])
    assert r.classify_definiteness(H) is Definiteness.PD
    assert leading_principal_minors(H).tolist() == [big, math.inf]
    assert jacobi_eigenvalues(H).tolist() == [big, big]
    minors, classify = optimize._classify_stack(H[None])
    assert (minors.tolist(), classify(0)) == ([[big, math.inf]], Definiteness.PD)
    assert reference_classify(H) == ((big, math.inf), Definiteness.PD)


@pytest.mark.parametrize(
    "sign, expected", [(-1.0, Definiteness.NSD_DEGENERATE), (1.0, Definiteness.PSD_DEGENERATE)]
)
def test_a_matrix_whose_row_sums_overflow_keeps_its_class(sign, expected):
    # each row sums past the largest double, so the norm, every threshold
    # and tau are inf unless the matrix is scaled; its minors are not
    H = sign * np.full((2, 2), 1.7e308)
    assert r.classify_definiteness(H) is expected
    minors, classify = optimize._classify_stack(H[None])
    assert classify(0) is expected
    assert minors[0, 0] == sign * 1.7e308 and math.isnan(minors[0, 1])
    assert reference_classify(H)[1] is expected


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.sampled_from([1e308, -1.7e308, 5e-324, -0.0]), _finite),
                min_size=n * n,
                max_size=n * n,
            ),
            min_size=1,
            max_size=3,
        ).map(lambda rows: np.array(rows).reshape(len(rows), n, n))
    )
)
def test_symmetrize_averages_each_pair_exactly(H):
    S = symmetrize(H)
    assert np.isfinite(S).all()
    for idx in np.ndindex(H.shape):
        k, i, j = idx
        a, b = float(H[k, i, j]), float(H[k, j, i])
        want = (a + b) / 2.0
        if math.isinf(want):  # a + b overflowed
            want = a / 2.0 + b / 2.0
        assert struct.pack("<d", S[idx]) == struct.pack("<d", want)
    sym = np.triu(H) + np.swapaxes(np.triu(H, 1), 1, 2)  # the upper triangle, mirrored
    assert symmetrize(sym).tobytes() == sym.tobytes()


def _counted_everywhere(monkeypatch, function, record):
    """Count the calls of ``function`` through every randopt module that
    holds it under some name."""

    def counted(*args, **kwargs):
        record.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "randopt" or name.startswith("randopt."):
            for attr in [a for a, v in vars(module).items() if v is function]:
                monkeypatch.setattr(module, attr, counted)


@pytest.mark.parametrize("command", ["stationary", "solve-rlop", "necessary"])
def test_each_hessian_is_symmetrized_once_and_classified_once(tmp_path, monkeypatch, command):
    # the Hessians arrive symmetrized from ``randfunc.hessian`` or
    # ``optimize._hessians``: nothing checks or averages them again, and
    # the minors of each classified matrix are taken once, by its stack:
    # the per-matrix fallback (``_eigen_class``) takes none, and a matrix
    # rescaled for its row sums is classified as a stack of its own
    checks, minors, stacks = [], [], []
    _counted_everywhere(monkeypatch, optimize._as_symmetric, checks)
    _counted_everywhere(monkeypatch, optimize._stack_minors, minors)
    _counted_everywhere(monkeypatch, optimize._classify_stack, stacks)
    for path in sorted(GALLERY.glob("*.json")):
        cli.run(command, load_problem(str(path)), str(tmp_path / "out.json"))
    assert checks == []
    rows = [len(S) for (S,) in stacks]
    assert [len(S) for (S,) in minors] == rows and sum(rows) > 0


# --- stationary point search --------------------------------------------------------------


def test_find_stationary_quartic(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    search = r.find_stationary_points(
        rf, 1, r.Box((-2.0,), (2.0,)), SolverOptions(newton_grid_m=9)
    )
    xs = [sp.x[0] for sp in search.points]
    assert len(xs) == 3
    assert xs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-8)
    assert [sp.classification for sp in search.points] == [
        Definiteness.PD,
        Definiteness.ND,
        Definiteness.PD,
    ]
    assert search.points[0].minors[0] == pytest.approx(8.0, abs=1e-6)
    assert search.points[1].minors[0] == pytest.approx(-4.0, abs=1e-6)
    assert all(sp.grad_norm <= 1e-10 for sp in search.points)


def test_find_stationary_bowl(space3):
    rf = make_rf(space3, "x1^2 + x2^2", n=2)
    search = r.find_stationary_points(
        rf, 1, r.Box((-1.0, -1.0), (1.0, 1.0)), SolverOptions(newton_grid_m=5)
    )
    assert len(search.points) == 1
    assert search.points[0].x == (0.0, 0.0)
    assert search.points[0].classification is Definiteness.PD


def test_find_stationary_linear_has_none(space3):
    rf = make_rf(space3, "x1")
    search = r.find_stationary_points(rf, 1, r.Box((-1.0,), (1.0,)))
    assert search.points == ()
    # linear gradient, zero Hessian: every start is a singular skip
    assert search.skipped_singular == search.starts


def test_find_stationary_discards_outside_region(space3):
    rf = make_rf(space3, "(x1 - 10)^2")
    search = r.find_stationary_points(rf, 1, r.Box((-1.0,), (1.0,)))
    assert search.points == ()


# --- local minimality certificates -----------------------------------------------------------


def test_verify_local_min_quartic_at_one(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    cert = verify_local_min(rf, 1, (1.0,))
    assert isinstance(cert, r.LocalMinCertificate)
    assert cert.delta >= 0.25
    assert cert.min_margin >= 0.0
    # independent oracle: dense sweep of the certified ball
    xs = np.linspace(1.0 - cert.delta, 1.0 + cert.delta, 20001)
    f = xs**4 - 2 * xs**2
    assert f.min() >= -1.0 - 1e-12


def test_verify_local_min_quartic_at_zero_fails(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    out = verify_local_min(rf, 1, (0.0,))
    assert isinstance(out, LocalMinFailure)
    d = out.witness[0]
    assert d**4 - 2 * d**2 < -1e-12  # the witness really descends


def test_verify_local_min_parabola_delta_one(space3):
    rf = make_rf(space3, "x1^2")
    cert = verify_local_min(rf, 1, (0.0,))
    assert cert.delta == 1.0
    assert cert.min_margin >= 0.0


def test_verify_local_min_requires_stationarity(space3):
    rf = make_rf(space3, "x1^2")
    with pytest.raises(ValueError):
        verify_local_min(rf, 1, (0.5,))


def test_verify_local_min_flat_quartic_degenerate(space3):
    # x^4 at 0: true minimum but Hessian 0, no descent witness either
    rf = make_rf(space3, "x1^4")
    with pytest.raises(r.NoRadiusFound):
        verify_local_min(rf, 1, (0.0,))


def test_verify_local_min_cubic_failure_witness(space3):
    rf = make_rf(space3, "x1^3")
    out = verify_local_min(rf, 1, (0.0,))
    assert isinstance(out, LocalMinFailure)
    assert out.witness[0] < 0.0


def test_verify_never_fails_at_pd_stationary_points(space3):
    # a certified-PD stationary point always earns a certificate
    import random

    rng = random.Random(23)
    certified = 0
    while certified < 25:
        body = (
            f"{rng.uniform(0.3, 1.5)}*x1^4 + {rng.uniform(-2, 2)}*x1^2"
            f" + {rng.uniform(-1, 1)}*x1"
        )
        rf = make_rf(space3, body)
        search = r.find_stationary_points(rf, 1, r.Box((-3.0,), (3.0,)))
        for sp in search.points:
            if sp.classification is not Definiteness.PD:
                continue
            out = verify_local_min(rf, 1, sp.x)
            assert isinstance(out, r.LocalMinCertificate), (body, sp.x)
            assert out.min_margin >= -1e-12
            certified += 1


# --- grid global minimization -------------------------------------------------------------------


def test_global_min_quartic_tie_breaks_left(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    res = r.global_min_compact(rf, 1, r.Box((-2.0,), (2.0,)), 401)
    assert res.grid_x == (-1.0,)
    assert res.grid_value == -1.0
    assert res.excluded == 0


def test_global_min_boundary(space3):
    rf = make_rf(space3, "(x1 - 3)^2")
    res = r.global_min_compact(rf, 1, r.Box((0.0,), (1.0,)), 101)
    assert res.grid_x == (1.0,)
    assert res.grid_value == 4.0


def test_global_min_point_cloud(space3):
    rf = make_rf(space3, "x1^2")
    res = r.global_min_compact(rf, 1, r.PointCloud(((0.0,), (2.0,))), 11)
    assert res.grid_x == (0.0,)
    assert res.grid_value == 0.0


def test_global_min_excludes_undefined_points(space3):
    rf = make_rf(space3, "log(x1)")
    res = r.global_min_compact(rf, 1, r.Box((-1.0,), (1.0,)), 11)
    assert res.excluded == 6  # nodes -1.0 .. 0.0 are outside log's domain
    assert res.grid_x[0] == pytest.approx(0.2)  # smallest strictly positive node
    assert res.grid_value == math.log(res.grid_x[0])


def test_global_min_rejects_level_set(space3):
    rf = make_rf(space3, "x1^2")
    ls = r.LevelSet((r.parse("x1", 1, 0),), (), r.Box((-1.0,), (1.0,)))
    with pytest.raises(IncompatibleRepresentation):
        r.global_min_compact(rf, 1, ls, 11)


def test_affine_invariance_of_argmin(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    rf_affine = make_rf(space3, "3*(x1^4 - 2*x1^2) + 5")
    box = r.Box((-2.0,), (2.0,))
    base = r.global_min_compact(rf, 1, box, 401)
    scaled = r.global_min_compact(rf_affine, 1, box, 401)
    assert base.grid_x == scaled.grid_x
    assert scaled.grid_value == 3.0 * base.grid_value + 5.0
    s1 = r.find_stationary_points(rf, 1, box)
    s2 = r.find_stationary_points(rf_affine, 1, box)
    assert [sp.x for sp in s1.points] == pytest.approx(
        [sp.x for sp in s2.points], abs=1e-9
    )


# --- optimal value ---------------------------------------------------------------------------------


def test_optimal_value_quartic(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    C = r.RandomSet(space3, {s: r.Box((-2.0,), (2.0,)) for s in space3.scenarios})
    ov = r.optimal_value(rf, space3, C, 401)
    assert all(ov.eta.values[s] == (-1.0,) for s in space3.scenarios)
    assert ov.verdict.measurable


def test_optimal_value_vertex_reachable(space3):
    rf = make_rf(space3, "(x1 - p1)^2", params={s: (3.0,) for s in space3.scenarios})
    C = r.RandomSet(space3, {s: r.Box((0.0,), (5.0,)) for s in space3.scenarios})
    ov = r.optimal_value(rf, space3, C, 101)
    assert all(ov.eta.values[s] == (0.0,) for s in space3.scenarios)
    assert ov.verdict.measurable


def test_optimal_value_non_measurable_example(space3):
    # spec example: params (1, 2) inside atom [1,2], box [5,6]
    rf = make_rf(space3, "(x1 - p1)^2", params={1: (1.0,), 2: (2.0,), 3: (3.0,)})
    C = r.RandomSet(space3, {s: r.Box((5.0,), (6.0,)) for s in space3.scenarios})
    ov = r.optimal_value(rf, space3, C, 101)
    assert ov.eta.values[1] == (16.0,)
    assert ov.eta.values[2] == (9.0,)
    assert not ov.verdict.measurable
    # consistent: f itself fails joint measurability, so no measurable
    # optimal value was promised in the first place
    assert not r.check_joint_measurability(rf, [(5.0,)]).measurable


# --- sup norm ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), st.floats()),
        min_size=1,
        max_size=6,
    )
)
def test_sup_norm_matches_max_of_abs(values):
    v = np.array(values)
    expected = float(np.max(np.abs(v)))
    assert struct.pack("<d", sup_norm(v)) == struct.pack("<d", expected)


def test_grid_cap_raises_before_any_axis_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(optimize.np, "linspace", lambda *a, **k: built.append(a))
    box = r.Box((-1.0, 0.5, -2.0), (1.0, 0.5, 2.0))  # the middle axis has one node
    m = math.isqrt(MAX_GRID_POINTS) + 1
    with pytest.raises(r.RandoptError, match=f"grid of {m * m} points exceeds cap"):
        grid_points(box, m)
    assert built == []


def test_grid_of_exactly_the_cap_is_built(monkeypatch):
    monkeypatch.setattr(optimize, "MAX_GRID_POINTS", 12)
    X = grid_points(r.Box((-1.0, 0.5), (1.0, 0.5)), 12)
    assert X.shape == (12, 2)
    assert (X[0, 0], X[-1, 0], X[0, 1]) == (-1.0, 1.0, 0.5)
    with pytest.raises(r.RandoptError, match="grid of 16 points exceeds cap 12"):
        grid_points(r.Box((-1.0, -1.0), (1.0, 1.0)), 4)
