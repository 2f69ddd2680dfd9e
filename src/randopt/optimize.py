"""Per-scenario numerical optimization.

Positive definiteness is decided by Sylvester's criterion (leading
principal minors); the semidefinite and indefinite cases fall back to a
cyclic Jacobi eigenvalue sweep.  Stationary points come from damped
Newton iterations started on a grid.  The starts of every scenario
searched together advance in lock step, each with its own parameter row:
each iteration evaluates the derivatives of the whole stack at once (on
row kernels unless the stack is small), takes the sup-norms by array
reductions and makes one stacked solve for all the Newton steps, with the
bits of running each start alone.  Local minimality is certified by finding a ball on which the
Hessian stays positive definite and then sampling the objective inside
it; each halving's Hessians and all the samples are one stack of rows.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    DomainMismatch,
    DomainViolation,
    EvalError,
    IncompatibleRepresentation,
    NoRadiusFound,
    NotSymmetric,
    RandoptError,
)
from .exprlang import eval_rows
from .probspace import (
    MeasurabilityVerdict,
    Point,
    ProbSpace,
    RandomVariableRn,
    Scenario,
    is_measurable_rv,
)
from .randfunc import (
    Box,
    PointCloud,
    RandomFunction,
    RandomSet,
    SetDescription,
    description_key,
    eval_f,
    eval_f_batch,
    gradient,
    hessian,
    per_distinct_input,
)

SYMMETRY_TOL = 1e-9
STATIONARITY_TOL = 1e-8
JACOBI_OFF_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
MARGIN_TOL = 1e-12
MAX_GRID_POINTS = 20_000_000
NEWTON_TOL = 1e-10  # sup-norm gradient tolerance for convergence
NEWTON_MAX_ITERS = 60
DEDUP_RADIUS = 1e-6
DEFINITENESS_TOL_REL = 1e-10


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the search and certification routines."""

    grid_m: int = 101          # points per dimension for exhaustive scans
    newton_grid_m: int = 9     # starts per dimension for multistart Newton
    seed: int = 0


# --- definiteness ---------------------------------------------------------------


class Definiteness(enum.Enum):
    PD = "PD"
    PSD_DEGENERATE = "PSD_degenerate"
    INDEFINITE = "indefinite"
    ND = "ND"
    NSD_DEGENERATE = "NSD_degenerate"


def sup_norm(v) -> float:
    """max |v_i|; NaN propagates."""
    return float(np.abs(v).max())


def _as_symmetric(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise NotSymmetric(f"matrix has shape {H.shape}, expected square")
    asym = sup_norm(H - H.T) if H.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry {asym:g} exceeds {SYMMETRY_TOL:g}")
    return (H + H.T) / 2.0


def leading_principal_minors(H: np.ndarray) -> np.ndarray:
    """Determinants of the top-left k x k submatrices, k = 1..n.

    Closed form up to 3x3; LU with partial pivoting (LAPACK) above.
    """
    H = _as_symmetric(H)
    n = H.shape[0]
    minors = np.empty(n)
    for k in range(1, n + 1):
        A = H[:k, :k]
        if k == 1:
            minors[0] = A[0, 0]
        elif k == 2:
            minors[1] = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        elif k == 3:
            minors[2] = (
                A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
                - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
                + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
            )
        else:
            minors[k - 1] = float(np.linalg.det(A))
    return minors


def jacobi_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps, at most JACOBI_MAX_SWEEPS times, until the Frobenius norm of
    the off-diagonal part drops to JACOBI_OFF_TOL; returns eigenvalues
    sorted ascending.
    """
    A = _as_symmetric(H).copy()
    n = A.shape[0]
    if n == 1:
        return A.diagonal().copy()
    for _ in range(JACOBI_MAX_SWEEPS):
        off = math.sqrt(max(float(np.sum(A * A) - np.sum(A.diagonal() ** 2)), 0.0))
        if off <= JACOBI_OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(A[p, q])
                if apq == 0.0:
                    continue
                diff = float(A[q, q] - A[p, p])
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = math.copysign(1.0, theta) / (
                        abs(theta) + math.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p, row_q = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                col_p, col_q = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                A[p, q] = A[q, p] = 0.0
    return np.sort(A.diagonal())


def classify_definiteness(H: np.ndarray, tol_rel: float = DEFINITENESS_TOL_REL) -> Definiteness:
    """Sylvester's criterion for PD; Jacobi eigenvalues for the rest.

    Minor k is compared against tol_rel * (1 + |H|_inf)^k so the test is
    scale-invariant; eigenvalues against tol_rel * (1 + |H|_inf).
    """
    H = _as_symmetric(H)
    norm = float(np.max(np.sum(np.abs(H), axis=1)))
    minors = leading_principal_minors(H)
    scale = 1.0 + norm
    if all(minors[k] > tol_rel * scale ** (k + 1) for k in range(len(minors))):
        return Definiteness.PD
    lam = jacobi_eigenvalues(H)
    tau = tol_rel * scale
    lmin, lmax = float(lam[0]), float(lam[-1])
    if lmin > tau:
        return Definiteness.PD
    if lmax < -tau:
        return Definiteness.ND
    if lmin < -tau and lmax > tau:
        return Definiteness.INDEFINITE
    if lmin >= -tau and lmax > tau:
        return Definiteness.PSD_DEGENERATE
    if lmax <= tau and lmin < -tau:
        return Definiteness.NSD_DEGENERATE
    return Definiteness.PSD_DEGENERATE  # numerically zero matrix


# --- stationary points ------------------------------------------------------------


@dataclass(frozen=True)
class StationaryPoint:
    x: Point
    grad_norm: float
    minors: tuple[float, ...]
    classification: Definiteness
    newton_iters: int


@dataclass(frozen=True)
class StationarySearch:
    points: tuple[StationaryPoint, ...]
    starts: int
    skipped_singular: int  # singular Hessian or undefined derivative at a start
    stalled: int           # damping exhausted or iteration cap hit


def grid_points(region: Box, m: int) -> np.ndarray:
    """The nodes of an m-per-axis grid over ``region``, one row per point,
    in lexicographic order.  A degenerate axis (lo == hi) has one node."""
    lengths = [1 if lo == hi else max(m, 2) for lo, hi in zip(region.lower, region.upper)]
    total = math.prod(lengths)
    if total > MAX_GRID_POINTS:  # before any axis is allocated
        raise RandoptError(f"grid of {total} points exceeds cap {MAX_GRID_POINTS}")
    axes = [
        np.array([lo]) if lo == hi else np.linspace(lo, hi, count)
        for lo, hi, count in zip(region.lower, region.upper, lengths)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


# A stack of this many rows or more runs on row kernels; a smaller one
# calls the bundle per row, which is faster there (see CHANGES.md).
ROW_KERNEL_MIN_ROWS = 40
# Newton stacks at most this many starts at once, splitting the scenarios.
NEWTON_STACK_ROWS = 1 << 15


def _at_rows(bundle, X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``bundle(x, p)`` at every row x of ``X`` with the row p of ``P`` of
    the same index: the values as a (len(X), results) array, and the mask
    of rows where the bundle returned (the other rows hold NaN).

    Either way the values are the bundle's bits at ``tuple(x)``, whose
    elements are ``np.float64``, and at ``p`` as floats.  A stack of
    ``ROW_KERNEL_MIN_ROWS`` rows or more runs the bundle's steps on row
    kernels (``exprlang.eval_rows``); a smaller one calls the bundle per
    row, where a math domain error (``ValueError``) clears the row as the
    row kernels do."""
    if len(X) >= ROW_KERNEL_MIN_ROWS:
        return eval_rows(bundle, X, P)
    width = len(bundle.lowered.results)
    ok = np.ones(len(X), dtype=bool)
    undefined = (math.nan,) * width
    values = []
    with np.errstate(all="ignore"):
        for j, (x, p) in enumerate(zip(zip(*X.T), P.tolist())):
            try:
                values.append(bundle(x, p))
            except (EvalError, ValueError):
                ok[j] = False
                values.append(undefined)
    return np.array(values, dtype=float).reshape(len(X), width), ok


def _solve_stack(H: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The solutions of H[i] d = B[i], and the mask of the regular H[i].

    A singular matrix makes the stacked solve raise for all of them, so
    the stack is bisected until each singular matrix is alone; each
    matrix still gets its own solve's bits."""
    try:
        return np.linalg.solve(H, B[..., None])[..., 0], np.ones(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        if len(H) == 1:
            return np.full(B.shape, math.nan), np.zeros(1, dtype=bool)
    half = len(H) // 2
    D1, ok1 = _solve_stack(H[:half], B[:half])
    D2, ok2 = _solve_stack(H[half:], B[half:])
    return np.concatenate([D1, D2]), np.concatenate([ok1, ok2])


# Why a Newton run stopped; a run still iterating holds _LIMIT.
_LIMIT, _ZERO_GRADIENT, _RUNAWAY, _SINGULAR, _NODECREASE = range(5)


def _newton(
    rf: RandomFunction,
    X0: np.ndarray,
    P: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the gradient from every row of ``X0`` at once, the
    start in row i with the scenario parameters in row i of ``P``.

    Returns (X, iters, status) with one entry per start: the point
    reached, the Newton steps taken and "converged", "singular" or
    "stalled".  A row of X is meaningful only where the start converged.

    Each start runs exactly as it would alone.  Iteration continues past
    the convergence tolerance as long as steps keep shrinking the
    gradient, so degenerate roots (vanishing Hessian) are driven to the
    numerical limit instead of stopping at a point whose Hessian still
    looks definite.  A step tries lambda = 1, 1/2, 1/4, ... (2 tries
    once |g| <= NEWTON_TOL, else 30) until the gradient's sup-norm
    decreases; an undefined gradient counts as no decrease.  The
    starts advance in lock step, so the sup-norms, the symmetrization,
    the Newton solves and the derivatives are whole-stack operations
    (``_at_rows``, ``_solve_stack``), which give the bits of the
    per-start ones.
    """
    X = np.array(X0, dtype=float)
    N, n = X.shape
    G, defined = _at_rows(rf.grad_bundle, X, P)  # NaN rows never converge
    reason = np.where(defined, _LIMIT, _SINGULAR)
    iters = np.zeros(N, dtype=int)
    active = np.flatnonzero(defined)
    for it in range(NEWTON_MAX_ITERS):
        if not len(active):
            break
        gn = np.abs(G[active]).max(axis=1)
        stop = gn == 0.0
        reason[active[stop]] = _ZERO_GRADIENT
        runaway = ~stop & (np.abs(X[active]).max(axis=1) > 1e8)
        reason[active[runaway]] = _RUNAWAY
        stop |= runaway
        iters[active[stop]] = it
        active, gn = active[~stop], gn[~stop]

        H, solvable = _at_rows(rf.hess_bundle, X[active], P[active])
        H = H.reshape(-1, n, n)
        H = (H + H.swapaxes(1, 2)) / 2.0
        D = np.empty((len(active), n))
        regular = np.flatnonzero(solvable)
        D[regular], solvable[regular] = _solve_stack(H[regular], -G[active[regular]])
        reason[active[~solvable]] = _SINGULAR

        # the line search, every pending start at the same lambda
        attempts = np.where(gn <= NEWTON_TOL, 2, 30)
        moved = np.zeros(len(active), dtype=bool)
        lam = 1.0
        for k in range(30):
            trying = np.flatnonzero(solvable & ~moved & (k < attempts))
            if not len(trying):
                break
            rows = active[trying]
            Xn = X[rows] + lam * D[trying]
            Gn, _ = _at_rows(rf.grad_bundle, Xn, P[rows])  # NaN rows: no decrease
            better = np.abs(Gn).max(axis=1) < gn[trying]
            won = rows[better]
            X[won], G[won] = Xn[better], Gn[better]
            moved[trying[better]] = True
            lam /= 2.0
        reason[active[solvable & ~moved]] = _NODECREASE
        iters[active[~moved]] = it
        active = active[moved]
    iters[active] = NEWTON_MAX_ITERS

    converged = (np.abs(G).max(axis=1) <= NEWTON_TOL) & (reason != _RUNAWAY)
    status = np.where(
        converged, "converged", np.where(reason == _SINGULAR, "singular", "stalled")
    )
    return X, iters, status


def _params_rows(rf: RandomFunction, scenarios: Sequence[Scenario], repeats: int) -> np.ndarray:
    """The parameter vector of each scenario in turn, ``repeats`` rows each."""
    P = np.array([rf.params_of(omega) for omega in scenarios], dtype=float)
    return np.repeat(P.reshape(len(scenarios), rf.body.k), repeats, axis=0)


def stationary_searches(
    rf: RandomFunction,
    scenarios: Sequence[Scenario],
    region: Box,
    opts: SolverOptions = SolverOptions(),
) -> list[StationarySearch]:
    """``find_stationary_points`` for each scenario in turn, with the starts
    of all of them in one Newton stack (of at most ``NEWTON_STACK_ROWS``
    rows; more scenarios take more stacks)."""
    if region.dim != rf.n:
        raise IncompatibleRepresentation("region dimension differs from function")
    starts = grid_points(region, opts.newton_grid_m)
    m = len(starts)
    per_stack = max(1, NEWTON_STACK_ROWS // m)
    searches = []
    for first in range(0, len(scenarios), per_stack):
        chunk = scenarios[first : first + per_stack]
        X0 = np.tile(starts, (len(chunk), 1))
        X, iters, status = _newton(rf, X0, _params_rows(rf, chunk, m))
        for i, omega in enumerate(chunk):
            rows = slice(i * m, (i + 1) * m)
            searches.append(_search_result(rf, omega, region, X[rows], iters[rows], status[rows]))
    return searches


def find_stationary_points(
    rf: RandomFunction,
    omega: Scenario,
    region: Box,
    opts: SolverOptions = SolverOptions(),
) -> StationarySearch:
    """Multistart damped Newton on the gradient over ``region``.

    Converged points outside the region are discarded; duplicates merge at
    ``DEDUP_RADIUS``.  Singular or undefined starts are skipped and
    counted, never fatal.
    """
    return stationary_searches(rf, [omega], region, opts)[0]


def _search_result(
    rf: RandomFunction,
    omega: Scenario,
    region: Box,
    X: np.ndarray,
    newton_iters: np.ndarray,
    status: np.ndarray,
) -> StationarySearch:
    """The search of one scenario from its Newton runs: the converged
    points inside ``region``, deduplicated in lexicographic order, each
    classified by its Hessian."""
    skipped = int(np.count_nonzero(status == "singular"))
    stalled = int(np.count_nonzero(status == "stalled"))
    converged = [
        (X[i], int(newton_iters[i]))
        for i in np.flatnonzero(status == "converged")
        if region.contains(X[i], tol=1e-9)
    ]
    converged.sort(key=lambda pair: tuple(pair[0]))
    kept_x = np.empty((len(converged), rf.n))
    kept: list[tuple[np.ndarray, int]] = []
    for x, iters in converged:
        if np.all(np.abs(kept_x[: len(kept)] - x).max(axis=1) > DEDUP_RADIUS):
            kept_x[len(kept)] = x
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
    return StationarySearch(tuple(points), len(X), skipped, stalled)


# --- local minimality certificates ---------------------------------------------------


@dataclass(frozen=True)
class LocalMinCertificate:
    delta: float          # verified ball radius
    samples_checked: int
    min_margin: float     # min over samples of f(x + d) - f(x)


@dataclass(frozen=True)
class LocalMinFailure:
    witness: Point        # direction d with f(x + d) < f(x) - MARGIN_TOL
    margin: float


def _unit_directions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    d = rng.standard_normal((count, n))
    norms = np.linalg.norm(d, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return d / norms


def verify_local_min(
    rf: RandomFunction,
    omega: Scenario,
    x: Sequence[float],
    opts: SolverOptions = SolverOptions(),
) -> Union[LocalMinCertificate, LocalMinFailure]:
    """Certify local minimality of a stationary point.

    Halves delta from 1 until the Hessian is positive definite at 8n
    deterministic sample points of the closed ball (center included), then
    samples 200n objective values inside the certified ball.  When no ball
    works, hunts for an explicit descent witness; if even that fails the
    situation is degenerate and NoRadiusFound is raised.
    """
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
    P = _params_rows(rf, [omega], count)
    try:
        center_pd = classify_definiteness(hessian(rf, omega, x)) is Definiteness.PD
    except EvalError:
        center_pd = False

    def ball_is_pd(delta: float) -> bool:
        """The Hessian is PD at the center and at every sample, taken in
        order; an undefined Hessian is not."""
        if not center_pd:
            return False
        X = x + (delta * radii)[:, None] * dirs
        H, ok = _at_rows(rf.hess_bundle, X, P)
        H = H.reshape(-1, n, n)
        H = (H + H.swapaxes(1, 2)) / 2.0
        for i in range(count):
            if not ok[i]:
                try:  # the error that the sample raises
                    hessian(rf, omega, X[i])
                except EvalError:
                    return False
            if classify_definiteness(H[i]) is not Definiteness.PD:
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
    steps = sample_radii[:, None] * _unit_directions(rng2, K, n)
    X = x + steps
    values, ok = _at_rows(rf.body.compiled, X, _params_rows(rf, [omega], K))
    margins = values[:, 0] - f0
    # the first sample that is undefined or a descent ends the scan
    failing = np.flatnonzero(~ok | (margins < -MARGIN_TOL))
    if len(failing):
        i = failing[0]
        margin = eval_f(rf, omega, X[i]) - f0  # raises where the sample is undefined
        return LocalMinFailure(tuple(float(v) for v in steps[i]), float(margin))
    # the smallest margin, taken first where equal ones differ in sign
    return LocalMinCertificate(delta, K, float(margins[np.argmin(margins)]))


# --- global minimization on compact sets ----------------------------------------------


@dataclass(frozen=True)
class GlobalMinResult:
    grid_x: Point        # grid argmin (the oracle value)
    grid_value: float
    excluded: int        # grid points where evaluation failed


class _LastGrid:
    """The grid of the last Box scanned through it.

    A caller keeps one across consecutive scans, so that a run of
    bit-identical boxes at one grid size builds its grid once.  The old
    grid is dropped before a new one is built: one grid is alive at a time.
    """

    def __init__(self) -> None:
        self.key: Optional[tuple] = None
        self.points: Optional[np.ndarray] = None

    def of(self, box: Box, m: int) -> np.ndarray:
        key = (description_key(box), m)
        if key != self.key:
            self.key = self.points = None
            self.points = grid_points(box, m)
            self.points.flags.writeable = False  # shared by the scans that follow
            self.key = key
        return self.points


def _scan_feasible(
    rf: RandomFunction,
    omega: Scenario,
    C_omega: Union[Box, PointCloud],
    grid_m: int,
    grids: _LastGrid,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate f(omega, .) once on the grid (Box) or the sorted points
    (PointCloud) of ``C_omega``; a Box's grid comes from ``grids``.

    Returns (points, values, excluded): the points in lexicographic order,
    their objective values with +inf where evaluation failed, and the
    number of such failed points.  A Box's points are shared with later
    scans and read-only.
    """
    if not isinstance(C_omega, (Box, PointCloud)):
        raise IncompatibleRepresentation(
            f"grid minimization needs a Box or PointCloud, got {type(C_omega).__name__}"
        )
    if C_omega.dim != rf.n:
        raise IncompatibleRepresentation("set dimension differs from function")
    if isinstance(C_omega, Box):
        X = grids.of(C_omega, grid_m)
    else:
        X = np.asarray(sorted(C_omega.points), dtype=float)
    values, valid = eval_f_batch(rf, omega, X)
    excluded = int(np.count_nonzero(~valid))
    if excluded == len(X):
        raise DomainViolation(
            f"objective undefined at every point of the set for scenario {omega!r}"
        )
    return X, np.where(valid, values, np.inf), excluded


def _global_min(
    rf: RandomFunction,
    omega: Scenario,
    C_omega: Union[Box, PointCloud],
    grid_m: int,
    grids: _LastGrid,
) -> GlobalMinResult:
    X, values, excluded = _scan_feasible(rf, omega, C_omega, grid_m, grids)
    idx = int(np.argmin(values))  # first occurrence = lexicographically smallest
    return GlobalMinResult(tuple(float(v) for v in X[idx]), float(values[idx]), excluded)


def global_min_compact(
    rf: RandomFunction,
    omega: Scenario,
    C_omega: Union[Box, PointCloud],
    grid_m: int,
) -> GlobalMinResult:
    """Exhaustive evaluation over a grid (Box) or all points (PointCloud).

    Exact value ties break to the lexicographically smallest point.  Grid
    points where evaluation fails are excluded and counted.
    """
    return _global_min(rf, omega, C_omega, grid_m, _LastGrid())


def global_min_per_scenario(
    rf: RandomFunction,
    descriptions: Mapping[Scenario, SetDescription],
    grid_m: int,
) -> dict[Scenario, GlobalMinResult]:
    """``global_min_compact`` for every scenario, in the space's order.

    The result depends only on the scenario's parameter vector and set
    description, so ``per_distinct_input`` computes it once per distinct
    pair; consecutive computations over bit-identical boxes share one grid.
    A failure is raised at the first scenario in order that fails.
    """
    grids = _LastGrid()
    return per_distinct_input(
        rf,
        lambda omega: _global_min(rf, omega, descriptions[omega], grid_m, grids),
        descriptions,
    )


# --- the optimal-value random variable --------------------------------------------------


@dataclass(frozen=True)
class OptimalValue:
    eta: RandomVariableRn                    # scenario -> (min value,)
    verdict: MeasurabilityVerdict            # measurability of eta, tol 1e-9


def optimal_value(
    rf: RandomFunction, space: ProbSpace, C: RandomSet, grid_m: int
) -> OptimalValue:
    """Minimum value per scenario and the measurability verdict of that map.

    No measurability hypothesis is enforced here: the verdict reports what
    actually happened, which is how the counterexamples are exhibited.
    """
    if C.space != space or rf.space != space:
        raise DomainMismatch("function, set, and space must agree")
    results = global_min_per_scenario(rf, C.descriptions, grid_m)
    eta = RandomVariableRn(space, {s: (res.grid_value,) for s, res in results.items()})
    verdict = is_measurable_rv(space, eta, tol=1e-9)
    return OptimalValue(eta, verdict)
