"""Per-scenario numerical optimization.

Positive definiteness is decided by Sylvester's criterion (leading
principal minors); the semidefinite and indefinite cases fall back to a
cyclic Jacobi eigenvalue sweep.  Stationary points come from damped
Newton iterations started on a grid, once per distinct parameter vector,
all starts in one lock-step stack with the bits of each start run alone;
a search reads its gradients from that stack and its Hessians from one
more.  A local minimum is certified on a ball where the Hessian stays
positive definite, by sampling the objective in it; each halving's
Hessians, the samples and the descent hunt are each one stack of rows.
Each Hessian is symmetrized once (``randfunc.symmetrize``) and classified
once, minors and class together (``_classify``).
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
    _require_finite,
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
    first_of_input,
    gradient,
    per_distinct_input,
    symmetrize,
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
    _require_finite(H.ravel().tolist(), NotSymmetric)
    with np.errstate(over="ignore"):
        asym = sup_norm(H - H.T) if H.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry {asym:g} exceeds {SYMMETRY_TOL:g}")
    return symmetrize(H)


@np.errstate(over="ignore", invalid="ignore")
def leading_principal_minors(H: np.ndarray) -> np.ndarray:
    """Determinants of the top-left k x k submatrices, k = 1..n.

    Closed form up to 3x3; LU with partial pivoting (LAPACK) above.
    """
    return _minors(_as_symmetric(H))


def _minors(H: np.ndarray) -> np.ndarray:
    """``leading_principal_minors`` of a matrix already symmetric."""
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


@np.errstate(over="ignore", invalid="ignore")
def jacobi_eigenvalues(H: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps, at most JACOBI_MAX_SWEEPS times, until the Frobenius norm of
    the off-diagonal part drops to JACOBI_OFF_TOL; returns eigenvalues
    sorted ascending.
    """
    return _jacobi(_as_symmetric(H))


def _jacobi(H: np.ndarray) -> np.ndarray:
    """``jacobi_eigenvalues`` of a matrix already symmetric."""
    A = H.copy()
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
    """Sylvester's criterion for PD; Jacobi eigenvalues for the rest (``_classify``)."""
    return _classify(_as_symmetric(H), tol_rel)[1]


@np.errstate(over="ignore", invalid="ignore")
def _classify(S: np.ndarray, tol_rel: float = DEFINITENESS_TOL_REL) -> tuple[tuple, Definiteness]:
    """The leading principal minors of a matrix already symmetric, and its class.

    Minor k is compared against tol_rel * (1 + |S|_inf)^k, and fails a threshold
    past the largest double; eigenvalues against tol_rel * (1 + |S|_inf).
    """
    norm = float(np.max(np.sum(np.abs(S), axis=1)))
    minors = tuple(_minors(S).tolist())
    scale = 1.0 + norm
    try:
        if all(minors[k] > tol_rel * scale ** (k + 1) for k in range(len(minors))):
            return minors, Definiteness.PD
    except OverflowError:
        pass
    lam = _jacobi(S)
    tau = tol_rel * scale
    lmin, lmax = float(lam[0]), float(lam[-1])
    if lmin > tau:
        return minors, Definiteness.PD
    if lmax < -tau:
        return minors, Definiteness.ND
    if lmin < -tau and lmax > tau:
        return minors, Definiteness.INDEFINITE
    if lmin >= -tau and lmax > tau:
        return minors, Definiteness.PSD_DEGENERATE
    if lmax <= tau and lmin < -tau:
        return minors, Definiteness.NSD_DEGENERATE
    return minors, Definiteness.PSD_DEGENERATE  # numerically zero matrix


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


def _hessians(rf: RandomFunction, X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized Hessians at the rows of ``X`` (parameters in ``P``)
    as an (N, n, n) stack, and the mask of rows where they are defined;
    each has the bits of ``randfunc.hessian`` at its row."""
    H, ok = _at_rows(rf.hess_bundle, X, P)
    return symmetrize(H.reshape(len(X), rf.n, rf.n)), ok


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


def _newton(
    rf: RandomFunction,
    X0: np.ndarray,
    P: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on the gradient from every row of ``X0`` at once, the
    start in row i with the scenario parameters in row i of ``P``.

    Returns (X, G, iters, status) with one entry per start: the point
    reached, the gradient there (``_at_rows``'s bits, NaN where undefined),
    the Newton steps taken and "converged", "singular" or "stalled".  A
    row of X is meaningful only where the start converged.

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
    singular, runaway = ~defined, np.zeros(N, dtype=bool)
    iters = np.zeros(N, dtype=int)
    active = np.flatnonzero(defined)
    for it in range(NEWTON_MAX_ITERS):
        if not len(active):
            break
        gn = np.abs(G[active]).max(axis=1)
        stop = gn == 0.0
        away = ~stop & (np.abs(X[active]).max(axis=1) > 1e8)
        runaway[active[away]] = True
        stop |= away
        iters[active[stop]] = it
        active, gn = active[~stop], gn[~stop]

        H, solvable = _hessians(rf, X[active], P[active])
        D = np.empty((len(active), n))
        regular = np.flatnonzero(solvable)
        D[regular], solvable[regular] = _solve_stack(H[regular], -G[active[regular]])
        singular[active[~solvable]] = True

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
        iters[active[~moved]] = it
        active = active[moved]
    iters[active] = NEWTON_MAX_ITERS

    converged = (np.abs(G).max(axis=1) <= NEWTON_TOL) & ~runaway
    status = np.where(converged, "converged", np.where(singular, "singular", "stalled"))
    return X, G, iters, status


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
    """``find_stationary_points`` for each of ``scenarios``, in order: run
    once per distinct parameter vector (at its ``first_of_input``) and
    shared, with the starts of all runs in one Newton stack (of at most
    ``NEWTON_STACK_ROWS`` rows; more runs take more stacks)."""
    if region.dim != rf.n:
        raise IncompatibleRepresentation("region dimension differs from function")
    for omega in scenarios:
        rf.params_of(omega)  # a scenario outside the space raises here
    first = first_of_input(rf)
    searched = list(dict.fromkeys(first[omega] for omega in scenarios))
    starts = grid_points(region, opts.newton_grid_m)
    m = len(starts)
    per_stack = max(1, NEWTON_STACK_ROWS // m)
    found: dict[Scenario, StationarySearch] = {}
    for lo in range(0, len(searched), per_stack):
        chunk = searched[lo : lo + per_stack]
        P = _params_rows(rf, chunk, m)
        X, G, iters, status = _newton(rf, np.tile(starts, (len(chunk), 1)), P)
        for i, omega in enumerate(chunk):
            rows = slice(i * m, (i + 1) * m)
            found[omega] = _search_result(
                rf, region, X[rows], G[rows], P[rows], iters[rows], status[rows]
            )
    return [found[first[omega]] for omega in scenarios]


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
    region: Box,
    X: np.ndarray,
    G: np.ndarray,
    P: np.ndarray,
    newton_iters: np.ndarray,
    status: np.ndarray,
) -> StationarySearch:
    """The search of one scenario from its rows of ``_newton``: the converged
    points within 1e-9 of ``region``, each kept in lexicographic order unless
    within ``DEDUP_RADIUS`` of one kept before, with the sup-norms of their
    gradients in ``G``; their Hessians are one stack at the parameter rows
    ``P``, and a point with an undefined one is skipped."""
    skipped = int(np.count_nonzero(status == "singular"))
    stalled = int(np.count_nonzero(status == "stalled"))
    lower, upper = np.array(region.lower) - 1e-9, np.array(region.upper) + 1e-9
    inside = (status == "converged") & ((lower <= X) & (X <= upper)).all(axis=1)
    rows = X.tolist()
    kept: list[int] = []
    for i in sorted(np.flatnonzero(inside).tolist(), key=rows.__getitem__):
        if all(max(abs(a - b) for a, b in zip(rows[k], rows[i])) > DEDUP_RADIUS for k in kept):
            kept.append(i)
    H, defined = _hessians(rf, X[kept], P[kept])
    classified = [(i, *_classify(H[j])) for j, i in enumerate(kept) if defined[j]]
    points = tuple(
        StationaryPoint(tuple(rows[i]), sup_norm(G[i]), minors, cls, int(newton_iters[i]))
        for i, minors, cls in classified
    )
    skipped += int(np.count_nonzero(~defined))
    return StationarySearch(points, len(X), skipped, stalled)


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

    def all_pd(X: np.ndarray) -> bool:
        """The Hessian is PD at every row of ``X``; an undefined one is not."""
        H, ok = _hessians(rf, X, P[: len(X)])
        return bool(ok.all()) and all(_classify(h)[1] is Definiteness.PD for h in H)

    delta = None
    if all_pd(x[None]):  # the center, then the samples of each ball in turn
        for halving in range(41):
            cand = 2.0 ** -halving
            if all_pd(x + (cand * radii)[:, None] * dirs):
                delta = cand
                break

    if delta is None:
        # no PD ball: hunt for a descent direction, at radii 1 to 2^-40 in turn
        hunt_dirs = np.concatenate([np.eye(n), -np.eye(n), _unit_directions(rng, 10 * n, n)])
        hunt_radii = np.repeat(2.0 ** -np.arange(41), len(hunt_dirs))
        steps = hunt_radii[:, None] * np.tile(hunt_dirs, (41, 1))
        values, ok = _at_rows(rf.body.compiled, x + steps, _params_rows(rf, [omega], len(steps)))
        margins = np.where(ok, values[:, 0] - f0, math.inf)
        best = int(np.argmin(margins))  # the first strict minimum; none if all undefined
        if margins[best] < -MARGIN_TOL:
            return LocalMinFailure(tuple(float(v) for v in steps[best]), float(margins[best]))
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
