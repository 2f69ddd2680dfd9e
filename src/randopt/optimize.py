"""Per-scenario numerical optimization.

Positive definiteness is decided by Sylvester's criterion (leading
principal minors); the semidefinite and indefinite cases fall back to a
cyclic Jacobi eigenvalue sweep.  A stack of Hessians is classified in one
call (``_classify_stack``): the minors, norms and Sylvester test are array
operations with the bits of each matrix taken alone, and only a matrix
that fails the test is swept, when its class is asked for.  Stationary
points come from damped Newton iterations started on a grid, once per
distinct parameter vector, all starts in one lock-step stack with the
bits of each start run alone, and each step's line search in few stacks
(lambda = 1 for every start, then the halvings of those it leaves
together); the searches of a stack read their gradients from it and the
Hessians of every point they keep from one more.  A local minimum is
certified on a ball where the Hessian stays positive definite, by
sampling the objective in it; the points of every
atom are certified in lock step (``_certify``), so the centers'
gradients, values and Hessians, each halving's Hessians, the samples and
the descent hunts are each one stack of rows for all of them.  Every
stack, however few its rows, runs on lowered steps
(``exprlang.eval_rows``); only a row that fails where its error is
wanted replays its scalar call.  Each Hessian is symmetrized once
(``randfunc.symmetrize``) and its minors are taken once, by its stack.
A grid minimization (``scan_min``) scans every distinct input of a
command at once, and selects every outcome by one rule
(``tiles.Minima.selected``), by each node's index in the grid's raveled
order.  A point cloud is one tile of values, a small box one block
evaluated whole, and a larger box is scanned by tiles, bounded by
interval arithmetic and evaluated in stacks of equal-shaped tiles
(``tiles``); no grid of points or of values is built, and each node is
evaluated at most once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

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
    column_all,
    column_max,
    eval_f,
    eval_f_batch,
    exact_key,
    first_of_input,
    gradient,
    symmetrize,
)
from . import tiles

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
    return _stack_minors(_as_symmetric(H)[None])[0]


def _stack_minors(S: np.ndarray) -> np.ndarray:
    """``leading_principal_minors`` of every matrix of an (N, n, n) stack
    already symmetric, as an (N, n) array: each closed-form minor is the
    same products, in the same order, on the stack's entries, and each
    LAPACK one a stacked ``np.linalg.det``, so every matrix gets the bits
    it would get alone."""
    n = S.shape[1]
    minors = np.empty(S.shape[:2])
    A = S.transpose(1, 2, 0)  # A[i, j] holds entry (i, j) of every matrix
    for k in range(1, n + 1):
        if k == 1:
            minors[:, 0] = A[0, 0]
        elif k == 2:
            minors[:, 1] = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        elif k == 3:
            minors[:, 2] = (
                A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
                - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
                + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
            )
        else:
            minors[:, k - 1] = np.linalg.det(S[:, :k, :k])
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


def classify_definiteness(H: np.ndarray) -> Definiteness:
    """Sylvester's criterion for PD; Jacobi eigenvalues for the rest (``_classify_stack``)."""
    return _classify_stack(_as_symmetric(H)[None])[1](0)


def _thresholds(scale: np.ndarray, n: int) -> np.ndarray:
    """tol * s ** k, tol = DEFINITENESS_TOL_REL, for k = 1..n at every scale
    s, as a (len(scale), n) array; inf where s ** k passes the largest double.

    The powers are Python's float powers (C's ``pow``): numpy's power
    differs from them in the last bit at some scales, and a minor within one
    ulp of its threshold would then change class.  ``_sylvester`` calls it
    only for the rows that numpy's power leaves in doubt."""
    powers = [[_power(s, k) for k in range(1, n + 1)] for s in scale.tolist()]
    return DEFINITENESS_TOL_REL * np.array(powers).reshape(len(scale), n)


def _power(s: float, k: int) -> float:
    """s ** k, or inf where it passes the largest double."""
    try:
        return s ** k
    except OverflowError:
        return math.inf


# numpy's power is within a few ulps of Python's, so a minor farther than
# this from numpy's threshold, relative to it, lies on the same side of both
_SYLVESTER_MARGIN = 2.0 ** -40


def _sylvester(minors: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Sylvester's test of each row of an (N, n) array of leading principal
    minors, at the row's scale s: whether every minor k exceeds its
    threshold tol * s ** k (``_thresholds``), with its bits.

    The test is made with numpy's vectorized power.  A row where a minor
    lies within ``_SYLVESTER_MARGIN`` of numpy's threshold, relative to it,
    or where either is NaN, or where numpy's power is not below 2 ** 1023
    (so that Python's may overflow), is tested again with ``_thresholds``.
    Elsewhere the two thresholds differ by less than the margin, and tol
    times a power rounds monotonically, so each minor is on the same side
    of both."""
    n = minors.shape[1]
    powers = scale[:, None] ** np.arange(1.0, n + 1.0)
    thresholds = DEFINITENESS_TOL_REL * powers
    pd = column_all(minors > thresholds)
    clear = (np.abs(minors - thresholds) > _SYLVESTER_MARGIN * thresholds) & (powers < 2.0 ** 1023)
    doubt = np.flatnonzero(~column_all(clear))
    if len(doubt):
        pd[doubt] = column_all(minors[doubt] > _thresholds(scale[doubt], n))
    return pd


@np.errstate(over="ignore", invalid="ignore")
def _classify_stack(S: np.ndarray) -> tuple[np.ndarray, Callable[[int], Definiteness]]:
    """The leading principal minors of an (N, n, n) stack of symmetric
    matrices (``_stack_minors``), and the function giving the class of its
    matrix j.

    Minor k is compared against tol * (1 + |S|_inf)^k, tol = DEFINITENESS_TOL_REL,
    as array operations (``_sylvester``, with the bits of ``_thresholds``);
    a matrix passing every comparison is PD.  The norm is a numpy sum over
    each matrix row and a ``column_max`` over the rows.  The class of any
    other matrix is decided when it is asked for, from its eigenvalues
    (``_eigen_class``).  Where a row sum overflows, the class is that of S
    times an exact power of two that brings every row sum below the
    largest double.  An undefined matrix (NaN) is PSD_degenerate without
    an eigenvalue sweep: its norm, and so every threshold and tolerance, is
    NaN, which fails every comparison.
    """
    n = S.shape[1]
    minors = _stack_minors(S)
    norm = column_max(np.abs(S).sum(axis=2))
    scale = 1.0 + norm
    pd = _sylvester(minors, scale)

    def classify(j: int) -> Definiteness:
        if pd[j]:
            return Definiteness.PD
        if norm[j] == math.inf:  # n * 2^-bit_length(n) < 1
            return _classify_stack(np.ldexp(S[j : j + 1], -n.bit_length()))[1](0)
        if math.isnan(norm[j]):
            return Definiteness.PSD_DEGENERATE
        return _eigen_class(S[j], float(scale[j]))

    return minors, classify


@np.errstate(over="ignore", invalid="ignore")
def _eigen_class(S: np.ndarray, scale: float) -> Definiteness:
    """The class of a symmetric matrix from its eigenvalues (``_jacobi``)
    against tol * ``scale``, tol = DEFINITENESS_TOL_REL."""
    lam = _jacobi(S)
    tau = DEFINITENESS_TOL_REL * scale
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


def _newton_diagnostics(searches: Sequence[StationarySearch]) -> tuple[tuple[str, int], ...]:
    """The report's counts of skipped and stalled Newton starts, summed
    over ``searches``."""
    return (
        ("skipped_newton_starts", sum(s.skipped_singular for s in searches)),
        ("stalled_newton_starts", sum(s.stalled for s in searches)),
    )


def grid_axes(region: Box, m: int) -> list[np.ndarray]:
    """The float axes of an m-per-axis grid over ``region``; a degenerate
    axis (lo == hi) has one node."""
    lengths = [1 if lo == hi else max(m, 2) for lo, hi in zip(region.lower, region.upper)]
    total = math.prod(lengths)
    if total > MAX_GRID_POINTS:  # before any axis is allocated
        raise RandoptError(f"grid of {total} points exceeds cap {MAX_GRID_POINTS}")
    return [
        np.array([lo], dtype=float) if lo == hi else _linspace(lo, hi, count)
        for lo, hi, count in zip(region.lower, region.upper, lengths)
    ]


def _linspace(lo: float, hi: float, count: int) -> np.ndarray:
    """``np.linspace(lo, hi, count)``; where ``hi - lo`` passes the largest
    double, the nodes of the halves doubled, which are exact."""
    if math.isinf(hi - lo):
        return 2.0 * np.linspace(lo / 2.0, hi / 2.0, count)
    return np.linspace(lo, hi, count)


def grid_points(region: Box, m: int) -> np.ndarray:
    """The nodes of ``grid_axes(region, m)``, one row per point, in
    lexicographic order."""
    mesh = np.meshgrid(*grid_axes(region, m), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


# Newton and the convexity check stack at most this many rows at once,
# splitting the scenarios (``_stacks``).
NEWTON_STACK_ROWS = 1 << 15


def _hessians(rf: RandomFunction, X: np.ndarray, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The symmetrized Hessians at the rows of ``X`` (parameters in ``P``)
    as an (N, n, n) stack, and the mask of rows where they are defined;
    each has the bits of ``randfunc.hessian`` at its row."""
    H, ok = eval_rows(rf.hess_lowered, X, P)
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
    reached, the gradient there (``randfunc.gradient``'s bits, NaN where
    undefined), the Newton steps taken and "converged", "singular" or
    "stalled".  A row of X is meaningful only where the start converged.

    Each start runs exactly as it would alone.  Iteration continues past
    the convergence tolerance as long as steps keep shrinking the
    gradient, so degenerate roots (vanishing Hessian) are driven to the
    numerical limit instead of stopping at a point whose Hessian still
    looks definite.  A step takes the first of lambda = 1, 1/2, 1/4, ...
    (2 tries once |g| <= NEWTON_TOL, else 30) at which the gradient's
    sup-norm decreases; an undefined gradient counts as no decrease.  The
    starts advance in lock step, so the sup-norms (``column_max``), the
    symmetrization, the Newton solves, the derivatives and the line search
    are whole-stack operations (``exprlang.eval_rows``, ``_solve_stack``,
    ``_line_search``), which give the bits of the per-start ones.
    """
    X = np.array(X0, dtype=float)
    N, n = X.shape
    G, defined = eval_rows(rf.grad_lowered, X, P)  # NaN rows never converge
    singular, runaway = ~defined, np.zeros(N, dtype=bool)
    iters = np.zeros(N, dtype=int)
    active = np.flatnonzero(defined)
    for it in range(NEWTON_MAX_ITERS):
        gn = column_max(np.abs(G[active]))
        stop = gn == 0.0
        away = ~stop & (column_max(np.abs(X[active])) > 1e8)
        runaway[active[away]] = True
        stop |= away
        iters[active[stop]] = it
        active, gn = active[~stop], gn[~stop]
        if not len(active):
            break

        H, solvable = _hessians(rf, X[active], P[active])
        D = np.empty((len(active), n))
        regular = np.flatnonzero(solvable)
        D[regular], solvable[regular] = _solve_stack(H[regular], -G[active[regular]])
        singular[active[~solvable]] = True

        moved = _line_search(rf, X, G, P, active, D, gn, np.flatnonzero(solvable))
        iters[active[~moved]] = it
        active = active[moved]
    iters[active] = NEWTON_MAX_ITERS

    converged = (column_max(np.abs(G)) <= NEWTON_TOL) & ~runaway
    status = np.where(converged, "converged", np.where(singular, "singular", "stalled"))
    return X, G, iters, status


def _line_search(
    rf: RandomFunction,
    X: np.ndarray,
    G: np.ndarray,
    P: np.ndarray,
    active: np.ndarray,
    D: np.ndarray,
    gn: np.ndarray,
    pending: np.ndarray,
) -> np.ndarray:
    """One backtracking step of ``_newton`` for the starts ``active[pending]``
    (Nocedal and Wright, *Numerical Optimization*, 2nd ed., 2006, section
    3.1): start ``active[a]`` has the direction ``D[a]`` and the gradient
    sup-norm ``gn[a]``, and moves to ``X + 2**-k * D`` at the first k whose
    gradient's sup-norm is below ``gn[a]``, within 2 tries if ``gn[a] <=
    NEWTON_TOL``, else 30.  The rows of ``X`` and ``G`` of the starts that
    move are updated; returns the mask over ``active`` of those that moved.

    lambda = 1 is one stack for every start.  The starts that it leaves
    take their remaining halvings in as few stacks as fit: each stack gives
    every start still searching its next halvings, at least one each and
    as many as keep the stack no larger than the lambda = 1 stack.  2**-k
    is exact and ``eval_rows`` computes each row on its own, so a start
    takes the step that it takes trying one lambda at a time, with the same
    bits; the halvings tried past its first decrease are discarded."""
    moved = np.zeros(len(active), dtype=bool)
    if not len(pending):
        return moved
    rows = active[pending]
    X0, D0, P0, g0 = X[rows], D[pending], P[rows], gn[pending]
    Xn = X0 + D0  # 1.0 * D0 is D0
    Gn, _ = eval_rows(rf.grad_lowered, Xn, P0)  # NaN rows: no decrease
    better = column_max(np.abs(Gn)) < g0
    X[rows[better]], G[rows[better]] = Xn[better], Gn[better]
    done = better  # over pending: the starts that have moved

    left = np.flatnonzero(~better)  # the starts of the tail, by position in pending
    tries = np.where(g0[left] <= NEWTON_TOL, 2, 30)
    tried = np.ones(len(left), dtype=int)
    while len(left):
        count = np.minimum(len(pending) // len(left), tries - tried)
        owner = np.repeat(left, count)  # each row's start; a start's rows are consecutive
        k = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count - tried, count)
        Xn = X0[owner] + np.ldexp(1.0, -k)[:, None] * D0[owner]
        Gn, _ = eval_rows(rf.grad_lowered, Xn, P0[owner])
        hit = np.flatnonzero(column_max(np.abs(Gn)) < g0[owner])
        hit = hit[np.diff(owner[hit], prepend=-1) != 0]  # each start's first decrease
        won = owner[hit]
        X[rows[won]], G[rows[won]] = Xn[hit], Gn[hit]
        done[won] = True
        tried += count
        searching = ~done[left] & (tried < tries)
        left, tries, tried = left[searching], tries[searching], tried[searching]
    moved[pending[done]] = True
    return moved


def _params_rows(rf: RandomFunction, scenarios: Sequence[Scenario], repeats: int) -> np.ndarray:
    """The parameter vector of each scenario in turn, ``repeats`` rows each."""
    P = np.array([rf.params_of(omega) for omega in scenarios], dtype=float)
    return np.repeat(P.reshape(len(scenarios), rf.body.k), repeats, axis=0)


def _stacks(
    rf: RandomFunction, scenarios: Sequence[Scenario], points: Sequence[Point]
) -> Iterator[tuple[Sequence[Scenario], np.ndarray, np.ndarray]]:
    """All of ``points`` for each of ``scenarios`` in turn, in stacks of at
    most ``NEWTON_STACK_ROWS`` rows (at least one scenario each): yields
    each stack's scenarios, its point rows and its parameter rows."""
    m = len(points)
    per_stack = max(1, NEWTON_STACK_ROWS // m)
    for lo in range(0, len(scenarios), per_stack):
        chunk = scenarios[lo : lo + per_stack]
        yield chunk, np.tile(points, (len(chunk), 1)), _params_rows(rf, chunk, m)


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
    found: dict[Scenario, StationarySearch] = {}
    for chunk, X0, P in _stacks(rf, searched, starts):
        X, G, iters, status = _newton(rf, X0, P)
        found.update(zip(chunk, _searches(rf, region, X, G, P, iters, status, m)))
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


def _searches(
    rf: RandomFunction,
    region: Box,
    X: np.ndarray,
    G: np.ndarray,
    P: np.ndarray,
    newton_iters: np.ndarray,
    status: np.ndarray,
    m: int,
) -> list[StationarySearch]:
    """The searches of a ``_newton`` stack of runs of ``m`` rows each, one
    per run in order.  A run keeps its converged points within 1e-9 of
    ``region``, each in lexicographic order unless within ``DEDUP_RADIUS``
    of one it kept before, with the sup-norms of their gradients in ``G``;
    a point equal to the one before it in that order merges without a
    comparison.
    The Hessians of the points every run keeps are one stack at the
    parameter rows ``P``, classified in one call; a point with an undefined
    Hessian is skipped."""
    lower, upper = np.array(region.lower) - 1e-9, np.array(region.upper) + 1e-9
    inside = (status == "converged") & column_all((lower <= X) & (X <= upper))
    rows = X.tolist()
    runs = range(0, len(X), m)
    kept: list[list[int]] = []
    for lo in runs:
        run: list[int] = []
        previous = None
        for i in sorted((lo + np.flatnonzero(inside[lo : lo + m])).tolist(), key=rows.__getitem__):
            x = rows[i]
            if x == previous:  # the point before was kept or merged, so this one merges
                continue
            previous = x
            if all(max(abs(a - b) for a, b in zip(rows[k], x)) > DEDUP_RADIUS for k in reversed(run)):
                run.append(i)
        kept.append(run)
    every = [i for run in kept for i in run]
    H, defined = _hessians(rf, X[every], P[every])
    minors, classify = _classify_stack(H)
    searches, j = [], 0
    for lo, run in zip(runs, kept):
        points = []
        for i in run:
            if defined[j]:
                points.append(
                    StationaryPoint(
                        tuple(rows[i]), sup_norm(G[i]), tuple(minors[j].tolist()),
                        classify(j), int(newton_iters[i]),
                    )
                )
            j += 1
        singular = int(np.count_nonzero(status[lo : lo + m] == "singular"))
        stalled = int(np.count_nonzero(status[lo : lo + m] == "stalled"))
        searches.append(StationarySearch(tuple(points), m, singular + len(run) - len(points), stalled))
    return searches


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


Outcome = Union[LocalMinCertificate, LocalMinFailure, Exception]


def _certify(
    rf: RandomFunction,
    scenarios: Sequence[Scenario],
    points: Sequence[Sequence[float]],
    opts: SolverOptions = SolverOptions(),
) -> list[Outcome]:
    """Certify local minimality of a stationary point of each scenario, in
    lock step: per pair, its certificate or descent witness, or the
    exception its certification raises.

    Halves delta from 1 until the Hessian is positive definite at 8n
    deterministic sample points of the closed ball (center included), then
    samples 200n objective values inside the certified ball.  When no ball
    works, hunts for an explicit descent witness; if even that fails the
    situation is degenerate and the outcome is NoRadiusFound.  A point
    that is not stationary is a ValueError.

    The gradients at every center are one stack, and so are the values,
    and the Hessians.  A pair whose gradient or value is undefined replays
    that scalar call, which raises its error.  Then each halving stacks the
    ball samples of every pair still without a ball, and a pair's ball
    fails at its first undefined or non-PD Hessian.  The descent hunts of
    the pairs with no ball are one objective stack, and so are the
    objective samples of the pairs with one.  The directions depend only on
    n and the seed, so each set is drawn once for every pair.  Each pair
    gets the bits it would get alone.  The scenarios are of ``rf``'s space
    and the points of dimension n.
    """
    n = rf.n
    outcomes: list[Optional[Outcome]] = [None] * len(scenarios)
    X0 = np.array(points, dtype=float).reshape(len(points), n)
    P0 = _params_rows(rf, scenarios, 1)
    G, g_ok = eval_rows(rf.grad_lowered, X0, P0)
    F, f_ok = eval_rows(rf.body.lowered, X0, P0)
    for i, omega in enumerate(scenarios):
        try:
            if not g_ok[i]:
                gradient(rf, omega, X0[i])  # raises the row's error
            if sup_norm(G[i]) > STATIONARITY_TOL:
                raise ValueError(f"point is not stationary: |g|_inf = {sup_norm(G[i]):g}")
            if not f_ok[i]:
                eval_f(rf, omega, X0[i])  # raises the row's error
        except (RandoptError, ValueError) as exc:  # the caller raises it in its own order
            outcomes[i] = exc
    live = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if not live:
        return outcomes
    f0 = F[:, 0]
    X0, P0 = X0[live], P0[live]

    def around(pairs: list[int], steps: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[slice]]:
        """The points x + s for the center x of each of ``pairs`` (indices
        into ``live``) and each row s of ``steps`` (an (S, n) array, or one
        per pair), as one stack: its rows, their parameter rows, and each
        pair's slice of the stack, in the order of ``pairs``."""
        size = steps.shape[-2]
        X = (X0[pairs][:, None, :] + steps).reshape(-1, n)
        P = np.repeat(P0[pairs], size, axis=0)
        return X, P, [slice(k * size, (k + 1) * size) for k in range(len(pairs))]

    def all_pd(X: np.ndarray, P: np.ndarray, blocks: list[slice]) -> list[bool]:
        """Per block of rows of ``X``, whether the Hessian is PD at every
        row, an undefined one being not; the rows of a block are classified
        in order up to its first failing one."""
        H, ok = _hessians(rf, X, P)
        _, classify = _classify_stack(H)
        return [
            bool(ok[b].all()) and all(classify(j) is Definiteness.PD for j in range(b.start, b.stop))
            for b in blocks
        ]

    rng = np.random.default_rng([opts.seed, 0xB0A1])
    count = 8 * n
    dirs = np.concatenate([np.eye(n), -np.eye(n), _unit_directions(rng, count - 2 * n, n)])
    radii = np.array([(1.0, 0.75, 0.5, 0.25)[i % 4] for i in range(len(dirs))])
    delta: list[Optional[float]] = [None] * len(live)
    centers = all_pd(X0, P0, [slice(a, a + 1) for a in range(len(live))])
    searching = [a for a, pd in enumerate(centers) if pd]
    for halving in range(41):  # the samples of each ball in turn
        if not searching:
            break
        cand = 2.0 ** -halving
        for a, pd in zip(searching, all_pd(*around(searching, (cand * radii)[:, None] * dirs))):
            if pd:
                delta[a] = cand
        searching = [a for a in searching if delta[a] is None]

    hunting = [a for a in range(len(live)) if delta[a] is None]
    if hunting:
        # no PD ball: hunt for a descent direction, at radii 1 to 2^-40 in turn
        hunt_dirs = np.concatenate([np.eye(n), -np.eye(n), _unit_directions(rng, 10 * n, n)])
        hunt_radii = np.repeat(2.0 ** -np.arange(41), len(hunt_dirs))
        steps = hunt_radii[:, None] * np.tile(hunt_dirs, (41, 1))
        X, P, blocks = around(hunting, steps)
        values, ok = eval_rows(rf.body.lowered, X, P)
        for a, rows in zip(hunting, blocks):
            margins = np.where(ok[rows], values[rows, 0] - f0[live[a]], math.inf)
            best = int(np.argmin(margins))  # the first strict minimum; none if all undefined
            if margins[best] < -MARGIN_TOL:
                witness = tuple(float(v) for v in steps[best])
                outcomes[live[a]] = LocalMinFailure(witness, float(margins[best]))
            else:
                outcomes[live[a]] = NoRadiusFound(
                    "no ball with positive definite Hessian after 40 halvings, "
                    "and sampling found no descent direction"
                )

    sampling = [a for a in range(len(live)) if delta[a] is not None]
    if sampling:
        rng2 = np.random.default_rng([opts.seed, 0xF00D])
        K = 200 * n
        exponents = np.arange(K) / max(K - 1, 1)
        shrink = (1.0 / 1024.0) ** exponents
        unit = _unit_directions(rng2, K, n)
        steps = np.array([delta[a] * shrink for a in sampling])[:, :, None] * unit
        X, P, blocks = around(sampling, steps)
        values, ok = eval_rows(rf.body.lowered, X, P)
        for a, rows, own in zip(sampling, blocks, steps):
            i, omega = live[a], scenarios[live[a]]
            margins = values[rows, 0] - f0[i]
            # the first sample that is undefined or a descent ends the scan
            failing = np.flatnonzero(~ok[rows] | (margins < -MARGIN_TOL))
            if not len(failing):
                # the smallest margin, taken first where equal ones differ in sign
                outcomes[i] = LocalMinCertificate(delta[a], K, float(margins[np.argmin(margins)]))
                continue
            k = failing[0]
            try:  # raises where the sample is undefined
                margin = eval_f(rf, omega, X[rows][k]) - f0[i]
            except EvalError as exc:
                outcomes[i] = exc
            else:
                outcomes[i] = LocalMinFailure(tuple(float(v) for v in own[k]), float(margin))
    return outcomes


# --- global minimization on compact sets ----------------------------------------------


@dataclass(frozen=True)
class GlobalMinResult:
    grid_x: Point        # grid argmin (the oracle value)
    grid_value: float
    excluded: int        # grid points where evaluation failed


def scan_min(
    rf: RandomFunction,
    inputs: Sequence[tuple[Scenario, SetDescription]],
    grid_m: int,
    tol: float,
) -> list[Union[tuple[Point, float, int], RandoptError]]:
    """The least value eta of f(omega, .) on the grid (Box) or the points
    (PointCloud) of ``C_omega``, for each input (omega, C_omega) of a
    command, with each node evaluated at most once.

    Returns per input (point, eta, excluded), or the error its own scan
    raises (the set's kind, its dimension, the grid cap, or f undefined at
    every node): the first node in lexicographic order with value - eta <=
    ``tol``; eta with the bits of the value at the first node attaining it
    (a -0 before a 0 gives -0); and the number of nodes where evaluation
    failed, which take no part.  Every input's values go to one
    ``tiles.Minima``, which selects each node by its index in the grid's
    raveled order (or the sorted points') by one rule
    (``Minima.selected``).  A point cloud is evaluated in one call, as one
    tile.  The boxes are scanned together (``tiles.scan_boxes``): a small
    box whole, a larger one by tiles, skipping the tiles that an interval
    bound excludes.
    """
    outcomes: list = [None] * len(inputs)
    minima = tiles.Minima(len(inputs), tol)
    points: dict[int, Callable[[int], Point]] = {}  # input -> node i of its cloud or grid
    grids: dict[bytes, list[np.ndarray]] = {}  # a box's bits -> its grid's axes
    boxes: dict[int, tuple[list, tuple]] = {}  # input -> (its grid's axes, parameters)
    for i, (omega, C_omega) in enumerate(inputs):
        try:
            if not isinstance(C_omega, (Box, PointCloud)):
                raise IncompatibleRepresentation(
                    f"grid minimization needs a Box or PointCloud, got {type(C_omega).__name__}"
                )
            if C_omega.dim != rf.n:
                raise IncompatibleRepresentation("set dimension differs from function")
            if isinstance(C_omega, PointCloud):
                X = np.asarray(sorted(C_omega.points), dtype=float)
                values, valid = eval_f_batch(rf, omega, X)
                minima.add(np.array([i]), values[None], valid[None], lambda t, j: j)
                points[i] = lambda at, X=X: tuple(float(v) for v in X[at])
                continue
            key = exact_key(C_omega.lower + C_omega.upper)
            if key not in grids:
                grids[key] = grid_axes(C_omega, grid_m)
            boxes[i] = grids[key], rf.params_of(omega)
        except RandoptError as exc:
            outcomes[i] = exc
    if boxes:
        grid = tiles.Grids(list(boxes), *zip(*boxes.values()))
        tiles.scan_boxes(rf, grid, minima)
        points.update((i, partial(grid.node, s)) for s, i in enumerate(boxes))
    selected = minima.selected()
    for i, point in points.items():
        if i in selected:
            at, eta = selected[i]
            outcomes[i] = (point(at), eta, int(minima.excluded[i]))
        else:
            outcomes[i] = DomainViolation(
                f"objective undefined at every point of the set for scenario {inputs[i][0]!r}"
            )
    return outcomes


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
    (outcome,) = scan_min(rf, [(omega, C_omega)], grid_m, 0.0)
    if isinstance(outcome, Exception):
        raise outcome
    return GlobalMinResult(*outcome)


def global_min_per_scenario(
    rf: RandomFunction,
    descriptions: Mapping[Scenario, SetDescription],
    grid_m: int,
) -> dict[Scenario, GlobalMinResult]:
    """``global_min_compact`` for every scenario, in the space's order.

    The result depends only on the scenario's parameter vector and set
    description, so one ``scan_min`` scans each distinct pair, at its first
    scenario (``first_of_input``), and every scenario of that pair gets the
    same ``GlobalMinResult`` object.  A failure is raised at the first
    scenario in order that fails.
    """
    first = first_of_input(rf, descriptions)
    distinct = [omega for omega, f in first.items() if f == omega]
    outcomes = scan_min(rf, [(o, descriptions[o]) for o in distinct], grid_m, 0.0)
    results = {}
    for omega, outcome in zip(distinct, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        results[omega] = GlobalMinResult(*outcome)
    return {omega: results[f] for omega, f in first.items()}


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
