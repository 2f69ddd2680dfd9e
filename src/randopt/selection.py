"""Construction of measurable random solutions.

All solve routines share one scheme: verify the measurability hypotheses,
compute per atom using a single representative scenario, and broadcast the
result to the whole atom.  The canonical tie-break (lexicographically
smallest point) makes the output deterministic, hence constant on atoms,
hence measurable by construction with tolerance 0.

Refusals (``NonMeasurableF``/``NonMeasurableEta``/``NonMeasurableC``) are
raised when a hypothesis fails: computing per representative would be
unsound exactly in those cases, and the witness shows why.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .errors import (
    DomainMismatch,
    EmptySetError,
    IncompatibleRepresentation,
    NonMeasurableC,
    NonMeasurableEta,
    NonMeasurableF,
    RandoptError,
)
from .optimize import (
    Definiteness,
    LocalMinCertificate,
    LocalMinFailure,
    SolverOptions,
    StationarySearch,
    classify_definiteness,
    find_stationary_points,
    grid_points,
    sup_norm,
    verify_local_min,
    _LastGrid,
    _global_min,
    _scan_feasible,
)
from .probspace import (
    MeasurabilityVerdict,
    Point,
    ProbSpace,
    RandomVariableRn,
    Scenario,
    is_measurable_rv,
    is_measurable_setmap,
)
from .randfunc import (
    Box,
    EmptySet,
    EvalError,
    PointCloud,
    RandomFunction,
    RandomSet,
    check_joint_measurability,
    default_probe_grid,
    eval_f,
    eval_f_batch,
    gradient,
    hessian,
)

EQUATION_TOL = 1e-9


# --- certificates and results -------------------------------------------------


@dataclass(frozen=True)
class GlobalCert:
    """The selected point attains this value (global minimum or equation
    target) within EQUATION_TOL."""

    value: float


@dataclass(frozen=True)
class NecessaryOnly:
    """No optimality certificate beyond, at most, necessary conditions."""


Certificate = Union[GlobalCert, LocalMinCertificate, NecessaryOnly]


@dataclass(frozen=True)
class Selection:
    """A candidate random solution with its measurability verdict."""

    space: ProbSpace
    points: Mapping[Scenario, Point]
    measurable: MeasurabilityVerdict
    certificates: Mapping[Scenario, Certificate]
    notes: tuple[str, ...] = ()
    diagnostics: tuple[tuple[str, int], ...] = ()

    def as_random_variable(self) -> RandomVariableRn:
        return RandomVariableRn(self.space, dict(self.points))


@dataclass(frozen=True)
class NoDeterministicSolution:
    """The equation has an empty solution set for these scenarios."""

    scenarios: tuple[Scenario, ...]


@dataclass(frozen=True)
class NoStationaryPoints:
    """No stationary point found in the region for this atom."""

    atom: tuple[Scenario, ...]


@dataclass(frozen=True)
class NoPDStationaryPoint:
    """Stationary points exist for this atom, but none has a positive
    definite Hessian, so the sufficient condition does not apply."""

    atom: tuple[Scenario, ...]


def _require_jointly_measurable(rf: RandomFunction, region: Box) -> None:
    """Refuse with NonMeasurableF unless f is constant on atoms at every
    probe point of ``region``."""
    verdict = check_joint_measurability(rf, default_probe_grid(region))
    if not verdict.measurable:
        raise NonMeasurableF(
            "objective is not jointly measurable: values differ within atom "
            f"{verdict.witness.atom} at probe {verdict.witness.probe}",
            verdict.witness,
        )


# --- canonical selection ---------------------------------------------------------


def canonical_select(M: RandomSet, space: ProbSpace) -> Selection:
    """Pick the lexicographically smallest point of each scenario's set.

    The rule is deterministic, so a measurable (atom-constant) input yields
    an atom-constant, hence measurable, selection.  A non-measurable input
    is flagged in ``notes`` but still selected per scenario: that is how
    the stationary-assignment counterexamples are represented.
    """
    if M.space != space:
        raise DomainMismatch("set-valued map is defined on a different space")
    input_verdict = is_measurable_setmap(space, M)
    points: dict[Scenario, Point] = {}
    for omega in space.scenarios:
        desc = M.descriptions[omega]
        if isinstance(desc, EmptySet):
            raise EmptySetError(omega)
        if not isinstance(desc, PointCloud):
            raise IncompatibleRepresentation(
                "canonical selection needs per-scenario finite point sets"
            )
        points[omega] = min(desc.points)
    verdict = is_measurable_rv(space, RandomVariableRn(space, points), tol=0.0)
    notes = () if input_verdict.measurable else ("non_measurable_input",)
    certs = {omega: NecessaryOnly() for omega in space.scenarios}
    return Selection(space, points, verdict, certs, notes)


# --- the random-equation reduction --------------------------------------------------


def _gn_refine(
    rf: RandomFunction, omega: Scenario, target: float, x0: np.ndarray
) -> np.ndarray:
    """Gauss-Newton steps for the scalar equation f(omega,x) = target."""
    x = np.asarray(x0, dtype=float).copy()
    for _ in range(60):
        try:
            r = eval_f(rf, omega, x) - target
            if abs(r) <= 1e-13:
                break
            g = gradient(rf, omega, x)
        except EvalError:
            break
        gg = float(g @ g)
        if gg < 1e-30 or sup_norm(x) > 1e8:
            break
        x = x - (r / gg) * g
    return x


def _solve_scalar_equation(
    rf: RandomFunction,
    omega: Scenario,
    target: float,
    region: Box,
    opts: SolverOptions,
) -> Optional[Point]:
    """Lexicographically smallest x in ``region`` with |f(omega,x) - target|
    <= EQUATION_TOL, located by grid scan plus bisection/Newton refinement.

    Candidates within 1e-6 of each other are treated as one root; the
    member with the smallest residual represents the cluster.
    """
    X = grid_points(region, opts.grid_m)
    values, valid = eval_f_batch(rf, omega, X)
    phi = values - target
    cands: list[tuple[Point, float]] = []

    def consider(x) -> None:
        pt = tuple(float(v) for v in x)
        try:
            resid = abs(eval_f(rf, omega, pt) - target)
        except EvalError:
            return
        if resid <= EQUATION_TOL and region.contains(pt, tol=1e-9):
            cands.append((pt, resid))

    hits = np.flatnonzero(valid & (np.abs(phi) <= EQUATION_TOL))
    for i in hits[:200]:
        consider(X[i])

    if rf.n == 1:
        # bracket roots between adjacent grid nodes and bisect
        xs = X[:, 0]
        for i in range(len(xs) - 1):
            if not (valid[i] and valid[i + 1]):
                continue
            if phi[i] == 0.0 or phi[i + 1] == 0.0 or (phi[i] > 0) == (phi[i + 1] > 0):
                continue
            a, b, fa = float(xs[i]), float(xs[i + 1]), float(phi[i])
            for _ in range(90):
                mid = (a + b) / 2.0
                try:
                    fm = eval_f(rf, omega, (mid,)) - target
                except EvalError:
                    break
                if fm == 0.0:
                    a = b = mid
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            consider(_gn_refine(rf, omega, target, np.array([(a + b) / 2.0])))

    # Gauss-Newton from the most promising grid points; this also catches
    # tangential roots that never change sign
    finite_phi = np.where(valid, np.abs(phi), np.inf)
    seeds = np.argsort(finite_phi, kind="stable")[: min(64, len(X))]
    for si in seeds:
        if not np.isfinite(finite_phi[si]):
            break
        consider(_gn_refine(rf, omega, target, X[si]))

    if not cands:
        return None
    cands.sort(key=lambda c: c[0])
    clusters: list[list[tuple[Point, float]]] = [[cands[0]]]
    for cand in cands[1:]:
        last = clusters[-1][-1][0]
        if max(abs(u - v) for u, v in zip(cand[0], last)) <= 1e-6:
            clusters[-1].append(cand)
        else:
            clusters.append([cand])
    reps = [min(cluster, key=lambda c: (c[1], c[0]))[0] for cluster in clusters]
    return min(reps)


def solve_random_equation(
    rf: RandomFunction,
    space: ProbSpace,
    eta: RandomVariableRn,
    region: Box,
    opts: SolverOptions = SolverOptions(),
) -> Union[Selection, NoDeterministicSolution]:
    """Find a measurable solution of f(omega, x) = eta(omega) on ``region``.

    Solves once per atom at a representative scenario and broadcasts, which
    is sound precisely because both hypotheses are verified first.
    """
    if eta.space != space or rf.space != space:
        raise DomainMismatch("function, target, and space must agree")
    if eta.dim != 1:
        raise ValueError("eta must be scalar-valued")
    eta_verdict = is_measurable_rv(space, eta, tol=1e-9)
    if not eta_verdict.measurable:
        raise NonMeasurableEta(
            "target eta is not measurable: it differs within atom "
            f"{eta_verdict.witness.atom}", eta_verdict.witness
        )
    _require_jointly_measurable(rf, region)

    points: dict[Scenario, Point] = {}
    certs: dict[Scenario, Certificate] = {}
    failed: list[Scenario] = []
    for atom in space.atoms:
        rep = atom[0]
        target = eta.values[rep][0]
        sol = _solve_scalar_equation(rf, rep, target, region, opts)
        if sol is None:
            failed.extend(atom)
            continue
        for omega in atom:
            points[omega] = sol
            certs[omega] = GlobalCert(target)
    if failed:
        return NoDeterministicSolution(tuple(sorted(failed)))
    verdict = is_measurable_rv(space, RandomVariableRn(space, points), tol=0.0)
    return Selection(space, points, verdict, certs)


# --- global random optimization -------------------------------------------------------


def solve_rop(
    rf: RandomFunction,
    space: ProbSpace,
    C: RandomSet,
    opts: SolverOptions = SolverOptions(),
) -> Selection:
    """Measurable global minimizer over a measurable compact feasible map.

    Per atom, one scan of the representative's grid (Box) or points
    (PointCloud) gives eta, the grid minimum, and the selection: the first
    point in lexicographic order with |f - eta| <= EQUATION_TOL.  Both are
    broadcast to the atom.
    """
    if C.space != space or rf.space != space:
        raise DomainMismatch("function, set, and space must agree")
    _require_jointly_measurable(rf, C.bounding_box())
    c_verdict = is_measurable_setmap(space, C)
    if not c_verdict.measurable:
        raise NonMeasurableC(
            "feasible map is not measurable: descriptions differ within atom "
            f"{c_verdict.witness.atom}", c_verdict.witness
        )

    points: dict[Scenario, Point] = {}
    certs: dict[Scenario, Certificate] = {}
    excluded = 0
    grids = _LastGrid()  # representatives with bit-identical boxes share a grid
    for atom in space.atoms:
        rep = atom[0]
        X, values, rep_excluded = _scan_feasible(
            rf, rep, C.descriptions[rep], opts.grid_m, grids
        )
        excluded += rep_excluded
        eta = float(values.min())
        idx = int(np.flatnonzero(np.abs(values - eta) <= EQUATION_TOL)[0])
        sol = tuple(float(v) for v in X[idx])
        del X, values  # free this scan's values before the next one
        for omega in atom:
            points[omega] = sol
            certs[omega] = GlobalCert(eta)
    verdict = is_measurable_rv(space, RandomVariableRn(space, points), tol=0.0)
    return Selection(
        space,
        points,
        verdict,
        certs,
        diagnostics=(("excluded_grid_points", excluded),),
    )


# --- local random optimization --------------------------------------------------------


def _atom_is_convex(rf: RandomFunction, rep: Scenario, region: Box) -> bool:
    """Hessian PSD (or PD) at every probe point of the region."""
    for x in default_probe_grid(region):
        try:
            cls = classify_definiteness(hessian(rf, rep, x))
        except EvalError:
            return False
        if cls not in (Definiteness.PD, Definiteness.PSD_DEGENERATE):
            return False
    return True


def solve_rlop(
    rf: RandomFunction,
    space: ProbSpace,
    region: Box,
    opts: SolverOptions = SolverOptions(),
) -> Union[Selection, NoStationaryPoints, NoPDStationaryPoint]:
    """Measurable local minimizer via the stationary-set pipeline.

    Per atom: enumerate stationary points, keep those with positive
    definite Hessian, select canonically, certify with a verified ball.
    When the Hessian is positive semidefinite on the whole probe grid the
    function is treated as convex and the certificate upgrades to a global
    one after a confirming grid scan.
    """
    if rf.space != space:
        raise DomainMismatch("function and space must agree")
    _require_jointly_measurable(rf, region)

    pd_sets: dict[tuple[Scenario, ...], PointCloud] = {}
    skipped = stalled = 0
    for atom in space.atoms:
        rep = atom[0]
        search: StationarySearch = find_stationary_points(rf, rep, region, opts)
        skipped += search.skipped_singular
        stalled += search.stalled
        if not search.points:
            return NoStationaryPoints(atom)
        pd_points = [sp.x for sp in search.points if sp.classification is Definiteness.PD]
        if not pd_points:
            return NoPDStationaryPoint(atom)
        pd_sets[atom] = PointCloud(tuple(pd_points))

    M = RandomSet(
        space,
        {omega: pd_sets[atom] for atom in space.atoms for omega in atom},
    )
    base = canonical_select(M, space)

    certs: dict[Scenario, Certificate] = {}
    grids = _LastGrid()  # the convex atoms scan one grid over ``region``
    for atom in space.atoms:
        rep = atom[0]
        x = base.points[rep]
        outcome = verify_local_min(rf, rep, x, opts)
        if isinstance(outcome, LocalMinFailure):
            raise RandoptError(
                f"ball verification failed at a PD stationary point {x} "
                f"(margin {outcome.margin:g}); this contradicts the sufficient "
                "condition and indicates a numerical inconsistency"
            )
        if _atom_is_convex(rf, rep, region):
            gm = _global_min(rf, rep, region, opts.grid_m, grids)
            fx = eval_f(rf, rep, x)
            if fx <= gm.grid_value + EQUATION_TOL:
                for omega in atom:
                    certs[omega] = GlobalCert(float(fx))
                continue
        for omega in atom:
            certs[omega] = dataclasses.replace(outcome, omega=omega)

    return Selection(
        base.space,
        base.points,
        base.measurable,
        certs,
        notes=base.notes,
        diagnostics=(
            ("skipped_newton_starts", skipped),
            ("stalled_newton_starts", stalled),
        ),
    )


# --- necessary conditions -------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConditions:
    grad_ok: bool
    psd_ok: bool
    grad_norm: float
    classification: Definiteness


@dataclass(frozen=True)
class NecessaryReport:
    per_scenario: Mapping[Scenario, ScenarioConditions]
    measurable: MeasurabilityVerdict

    @property
    def all_ok(self) -> bool:
        return all(c.grad_ok and c.psd_ok for c in self.per_scenario.values())


def check_necessary_conditions(
    rf: RandomFunction, space: ProbSpace, xi: RandomVariableRn
) -> NecessaryReport:
    """First- and second-order necessary conditions at xi, per scenario.

    The report also carries xi's measurability verdict: a stationary
    assignment that flips inside an atom passes both conditions yet is not
    a random variable, and this is where that distinction surfaces.
    """
    if xi.space != space or rf.space != space:
        raise DomainMismatch("function, candidate, and space must agree")
    per: dict[Scenario, ScenarioConditions] = {}
    for omega in space.scenarios:
        x = xi.values[omega]
        g = gradient(rf, omega, x)
        cls = classify_definiteness(hessian(rf, omega, x))
        gn = sup_norm(g)
        per[omega] = ScenarioConditions(
            grad_ok=gn <= 1e-8,
            psd_ok=cls in (Definiteness.PD, Definiteness.PSD_DEGENERATE),
            grad_norm=gn,
            classification=cls,
        )
    return NecessaryReport(per, is_measurable_rv(space, xi, tol=0.0))
