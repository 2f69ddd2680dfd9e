"""Construction of measurable random solutions.

All solve routines share one scheme: verify the measurability hypotheses,
compute per atom using a single representative scenario, and broadcast the
result to the whole atom (``_broadcast``).  The canonical tie-break
(lexicographically smallest point) makes the output deterministic, hence
constant on atoms, hence measurable by construction with tolerance 0.

Refusals (``NonMeasurableF``/``NonMeasurableC``) are raised by
``_refuse_unless`` when a hypothesis fails: computing per representative
would be unsound exactly in those cases, and the witness shows why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import (
    DomainMismatch,
    HypothesisViolation,
    NonMeasurableC,
    NonMeasurableF,
    RandoptError,
)
from .exprlang import eval_rows
from .optimize import (
    STATIONARITY_TOL,
    Definiteness,
    LocalMinCertificate,
    LocalMinFailure,
    SolverOptions,
    stationary_searches,
    sup_norm,
    _certify,
    _classify_stack,
    _hessians,
    _newton_diagnostics,
    scan_min,
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
    _params_rows,
    _stacks,
    RandomFunction,
    RandomSet,
    check_joint_measurability,
    default_probe_grid,
    eval_f,
    first_of_input,
    gradient,
    hessian,
)

EQUATION_TOL = 1e-9
# the classes of a positive semidefinite Hessian
_PSD = (Definiteness.PD, Definiteness.PSD_DEGENERATE)


# --- certificates and results -------------------------------------------------


@dataclass(frozen=True)
class GlobalCert:
    """The selected point attains this value, the global minimum, within
    EQUATION_TOL."""

    value: float


Certificate = Union[GlobalCert, LocalMinCertificate]


@dataclass(frozen=True)
class Selection:
    """A candidate random solution with its measurability verdict."""

    space: ProbSpace
    points: Mapping[Scenario, Point]
    measurable: MeasurabilityVerdict
    certificates: Mapping[Scenario, Certificate]
    diagnostics: tuple[tuple[str, int], ...] = ()

    def as_random_variable(self) -> RandomVariableRn:
        return RandomVariableRn(self.space, dict(self.points))


@dataclass(frozen=True)
class NoStationaryPoints:
    """No stationary point found in the region for this atom."""

    atom: tuple[Scenario, ...]


@dataclass(frozen=True)
class NoPDStationaryPoint:
    """Stationary points exist for this atom, but none has a positive
    definite Hessian, so the sufficient condition does not apply."""

    atom: tuple[Scenario, ...]


def _refuse_unless(
    verdict: MeasurabilityVerdict, error: type[HypothesisViolation], what: str
) -> None:
    """Raise ``error`` with the verdict's witness unless it is measurable;
    the message names ``what`` differs, the atom and any probe."""
    if not verdict.measurable:
        w = verdict.witness
        probe = "" if w.probe is None else f" at probe {w.probe}"
        raise error(f"{what} within atom {w.atom}{probe}", w)


def _require_jointly_measurable(rf: RandomFunction, probes: Sequence[Point]) -> None:
    """Refuse with NonMeasurableF unless f is constant on atoms at every
    point of ``probes``."""
    _refuse_unless(
        check_joint_measurability(rf, probes),
        NonMeasurableF,
        "objective is not jointly measurable: values differ",
    )


def _broadcast(
    space: ProbSpace,
    solved: Sequence[tuple[tuple[Scenario, ...], Point, Certificate]],
    **extra,
) -> Selection:
    """The selection giving every scenario of each solved atom the atom's
    point and certificate, with the points' measurability verdict."""
    points: dict[Scenario, Point] = {}
    certs: dict[Scenario, Certificate] = {}
    for atom, point, cert in solved:
        for omega in atom:
            points[omega] = point
            certs[omega] = cert
    verdict = is_measurable_rv(space, RandomVariableRn(space, points), tol=0.0)
    return Selection(space, points, verdict, certs, **extra)


# --- global random optimization -------------------------------------------------------


def solve_rop(
    rf: RandomFunction,
    space: ProbSpace,
    C: RandomSet,
    opts: SolverOptions = SolverOptions(),
) -> Selection:
    """Measurable global minimizer over a measurable compact feasible map.

    Per atom, a scan of the representative's grid (Box) or points
    (PointCloud) gives eta, the grid minimum, and the selection: the first
    point in lexicographic order with f - eta <= EQUATION_TOL.  One
    ``scan_min`` scans every representative, and the first error in atom
    order is raised.  Both are broadcast to the atom.
    """
    if C.space != space or rf.space != space:
        raise DomainMismatch("function, set, and space must agree")
    _require_jointly_measurable(rf, default_probe_grid(C.bounding_box()))
    _refuse_unless(
        is_measurable_setmap(space, C),
        NonMeasurableC,
        "feasible map is not measurable: descriptions differ",
    )

    solved = []
    excluded = 0
    reps = [(atom[0], C.descriptions[atom[0]]) for atom in space.atoms]
    for atom, outcome in zip(space.atoms, scan_min(rf, reps, opts.grid_m, EQUATION_TOL)):
        if isinstance(outcome, Exception):
            raise outcome
        point, eta, rep_excluded = outcome
        excluded += rep_excluded
        solved.append((atom, point, GlobalCert(eta)))
    return _broadcast(space, solved, diagnostics=(("excluded_grid_points", excluded),))


# --- local random optimization --------------------------------------------------------


def solve_rlop(
    rf: RandomFunction,
    space: ProbSpace,
    region: Box,
    opts: SolverOptions = SolverOptions(),
) -> Union[Selection, NoStationaryPoints, NoPDStationaryPoint]:
    """Measurable local minimizer via the stationary-set pipeline.

    Per atom: enumerate stationary points, keep those with positive
    definite Hessian, select canonically, certify with a verified ball.
    The representatives' Newton runs share one stack; the atoms are then
    taken in order, so the first atom without a (PD) stationary point is
    the one a no-solution outcome names.
    Where the Hessian is defined and PSD at every probe (one stack for all
    representatives, classified in one call), the function is treated as
    convex and the certificate upgrades to a global one after a confirming
    grid scan.  The representatives' balls are certified in one lock step
    (``optimize._certify``), and the convex ones' grids are scanned in one
    ``scan_min`` call; each atom's certificate or error is then taken in
    atom order, before that atom's scan error.
    """
    if rf.space != space:
        raise DomainMismatch("function and space must agree")
    probes = default_probe_grid(region)
    _require_jointly_measurable(rf, probes)

    selected = []  # (atom, canonical point)
    searches = stationary_searches(rf, [atom[0] for atom in space.atoms], region, opts)
    for atom, search in zip(space.atoms, searches):
        if not search.points:
            return NoStationaryPoints(atom)
        pd_points = [sp.x for sp in search.points if sp.classification is Definiteness.PD]
        if not pd_points:
            return NoPDStationaryPoint(atom)
        selected.append((atom, min(pd_points)))

    m = len(probes)
    reps = [atom[0] for atom, _ in selected]
    convex = []  # per selected atom; its probes are classified up to the first failing one
    for _, X, P in _stacks(rf, reps, probes):
        H, ok = _hessians(rf, X, P)
        _, classify = _classify_stack(H)
        for i in range(0, len(H), m):
            convex.append(all(ok[j] and classify(j) in _PSD for j in range(i, i + m)))

    # each atom's certificate or error and its scan, raised below in atom order
    certificates = _certify(rf, reps, [x for _, x in selected], opts)
    convex_inputs = [(rep, region) for rep, is_convex in zip(reps, convex) if is_convex]
    scans = iter(scan_min(rf, convex_inputs, opts.grid_m, 0.0))
    solved = []
    for (atom, x), is_convex, cert in zip(selected, convex, certificates):
        if isinstance(cert, Exception):
            raise cert
        if isinstance(cert, LocalMinFailure):
            raise RandoptError(
                f"ball verification failed at a PD stationary point {x} "
                f"(margin {cert.margin:g}); this contradicts the sufficient "
                "condition and indicates a numerical inconsistency"
            )
        if is_convex:
            scanned = next(scans)
            if isinstance(scanned, Exception):
                raise scanned
            _, eta, _ = scanned
            fx = eval_f(rf, atom[0], x)
            if fx <= eta + EQUATION_TOL:
                cert = GlobalCert(float(fx))
        solved.append((atom, x, cert))

    return _broadcast(space, solved, diagnostics=_newton_diagnostics(searches))


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
    """First- and second-order necessary conditions at xi, per scenario,
    from one gradient stack and one Hessian stack, classified in one call
    (``optimize._classify_stack``).

    The conditions depend on a scenario only through its parameter vector
    and its point, so the stacks hold one row per distinct pair, at its
    first scenario (``first_of_input``), and every scenario of a pair gets
    that pair's ``ScenarioConditions`` object.  A pair's first scenario
    precedes its others, so the first scenario where either derivative is
    undefined raises its gradient's error, else its Hessian's.

    The report also carries xi's measurability verdict: a stationary
    assignment that flips inside an atom passes both conditions yet is not
    a random variable, and this is where that distinction surfaces.
    """
    if xi.space != space or rf.space != space:
        raise DomainMismatch("function, candidate, and space must agree")
    first = first_of_input(rf, xi.values)
    distinct = [omega for omega, f in first.items() if f == omega]
    P = _params_rows(rf, distinct, 1)
    X = np.array([xi.values[omega] for omega in distinct], dtype=float).reshape(len(P), rf.n)
    G, grad_ok = eval_rows(rf.grad_lowered, X, P)
    H, hess_ok = _hessians(rf, X, P)
    if not (grad_ok & hess_ok).all():  # the scalar calls raise at the first undefined row
        i = int(np.argmin(grad_ok & hess_ok))
        gradient(rf, distinct[i], X[i])
        hessian(rf, distinct[i], X[i])
    _, classify = _classify_stack(H)
    rows: dict[Scenario, ScenarioConditions] = {}
    for j, (omega, g) in enumerate(zip(distinct, G)):
        gn = sup_norm(g)
        cls = classify(j)
        rows[omega] = ScenarioConditions(
            grad_ok=gn <= STATIONARITY_TOL,
            psd_ok=cls in _PSD,
            grad_norm=gn,
            classification=cls,
        )
    per = {omega: rows[f] for omega, f in first.items()}
    return NecessaryReport(per, is_measurable_rv(space, xi, tol=0.0))
