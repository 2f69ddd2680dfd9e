"""The stacked derivative checks against the per-point loops they replaced.

``reference_check_necessary_conditions`` is the previous
``selection.check_necessary_conditions``, and ``reference_atom_is_convex``
the previous convexity check of ``solve_rlop``, both verbatim.  They
called the scalar ``gradient`` and ``hessian`` once per scenario or probe
and classified each matrix alone (``classify_reference._classify``), and
the first call that raised ended the loop.  Now ``necessary`` reads one
gradient stack and one Hessian stack over all scenarios, and
``solve_rlop`` one Hessian stack over the probes of every representative
(``exprlang.eval_rows`` and ``optimize._hessians``); each classifies its
stack in one call (``optimize._classify_stack``).  At every input they
must give the same grad_norm bits and classification per scenario, raise
the same class with the same message, and reach the same convex verdict
per atom after classifying the same matrices, bit for bit, in the same
order, sending to the eigenvalue sweep (``_jacobi``) the matrices the
loop sent to it: the defined ones that fail Sylvester's test.
"""

import struct
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt import optimize, selection
from randopt.errors import DomainMismatch, EvalError
from randopt.optimize import Definiteness, SolverOptions, sup_norm
from randopt.probspace import is_measurable_rv
from randopt.randfunc import default_probe_grid, gradient, hessian
from randopt.selection import NecessaryReport, ScenarioConditions

import classify_reference
from classify_reference import _classify

# --- the previous per-point loops -----------------------------------------------------


def reference_check_necessary_conditions(rf, space, xi):
    """First- and second-order necessary conditions at xi, per scenario.

    The report also carries xi's measurability verdict: a stationary
    assignment that flips inside an atom passes both conditions yet is not
    a random variable, and this is where that distinction surfaces.
    """
    if xi.space != space or rf.space != space:
        raise DomainMismatch("function, candidate, and space must agree")
    per = {}
    for omega in space.scenarios:
        x = xi.values[omega]
        gn = sup_norm(gradient(rf, omega, x))
        cls = _classify(hessian(rf, omega, x))[1]
        per[omega] = ScenarioConditions(
            grad_ok=gn <= 1e-8,
            psd_ok=cls in (Definiteness.PD, Definiteness.PSD_DEGENERATE),
            grad_norm=gn,
            classification=cls,
        )
    return NecessaryReport(per, is_measurable_rv(space, xi, tol=0.0))


def reference_atom_is_convex(rf, rep, probes):
    """Hessian PSD (or PD) at every point of ``probes``."""
    for x in probes:
        try:
            cls = _classify(hessian(rf, rep, x))[1]
        except EvalError:
            return False
        if cls not in (Definiteness.PD, Definiteness.PSD_DEGENERATE):
            return False
    return True


def _recording(function, calls):
    def recorded(*args):
        calls.append(args)
        return function(*args)

    return recorded


def _matrices(calls):
    return [(S.shape, S.tobytes()) for (S,) in calls]


# --- generated documents ----------------------------------------------------------------

# terms that fail in chosen ways: a Hessian that overflows where the
# gradient is finite, a gradient undefined at x1 = p1, a log domain, row
# sums that overflow, and terms that are indefinite or degenerate
TERMS = (
    "x1^4 - 2*x1^2",
    "(x1 - p1)^2",
    "x1*x2",
    "-x2^2",
    "(1e200*x1)^2",
    "1/(x1 - p1)",
    "log(x2 + p2)",
    "sqrt(x1 - p1)^3",
    "exp(p2*x2)",
    "sin(x1*x2)",
    "-8.5e307*(x1 + x2)^2",
    "1e-300*x1^3",
)
values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 5.0, 1e-300, 1e200, -1e300]),
    st.floats(-3.0, 3.0),
)


@st.composite
def necessary_problems(draw):
    n = draw(st.integers(1, 2))
    terms = [t for t in TERMS if n == 2 or "x2" not in t]
    text = " + ".join(draw(st.lists(st.sampled_from(terms), min_size=1, max_size=3)))
    count = draw(st.sampled_from([1, 2, 3, 5]))
    scenarios = list(range(1, count + 1))
    splits = draw(st.lists(st.booleans(), min_size=count - 1, max_size=count - 1))
    atoms = [[1]]
    for omega, split in zip(scenarios[1:], splits):
        if split:
            atoms.append([])
        atoms[-1].append(omega)
    space = r.make_space(scenarios, [1 / count] * count, atoms)
    params = {s: draw(st.tuples(values, values)) for s in scenarios}
    rf = r.RandomFunction(space, n, r.parse(text, n, 2), params)
    xi = r.RandomVariableRn(space, {s: draw(st.tuples(*[values] * n)) for s in scenarios})
    return rf, space, xi


def necessary_outcome(check, rf, space, xi):
    """What ``check`` did: per scenario the grad_norm's type and bits and
    the classification, and the candidate's verdict; or the error raised."""
    try:
        report = check(rf, space, xi)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    per = [
        (s, c.grad_ok, c.psd_ok, type(c.grad_norm), struct.pack("<d", c.grad_norm), c.classification)
        for s, c in report.per_scenario.items()
    ]
    return ("report", per, report.measurable)


# the stacks hold 1 to 5 scenarios, as small as the stacks that once
# called the bundle per row
@settings(max_examples=100, deadline=None)
@given(necessary_problems())
def test_necessary_matches_the_per_scenario_loop(problem):
    rf, space, xi = problem
    swept, expected_swept = [], []
    with mock.patch.object(optimize, "_jacobi", _recording(optimize._jacobi, swept)):
        got = necessary_outcome(r.check_necessary_conditions, rf, space, xi)
    with mock.patch.object(classify_reference, "_jacobi", _recording(optimize._jacobi, expected_swept)):
        assert got == necessary_outcome(reference_check_necessary_conditions, rf, space, xi)
    # the stack sweeps the eigenvalues of the matrices, scaled or not, that
    # the loop swept: the defined ones that fail Sylvester's test
    if got[0] == "report":
        assert _matrices(swept) == _matrices(expected_swept)


def test_the_first_scenario_in_order_raises_its_hessian_error():
    # scenario 1's Hessian overflows; scenario 2's gradient divides by zero
    space = r.make_space([1, 2], [0.5, 0.5], [[1], [2]])
    body = r.parse("(1e200*x1)^2 + 1/(x1 - p1)", 1, 1)
    rf = r.RandomFunction(space, 1, body, {1: (5.0,), 2: (0.0,)})
    xi = r.RandomVariableRn(space, {1: (0.0,), 2: (0.0,)})
    got = necessary_outcome(r.check_necessary_conditions, rf, space, xi)
    assert got == ("raised", r.DomainViolation, "non-finite intermediate result")
    assert got == necessary_outcome(reference_check_necessary_conditions, rf, space, xi)


# the Hessian 2 + 6 p2 x1 + p3 (3/4) / sqrt(x1 - p4) on [-1, 1] is PSD at
# every probe for small p2 and p3, indefinite somewhere for larger ones,
# and undefined at the corner x1 = -1 where p4 = -1; the Hessian
# 12 (x1 - 1)^2 is PSD_degenerate at the corner x1 = 1 and PD elsewhere
BODIES = ("(x1 - p1)^2 + p2*x1^3 + p3*sqrt(x1 - p4)^3", "(x1 - 1)^4 + (p3 + 0.01)*x1")
REGION = r.Box((-1.0,), (1.0,))


@st.composite
def convexity_problems(draw):
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=4))
    atoms, count = [], 0
    for size in sizes:
        atoms.append(list(range(count + 1, count + size + 1)))
        count += size
    space = r.make_space(list(range(1, count + 1)), [1 / count] * count, atoms)
    params = {}
    for atom in atoms:
        p = (
            draw(st.floats(-0.5, 0.5)),
            draw(st.one_of(st.sampled_from([0.0, 0.2, -0.3, 1.0, -1.0]), st.floats(-1.0, 1.0))),
            draw(st.sampled_from([0.0, 1e-3, -1e-3, 0.5])),
            draw(st.sampled_from([-1.0, -1.5])),
        )
        params.update({s: p for s in atom})
    return r.RandomFunction(space, 1, r.parse(draw(st.sampled_from(BODIES)), 1, 4), params), space


# NEWTON_STACK_ROWS cuts Newton's stacks and the convexity check's alike
# (optimize._stacks); each start and each probe row runs as it would
# alone, so every cut must give the same verdicts.  A cut of 1 row makes a
# stack of one scenario's 35 probes, under the 40 rows below which a stack
# once called the bundle per row
@settings(max_examples=60, deadline=None)
@given(
    convexity_problems(),
    st.sampled_from([1, 2 * len(default_probe_grid(REGION)), optimize.NEWTON_STACK_ROWS]),
)
def test_convex_verdicts_match_the_per_probe_loop(problem, stack_rows):
    rf, space = problem
    opts = SolverOptions(grid_m=11)
    classified, swept, scans = [], [], []

    def stacked(S):
        """The convexity check's stack, recording each matrix it classifies
        and each one that reaches the eigenvalue sweep."""
        minors, classify = optimize._classify_stack(S)

        def recorded(j):
            classified.append((S[j],))
            with mock.patch.object(optimize, "_jacobi", _recording(optimize._jacobi, swept)):
                return classify(j)

        return minors, recorded

    def scan(rf, inputs, grid_m, tol):
        scans.append([rep for rep, _ in inputs])  # solve_rlop found these atoms convex
        return optimize.scan_min(rf, inputs, grid_m, tol)

    with mock.patch.multiple(
        selection, _classify_stack=stacked, scan_min=scan
    ), mock.patch.object(optimize, "NEWTON_STACK_ROWS", stack_rows):
        try:
            outcome = r.solve_rlop(rf, space, REGION, opts)
        except r.RandoptError:
            outcome = None

    probes = default_probe_grid(REGION)
    if isinstance(outcome, (selection.NoStationaryPoints, selection.NoPDStationaryPoint)):
        assert classified == scans == []
        return
    # every atom was selected, so the stack classified every atom's probes
    # up to its first failing one, in order, as the loop would, and swept
    # the eigenvalues of the matrices that the loop swept
    expected, expected_swept = [], []
    with mock.patch.dict(globals(), _classify=_recording(_classify, expected)), \
            mock.patch.object(classify_reference, "_jacobi", _recording(optimize._jacobi, expected_swept)):
        convex = {atom[0]: reference_atom_is_convex(rf, atom[0], probes) for atom in space.atoms}
    assert _matrices(classified) == _matrices(expected)
    assert _matrices(swept) == _matrices(expected_swept)
    assert all(np.isfinite(S).all() for (S,) in swept)  # a defined row
    # every convex atom is scanned, in one call, before any error is raised
    assert scans == [[atom[0] for atom in space.atoms if convex[atom[0]]]]
