import random

import numpy as np
import pytest

import randopt as r
from randopt.errors import NonMeasurableC, NonMeasurableF
from randopt.optimize import SolverOptions
from randopt.selection import (
    GlobalCert,
    NoPDStationaryPoint,
    NoStationaryPoints,
)


@pytest.fixture
def space3():
    return r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])


def make_rf(space, text, n=1, params=None):
    k = 0 if params is None else len(next(iter(params.values())))
    if params is None:
        params = {s: () for s in space.scenarios}
    return r.RandomFunction(space, n, r.parse(text, n, k), params)


def const_rv(space, value):
    return r.RandomVariableRn(space, {s: value for s in space.scenarios})


def const_set(space, desc):
    return r.RandomSet(space, {s: desc for s in space.scenarios})


# --- ROP ---------------------------------------------------------------------------------


def test_solve_rop_quartic(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    C = const_set(space3, r.Box((-2.0,), (2.0,)))
    sel = r.solve_rop(rf, space3, C, SolverOptions(grid_m=401))
    assert all(sel.points[s] == (-1.0,) for s in space3.scenarios)
    assert all(sel.certificates[s] == GlobalCert(-1.0) for s in space3.scenarios)
    assert sel.measurable.measurable


def test_solve_rop_vertex(space3):
    rf = make_rf(space3, "(x1 - p1)^2", params={s: (3.0,) for s in space3.scenarios})
    C = const_set(space3, r.Box((0.0,), (5.0,)))
    sel = r.solve_rop(rf, space3, C, SolverOptions(grid_m=101))
    assert all(sel.points[s] == (3.0,) for s in space3.scenarios)
    assert sel.certificates[1] == GlobalCert(0.0)


def test_solve_rop_point_cloud(space3):
    rf = make_rf(space3, "x1^2")
    C = const_set(space3, r.PointCloud(((1.0,), (2.0,))))
    sel = r.solve_rop(rf, space3, C)
    assert all(sel.points[s] == (1.0,) for s in space3.scenarios)
    assert sel.certificates[1] == GlobalCert(1.0)


def test_solve_rop_consistency_with_grid_oracle(space3):
    rf = make_rf(
        space3, "x1^4 - p1*x1^2 + x1", params={s: (2.0,) for s in space3.scenarios}
    )
    C = const_set(space3, r.Box((-2.0,), (2.0,)))
    opts = SolverOptions(grid_m=301)
    sel = r.solve_rop(rf, space3, C, opts)
    for s in space3.scenarios:
        oracle = r.global_min_compact(rf, s, C.descriptions[s], 301)
        assert abs(r.eval_f(rf, s, sel.points[s]) - oracle.grid_value) <= 1e-9


def test_solve_rop_refuses_non_measurable_f(space3):
    rf = make_rf(space3, "(x1 - p1)^2", params={1: (1.0,), 2: (2.0,), 3: (0.0,)})
    C = const_set(space3, r.Box((-5.0,), (5.0,)))
    with pytest.raises(NonMeasurableF) as exc:
        r.solve_rop(rf, space3, C)
    assert exc.value.witness is not None
    assert exc.value.witness.atom == (1, 2)


def test_solve_rop_refuses_non_measurable_C(space3):
    rf = make_rf(space3, "x1^2")
    C = r.RandomSet(
        space3,
        {
            1: r.Box((0.0,), (1.0,)),
            2: r.Box((0.0,), (2.0,)),
            3: r.Box((0.0,), (1.0,)),
        },
    )
    with pytest.raises(NonMeasurableC):
        r.solve_rop(rf, space3, C)


# --- RLOP --------------------------------------------------------------------------------


def test_solve_rlop_quartic(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    sel = r.solve_rlop(rf, space3, r.Box((-2.0,), (2.0,)))
    assert all(sel.points[s] == (-1.0,) for s in space3.scenarios)
    assert sel.measurable.measurable
    cert = sel.certificates[1]
    assert isinstance(cert, r.LocalMinCertificate)
    assert cert.delta > 0.0
    assert cert.min_margin >= -1e-12


def test_solve_rlop_convex_upgrades_to_global(space3):
    rf = make_rf(space3, "x1^2 + x2^2", n=2)
    sel = r.solve_rlop(
        rf, space3, r.Box((-1.0, -1.0), (1.0, 1.0)), SolverOptions(grid_m=41, newton_grid_m=5)
    )
    assert all(sel.points[s] == (0.0, 0.0) for s in space3.scenarios)
    assert sel.certificates[1] == GlobalCert(0.0)


def test_solve_rlop_cubic_no_pd_point(space3):
    rf = make_rf(space3, "x1^3")
    out = r.solve_rlop(rf, space3, r.Box((-1.0,), (1.0,)))
    assert out == NoPDStationaryPoint((1, 2))


def test_solve_rlop_no_stationary_points(space3):
    rf = make_rf(space3, "exp(x1)")
    out = r.solve_rlop(rf, space3, r.Box((-1.0,), (1.0,)))
    assert out == NoStationaryPoints((1, 2))


def test_solve_rlop_parameter_dependent_atoms(space3):
    # minimizers differ across atoms but are constant inside each
    rf = make_rf(
        space3, "(x1 - p1)^2*((x1 - p1)^2 - 1)", params={1: (0.5,), 2: (0.5,), 3: (-0.5,)}
    )
    sel = r.solve_rlop(rf, space3, r.Box((-3.0,), (3.0,)))
    assert sel.measurable.measurable
    assert sel.points[1] == sel.points[2]
    # canonical rule picks the left well p - 1/sqrt(2) in each atom
    assert sel.points[1][0] == pytest.approx(0.5 - 2**-0.5, abs=1e-8)
    assert sel.points[3][0] == pytest.approx(-0.5 - 2**-0.5, abs=1e-8)


def test_solve_rlop_refuses_non_measurable_f(space3):
    rf = make_rf(space3, "(x1 - p1)^2", params={1: (1.0,), 2: (2.0,), 3: (0.0,)})
    with pytest.raises(NonMeasurableF):
        r.solve_rlop(rf, space3, r.Box((-5.0,), (5.0,)))


def test_solve_rlop_compares_no_point_clouds(monkeypatch):
    # the selection is constant on each atom by construction, so no set
    # map of stationary points is built and scanned for measurability
    n = 40
    space = r.make_space(list(range(n)), [1 / n] * n, [list(range(n))])
    calls = []
    original = r.PointCloud.distance

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(r.PointCloud, "distance", counted)
    sel = r.solve_rlop(make_rf(space, "x1^4 - 2*x1^2"), space, r.Box((-2.0,), (2.0,)))
    assert all(sel.points[s] == (-1.0,) for s in space.scenarios)
    assert all(sel.certificates[s].omega == s for s in space.scenarios)
    assert sel.measurable.measurable
    assert len(calls) == 0


# --- refusal messages ------------------------------------------------------------------
# the message bytes of each refusal


@pytest.mark.parametrize("solve", ["solve_rop", "solve_rlop"])
def test_non_measurable_f_message(space3, solve):
    rf = make_rf(space3, "(x1 - p1)^2", params={1: (1.0,), 2: (2.0,), 3: (0.0,)})
    box = r.Box((-5.0,), (5.0,))
    args = {
        "solve_rop": (rf, space3, const_set(space3, box)),
        "solve_rlop": (rf, space3, box),
    }[solve]
    with pytest.raises(NonMeasurableF) as exc:
        getattr(r, solve)(*args)
    assert str(exc.value) == (
        "objective is not jointly measurable: values differ within atom (1, 2) "
        "at probe (-5.0,)"
    )
    w = exc.value.witness
    assert (w.scenario_a, w.scenario_b, w.gap, w.value_a, w.value_b) == (1, 2, 13.0, 36.0, 49.0)


def test_non_measurable_c_message(space3):
    C = r.RandomSet(
        space3, {1: r.Box((0.0,), (1.0,)), 2: r.Box((0.0,), (2.0,)), 3: r.Box((0.0,), (1.0,))}
    )
    with pytest.raises(NonMeasurableC) as exc:
        r.solve_rop(make_rf(space3, "x1^2"), space3, C)
    assert str(exc.value) == (
        "feasible map is not measurable: descriptions differ within atom (1, 2)"
    )
    assert (exc.value.witness.gap, exc.value.witness.probe) == (1.0, None)


# --- necessary conditions -------------------------------------------------------------------


def test_necessary_conditions_at_one(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    rep = r.check_necessary_conditions(rf, space3, const_rv(space3, (1.0,)))
    assert rep.all_ok
    assert rep.measurable.measurable
    assert rep.per_scenario[1].classification is r.Definiteness.PD


def test_necessary_conditions_at_zero_fail_psd(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    rep = r.check_necessary_conditions(rf, space3, const_rv(space3, (0.0,)))
    assert all(c.grad_ok for c in rep.per_scenario.values())
    assert not any(c.psd_ok for c in rep.per_scenario.values())
    assert rep.per_scenario[1].classification is r.Definiteness.ND


def test_necessary_conditions_flip_counterexample(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    xi = r.RandomVariableRn(space3, {1: (1.0,), 2: (-1.0,), 3: (1.0,)})
    rep = r.check_necessary_conditions(rf, space3, xi)
    assert rep.all_ok  # stationary and PD at every scenario...
    assert not rep.measurable.measurable  # ...but not a random variable
    assert rep.measurable.witness.atom == (1, 2)


# --- cross-cutting invariants ------------------------------------------------------------------


def test_solutions_measurable_by_construction(space3):
    rng = random.Random(13)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(-1.0, 1.0)
        rf = make_rf(
            space3,
            "p1*x1^4 - 2*x1^2 + p2*x1",
            params={s: (a, b) for s in space3.scenarios},
        )
        C = const_set(space3, r.Box((-2.0,), (2.0,)))
        sel = r.solve_rop(rf, space3, C, SolverOptions(grid_m=201))
        assert r.is_measurable_rv(space3, sel.as_random_variable(), tol=0.0).measurable


def test_rlop_output_passes_necessary_conditions(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    sel = r.solve_rlop(rf, space3, r.Box((-2.0,), (2.0,)))
    rep = r.check_necessary_conditions(rf, space3, sel.as_random_variable())
    assert rep.all_ok
    assert rep.measurable.measurable


def test_rlop_local_optimality_in_certified_ball(space3):
    rf = make_rf(space3, "x1^4 - 2*x1^2")
    sel = r.solve_rlop(rf, space3, r.Box((-2.0,), (2.0,)))
    for s in space3.scenarios:
        cert = sel.certificates[s]
        x = sel.points[s][0]
        f0 = r.eval_f(rf, s, (x,))
        for d in np.linspace(-cert.delta, cert.delta, 1001):
            assert r.eval_f(rf, s, (x + d,)) >= f0 - 1e-12


def test_atom_refinement_does_not_change_selection(space3):
    params = {1: (1.5,), 2: (1.5,), 3: (-0.5,)}
    rf = make_rf(space3, "x1^4 - 2*x1^2 + p1*x1", params=params)
    region = r.Box((-2.0,), (2.0,))
    sel_coarse = r.solve_rlop(rf, space3, region)
    refined = r.make_space(space3.scenarios, space3.weights, [[1], [2], [3]])
    rf_fine = r.RandomFunction(refined, 1, rf.body, params)
    sel_fine = r.solve_rlop(rf_fine, refined, region)
    for s in space3.scenarios:
        assert sel_coarse.points[s] == sel_fine.points[s]
