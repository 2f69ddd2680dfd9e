"""solve_rop against the earlier all-scenario implementation.

``reference_solve_rop`` is the previous solve_rop, with the grid
minimization it called inlined: it minimises every scenario, then scans
each representative's grid a second time (points one by one with the
scalar evaluator for point clouds) for the first point within
EQUATION_TOL of eta.  The current solve_rop scans each representative
once.  On measurable inputs both must give the same points, certificates
and excluded-grid-point count, or raise the same error.
"""

import itertools
import math
import random

import numpy as np
import pytest

import randopt as r
from randopt import exprlang
from randopt.errors import EvalError, RandoptError
from randopt.optimize import SolverOptions
from randopt.selection import EQUATION_TOL, GlobalCert
from scan_records import record_scans, scanned_grids


def _reference_grid_min(rf, omega, desc, grid_m):
    if isinstance(desc, r.Box):
        if desc.dim != rf.n:
            raise r.IncompatibleRepresentation("set dimension differs from function")
        axes = [
            np.array([lo]) if lo == hi else np.linspace(lo, hi, max(grid_m, 2))
            for lo, hi in zip(desc.lower, desc.upper)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([g.ravel() for g in mesh], axis=-1)
    elif isinstance(desc, r.PointCloud):
        if desc.dim != rf.n:
            raise r.IncompatibleRepresentation("set dimension differs from function")
        X = np.asarray(sorted(desc.points), dtype=float)
    else:
        raise r.IncompatibleRepresentation(
            f"grid minimization needs a Box or PointCloud, got {type(desc).__name__}"
        )
    values, valid = exprlang.eval_batch(rf.body, X, rf.params_of(omega))
    excluded = int(np.count_nonzero(~valid))
    if excluded == len(X):
        raise r.DomainViolation(
            f"objective undefined at every point of the set for scenario {omega!r}"
        )
    masked = np.where(valid, values, np.inf)
    return float(masked[int(np.argmin(masked))]), excluded


def reference_solve_rop(rf, space, C, opts):
    f_verdict = r.check_joint_measurability(rf, r.default_probe_grid(C.bounding_box()))
    if not f_verdict.measurable:
        raise r.NonMeasurableF("f", f_verdict.witness)
    c_verdict = r.is_measurable_setmap(space, C)
    if not c_verdict.measurable:
        raise r.NonMeasurableC("C", c_verdict.witness)
    minima = {
        omega: _reference_grid_min(rf, omega, C.descriptions[omega], opts.grid_m)
        for omega in space.scenarios
    }
    points, certs, excluded = {}, {}, 0
    for atom in space.atoms:
        rep = atom[0]
        target, rep_excluded = minima[rep]
        excluded += rep_excluded
        desc = C.descriptions[rep]
        if isinstance(desc, r.Box):
            axes = [
                np.array([lo]) if lo == hi else np.linspace(lo, hi, max(opts.grid_m, 2))
                for lo, hi in zip(desc.lower, desc.upper)
            ]
            mesh = np.meshgrid(*axes, indexing="ij")
            X = np.stack([g.ravel() for g in mesh], axis=-1)
            values, valid = exprlang.eval_batch(rf.body, X, rf.params_of(rep))
            mask = valid & (np.abs(values - target) <= EQUATION_TOL)
            sol = tuple(float(v) for v in X[int(np.flatnonzero(mask)[0])])
        else:
            sol = None
            for p in sorted(desc.points):
                try:
                    if abs(r.eval_f(rf, rep, p) - target) <= EQUATION_TOL:
                        sol = tuple(float(v) for v in p)
                        break
                except EvalError:
                    continue
            assert sol is not None
        for omega in atom:
            points[omega] = sol
            certs[omega] = GlobalCert(target)
    return points, certs, excluded


def _outcome(solve):
    try:
        return solve()
    except RandoptError as e:
        return type(e).__name__, str(e)


def _random_instance(seed: int):
    """Symmetric double wells, one parameter vector per atom.

    Each atom's set is either the box [-2, 2]^n or a shuffled point cloud.
    The wells sit at p +- 1, which are nodes of the box grid and points of
    the cloud, so the two (2-D: four) minima tie within EQUATION_TOL; a
    tilt of +-1e-12 moves the exact argmin to a later point without moving
    the first point within tolerance.  The term 0*log(...) leaves the
    values unchanged but is undefined at ``hole_at``, a grid node and cloud
    point that the scans exclude.  When ``hole_at`` is also a probe point
    of the joint-measurability check, both implementations must raise the
    same DomainViolation.
    """
    rng = random.Random(seed)
    n = rng.choice([1, 2])
    scenarios = list(range(1, rng.randint(3, 8) + 1))
    rng.shuffle(scenarios)
    cuts = sorted(rng.sample(range(1, len(scenarios)), rng.randint(0, len(scenarios) - 1)))
    atoms = [scenarios[i:j] for i, j in zip([0] + cuts, cuts + [len(scenarios)])]
    space = r.make_space(scenarios, [1.0 / len(scenarios)] * len(scenarios), atoms)
    grid_m = 41
    nodes = np.linspace(-2.0, 2.0, grid_m)
    wells = " + ".join(f"((x{i} - p{i})^2 - 1)^2" for i in range(1, n + 1))
    hole = " + ".join(f"(x{i} - p{n + 1 + i})^2" for i in range(1, n + 1))
    body = f"{wells} + p{n + 1}*x1 + 0*log({hole})"
    params, descs = {}, {}
    for atom in space.atoms:
        centers = [rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0]) for _ in range(n)]
        tilt = rng.choice([0.0, 1e-12, -1e-12, 1e-3])
        hole_at = [float(rng.choice([v for v in nodes if 2 * v % 1])) for _ in range(n)]
        vec = tuple(centers + [tilt] + hole_at)
        if rng.random() < 0.5:
            desc = r.Box((-2.0,) * n, (2.0,) * n)
        else:
            wells_at = [
                tuple(c + s for c, s in zip(centers, signs))
                for signs in itertools.product((-1.0, 1.0), repeat=n)
            ]
            others = [tuple(rng.uniform(-2.0, 2.0) for _ in range(n)) for _ in range(5)]
            pts = wells_at + others + [tuple(hole_at)]
            rng.shuffle(pts)
            desc = r.PointCloud(tuple(pts))
        for omega in atom:
            params[omega] = vec
            descs[omega] = desc
    rf = r.RandomFunction(space, n, r.parse(body, n, 2 * n + 1), params)
    return rf, space, r.RandomSet(space, descs), SolverOptions(grid_m=grid_m)


@pytest.mark.parametrize("seed", range(40))
def test_solve_rop_matches_reference(seed):
    rf, space, C, opts = _random_instance(seed)
    expected = _outcome(lambda: reference_solve_rop(rf, space, C, opts))
    got = _outcome(lambda: r.solve_rop(rf, space, C, opts))
    if isinstance(expected[0], str):
        assert got == expected
        return
    assert isinstance(got, r.Selection), got
    points, certs, excluded = expected
    assert dict(got.points) == points
    assert dict(got.certificates) == certs
    assert dict(got.diagnostics) == {"excluded_grid_points": excluded}


def test_reference_instances_cover_ties_clouds_and_exclusions():
    kinds, solved, excluded, ties = set(), 0, 0, 0
    for seed in range(40):
        rf, space, C, opts = _random_instance(seed)
        outcome = _outcome(lambda: reference_solve_rop(rf, space, C, opts))
        if isinstance(outcome[0], str):
            continue
        solved += 1
        excluded += outcome[2]
        for atom in space.atoms:
            kinds.add((type(C.descriptions[atom[0]]).__name__, rf.n))
            ties += rf.params_of(atom[0])[rf.n] != 1e-3
    assert solved >= 30
    assert kinds == {("Box", 1), ("Box", 2), ("PointCloud", 1), ("PointCloud", 2)}
    assert excluded > 0 and ties > 0


def test_solve_rop_scans_each_representative_once(monkeypatch):
    space = r.make_space(list(range(1, 8)), [1.0 / 7] * 7, [[1, 2, 3], [4, 5], [6, 7]])
    params = {s: (0.5 if s < 4 else -0.5,) for s in space.scenarios}
    rf = r.RandomFunction(space, 2, r.parse("((x1 - p1)^2 - 1)^2 + x2^2", 2, 1), params)
    C = r.RandomSet(space, {s: r.Box((-2.0, -2.0), (2.0, 2.0)) for s in space.scenarios})
    grid_m = 81  # nodes every 0.05, so the wells at +-0.5 +- 1 are nodes
    rows = []
    eval_batch = exprlang.eval_batch

    def counting_rows(e, X, p=()):
        rows.append(len(X))
        return eval_batch(e, X, p)

    scans = record_scans(monkeypatch, 40, 8, 2000)  # 3 x 3 coarse tiles per grid
    monkeypatch.setattr(exprlang, "eval_batch", counting_rows)
    sel = r.solve_rop(rf, space, C, SolverOptions(grid_m=grid_m))
    # one scan of the axes per atom, all in one call, no node evaluated
    # twice and every tile left out excluded by the bound; the rows are the
    # measurability probes
    grids = scanned_grids(scans)
    assert [shape for shape, _ in grids] == [(grid_m, grid_m)] * len(space.atoms)
    assert len({id(s.call) for s in scans}) == 1
    # of each grid, the two fine tiles holding the wells at p1 +- 1 (x1 =
    # -0.5 and 1.5, or -1.5 and 0.5, at x2 = 0) are evaluated
    wells = {0.5: [((24, 32), (40, 48)), ((64, 72), (40, 48))], -0.5: [((8, 16), (40, 48)), ((48, 56), (40, 48))]}
    assert [s.tiles for s in scans] == [wells[s.p[0]] for s in scans]
    assert grid_m**2 not in rows
    assert sel.points[1] == (-0.5, 0.0) and sel.points[4] == (-1.5, 0.0)
    assert math.isclose(sel.certificates[7].value, 0.0, abs_tol=1e-12)
