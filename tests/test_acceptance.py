"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single PASS line on success; a failed assertion marks
the criterion red.  Generators are seeded, so every run checks the same
instances.
"""

import functools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

import randopt as r
from randopt.cli import run as cli_run
from randopt.document import load_problem
from randopt.optimize import Definiteness, SolverOptions, jacobi_eigenvalues
from randopt.selection import GlobalCert

from numeric_helpers import fd_check, polish_point

GALLERY = Path(__file__).resolve().parent.parent / "gallery"


def _passed(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def make_rf(space, text, n=1, params=None):
    k = 0 if params is None else len(next(iter(params.values())))
    if params is None:
        params = {s: () for s in space.scenarios}
    return r.RandomFunction(space, n, r.parse(text, n, k), params)


# --- criterion 1: paper example reproduction ---------------------------------------


def test_criterion_1_paper_example_reproduction():
    t0 = time.perf_counter()
    space = r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])
    rf = make_rf(space, "x1^4 - 2*x1^2")
    box = r.Box((-2.0,), (2.0,))
    opts = SolverOptions(grid_m=401, newton_grid_m=9)

    search = r.find_stationary_points(rf, 1, box, opts)
    xs = [sp.x[0] for sp in search.points]
    assert xs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-8)
    assert [sp.classification for sp in search.points] == [
        Definiteness.PD,
        Definiteness.ND,
        Definiteness.PD,
    ]
    hs = [r.hessian(rf, 1, sp.x)[0, 0] for sp in search.points]
    assert hs == pytest.approx([8.0, -4.0, 8.0], abs=1e-7)

    sel = r.solve_rlop(rf, space, box, opts)
    assert all(sel.points[s] == pytest.approx((-1.0,), abs=1e-8) for s in space.scenarios)
    assert all(
        isinstance(sel.certificates[s], r.LocalMinCertificate)
        for s in space.scenarios
    )
    assert sel.measurable.measurable

    C = r.RandomSet(space, {s: box for s in space.scenarios})
    rop = r.solve_rop(rf, space, C, opts)
    for s in space.scenarios:
        oracle = r.global_min_compact(rf, s, box, 401)
        assert abs(rop.certificates[s].value - oracle.grid_value) <= 1e-9
        assert abs(rop.certificates[s].value - (-1.0)) <= 1e-9

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    _passed(1, f"x^4-2x^2 pipeline reproduced in {elapsed * 1000:.0f} ms")


# --- criterion 2: non-measurable selection counterexample ----------------------------


def test_criterion_2_non_measurable_selection_counterexample():
    space = r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])
    rf = make_rf(space, "x1^4 - 2*x1^2")
    xi = r.RandomVariableRn(space, {1: (1.0,), 2: (-1.0,), 3: (1.0,)})
    report = r.check_necessary_conditions(rf, space, xi)
    assert all(c.grad_ok for c in report.per_scenario.values())
    assert all(c.psd_ok for c in report.per_scenario.values())
    verdict = report.measurable
    assert not verdict.measurable
    w = verdict.witness
    assert w.atom == (1, 2) and {w.scenario_a, w.scenario_b} == {1, 2}
    assert w.gap == 2.0  # exact, tolerance 0
    _passed(2, "flipping +-1 inside an atom: conditions hold, not measurable")


# --- criteria 3 and 4: measurable optimal values and solutions ------------------------


def _random_partition(rng, ids, n_atoms):
    labels = [i % n_atoms for i in range(len(ids))]
    rng.shuffle(labels)
    blocks = {}
    for s, lab in zip(ids, labels):
        blocks.setdefault(lab, []).append(s)
    return list(blocks.values())


def _random_instance(rng: random.Random, vary_within_atom: bool):
    n = rng.choice([1, 1, 2, 2, 3])
    n_scen = rng.randint(4, 8)
    n_atoms = rng.randint(2, min(4, n_scen - 1))  # guarantees a multi-scenario atom
    ids = list(range(1, n_scen + 1))
    space = r.make_space(ids, [1.0 / n_scen] * n_scen, _random_partition(rng, ids, n_atoms))

    terms = []
    for i in range(1, n + 1):
        c4 = rng.uniform(0.2, 1.5)
        c2 = rng.uniform(-2.0, 2.0)
        c1 = rng.uniform(-1.0, 1.0)
        terms.append(f"{c4!r}*x{i}^4 + {c2!r}*x{i}^2 + {c1!r}*x{i}")
        terms.append(f"p{i}*x{i}")  # scenario dependence
    if n >= 2:
        terms.append(f"{rng.uniform(-0.5, 0.5)!r}*x1*x2")
    body = " + ".join(terms)

    params = {}
    if vary_within_atom:
        for s in space.scenarios:
            params[s] = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
        # make sure some multi-scenario atom really differs
        atom = next(a for a in space.atoms if len(a) > 1)
        base = list(params[atom[0]])
        base[0] += 0.5
        params[atom[1]] = tuple(base)
    else:
        for atom in space.atoms:
            vec = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
            for s in atom:
                params[s] = vec

    descs = {}
    for idx, atom in enumerate(space.atoms):
        half = 1.5 + 0.25 * idx
        box = r.Box((-half,) * n, (half,) * n)
        for s in atom:
            descs[s] = box
    C = r.RandomSet(space, descs)

    rf = make_rf(space, body, n=n, params=params)
    grid_m = {1: 201, 2: 31, 3: 11}[n]
    return rf, space, C, grid_m


@functools.lru_cache(maxsize=1)
def _measurable_instances():
    rng = random.Random(20250811)
    return [_random_instance(rng, vary_within_atom=False) for _ in range(100)]


def test_criterion_3_measurable_eta_and_non_measurable_f():
    t0 = time.perf_counter()
    for rf, space, C, grid_m in _measurable_instances():
        ov = r.optimal_value(rf, space, C, grid_m)
        assert ov.verdict.measurable

    rng = random.Random(77)
    for _ in range(100):
        rf, space, C, grid_m = _random_instance(rng, vary_within_atom=True)
        verdict = r.check_joint_measurability(
            rf, r.default_probe_grid(C.bounding_box())
        )
        assert not verdict.measurable
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    _passed(3, f"100 measurable eta + 100 non-measurable f in {elapsed:.1f}s")


def test_criterion_4_solutions_measurable_and_optimal():
    for rf, space, C, grid_m in _measurable_instances():
        sel = r.solve_rop(rf, space, C, SolverOptions(grid_m=grid_m))
        assert r.is_measurable_rv(space, sel.as_random_variable(), tol=0.0).measurable
        for s in space.scenarios:
            oracle = r.global_min_compact(rf, s, C.descriptions[s], grid_m)
            assert abs(r.eval_f(rf, s, sel.points[s]) - oracle.grid_value) <= 1e-9
    _passed(4, "100 instances: xi measurable (tol 0) and grid-optimal within 1e-9")


# --- criterion 5: Sylvester equivalence ------------------------------------------------


def _cholesky_pivots_ok(H: np.ndarray, tau: float) -> bool:
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


def test_criterion_5_sylvester_matches_oracles():
    rng = np.random.default_rng(12345)
    tol_rel = 1e-10
    matrices = []
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        A = rng.uniform(-5.0, 5.0, size=(n, n))
        matrices.append((A + A.T) / 2)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        A = rng.uniform(-2.0, 2.0, size=(n, n))
        matrices.append(A.T @ A + float(rng.uniform(0.25, 1.0)) * np.eye(n))

    agree = 0
    for H in matrices:
        tau = tol_rel * (1.0 + float(np.max(np.sum(np.abs(H), axis=1))))
        pd_classify = r.classify_definiteness(H, tol_rel) is Definiteness.PD
        pd_chol = _cholesky_pivots_ok(H, tau)
        pd_jacobi = float(jacobi_eigenvalues(H)[0]) > tau
        assert pd_classify == pd_chol == pd_jacobi
        # the minors Sylvester's criterion reads are the leading determinants
        minors = r.leading_principal_minors(H)
        for k in range(1, len(H) + 1):
            det = np.linalg.det(H[:k, :k])
            assert abs(minors[k - 1] - det) <= 1e-9 * (tau / tol_rel) ** k
        agree += 1
    assert agree == 1200
    _passed(5, "1200/1200 matrices: Sylvester PD == Cholesky == Jacobi")


# --- criterion 6: derivative correctness -------------------------------------------------


def _derivative_corpus():
    rng = random.Random(99)

    def poly(max_deg=4, max_coef=3.0):
        deg = rng.randint(2, max_deg)
        parts = [f"{rng.uniform(-max_coef, max_coef)!r}*x1^{d}" for d in range(1, deg + 1)]
        return "(" + " + ".join(parts) + ")"

    def small_poly():
        return (
            f"({rng.uniform(-1.5, 1.5)!r}*x1^2 + {rng.uniform(-1.5, 1.5)!r}*x1"
            f" + {rng.uniform(-1.0, 1.0)!r}*x2)"
        )

    corpus = []
    for i in range(50):
        kind = i % 6
        if kind == 0:
            corpus.append(poly() + f" + {rng.uniform(-2, 2)!r}*x2^2")
        elif kind == 1:
            corpus.append(f"sin({small_poly()}) + {poly(3)}")
        elif kind == 2:
            corpus.append(f"cos({small_poly()})*x1 + x2^2")
        elif kind == 3:
            corpus.append(f"exp({rng.uniform(-1.0, 1.0)!r}*x1 + {rng.uniform(-0.5, 0.5)!r}*x2)")
        elif kind == 4:
            corpus.append(f"log(x1^2 + x2^2 + 2) + {poly(3)}")
        else:
            corpus.append(f"sqrt(x1^2 + 1) + {poly(4)}/(x2^2 + 2)")
    return corpus


def test_criterion_6_derivatives_match_finite_differences():
    rng = random.Random(101)
    space = r.make_space([1], [1.0], [[1]])
    checked = 0
    for text in _derivative_corpus():
        rf = make_rf(space, text, n=2)
        for _ in range(10):
            x = (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            report = fd_check(rf, 1, x, 1e-5)
            assert report.passed, (text, x, report.max_rel_error)
            checked += 1
    assert checked == 500
    _passed(6, "50 expressions x 10 points: symbolic vs FD all within tolerance")


# --- criterion 7: necessary-condition soundness -------------------------------------------


def test_criterion_7_sweep_minima_satisfy_necessary_conditions():
    rng = random.Random(314)
    space = r.make_space([1], [1.0], [[1]])
    instances = 0
    minima_checked = 0
    while instances < 50:
        n = 1 if instances % 2 == 0 else 2
        if n == 1:
            c4 = rng.uniform(0.5, 2.0)
            body = (
                f"{c4!r}*x1^4 + {rng.uniform(-2, 2)!r}*x1^3"
                f" + {rng.uniform(-2, 2)!r}*x1^2 + {rng.uniform(-2, 2)!r}*x1"
            )
            box = r.Box((-3.0,), (3.0,))
            m = 10_000
        else:
            body = (
                f"{rng.uniform(0.5, 2.0)!r}*x1^4 + {rng.uniform(0.5, 2.0)!r}*x2^4"
                f" + {rng.uniform(-1, 1)!r}*x1^2 + {rng.uniform(-1, 1)!r}*x2^2"
                f" + {rng.uniform(-1, 1)!r}*x1*x2 + {rng.uniform(-1, 1)!r}*x1"
                f" + {rng.uniform(-1, 1)!r}*x2"
            )
            box = r.Box((-3.0, -3.0), (3.0, 3.0))
            m = 500
        rf = make_rf(space, body, n=n)
        instances += 1

        axes = [np.linspace(lo, hi, m) for lo, hi in zip(box.lower, box.upper)]
        if n == 1:
            values, valid = r.randfunc.eval_f_batch(rf, 1, axes[0][:, None])
            assert valid.all()
            interior = (
                (values[1:-1] <= values[:-2]) & (values[1:-1] <= values[2:])
            )
            idxs = np.flatnonzero(interior) + 1
            grid_pts = [(float(axes[0][i]),) for i in idxs]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            X = np.stack([g.ravel() for g in mesh], axis=-1)
            values, valid = r.randfunc.eval_f_batch(rf, 1, X)
            assert valid.all()
            V = values.reshape(m, m)
            center = V[1:-1, 1:-1]
            interior = (
                (center <= V[:-2, 1:-1])
                & (center <= V[2:, 1:-1])
                & (center <= V[1:-1, :-2])
                & (center <= V[1:-1, 2:])
            )
            ii, jj = np.nonzero(interior)
            grid_pts = [
                (float(axes[0][i + 1]), float(axes[1][j + 1]))
                for i, j in zip(ii[:10], jj[:10])
            ]

        for pt in grid_pts[:10]:
            polished = polish_point(rf, 1, pt, box)
            assert polished is not None, (body, pt)
            g = r.gradient(rf, 1, polished)
            assert float(np.max(np.abs(g))) <= 1e-6
            lam_min = float(jacobi_eigenvalues(r.hessian(rf, 1, polished))[0])
            assert lam_min >= -1e-6
            minima_checked += 1
    assert minima_checked >= 50
    _passed(
        7, f"{minima_checked} sweep minima polished: |g|<=1e-6, lambda_min>=-1e-6"
    )


# --- criterion 8: convex fast path ----------------------------------------------------------


def test_criterion_8_convex_quadratics_get_global_certificates():
    rng = np.random.default_rng(2718)
    space = r.make_space([1, 2], [0.5, 0.5], [[1, 2]])
    for trial in range(50):
        n = 1 + trial % 2
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        A = M.T @ M + np.eye(n)
        b = rng.uniform(-0.5, 0.5, size=n)
        terms = []
        for i in range(n):
            terms.append(f"{float(0.5 * A[i, i])!r}*x{i + 1}^2")
            terms.append(f"{float(b[i])!r}*x{i + 1}")
            for j in range(i + 1, n):
                terms.append(f"{float(A[i, j])!r}*x{i + 1}*x{j + 1}")
        rf = make_rf(space, " + ".join(terms), n=n)
        box = r.Box((-2.0,) * n, (2.0,) * n)
        grid_m = 41
        sel = r.solve_rlop(rf, space, box, SolverOptions(grid_m=grid_m, newton_grid_m=5))
        assert isinstance(sel, r.Selection), sel
        assert isinstance(sel.certificates[1], GlobalCert)
        oracle = r.global_min_compact(rf, 1, box, grid_m)
        spacing = 4.0 / (grid_m - 1)
        assert max(
            abs(a - g) for a, g in zip(sel.points[1], oracle.grid_x)
        ) <= spacing
        x_star = np.linalg.solve(A, -b)
        assert float(np.max(np.abs(np.array(sel.points[1]) - x_star))) <= 1e-8
    _passed(8, "50 convex quadratics: GlobalCert and argmin within grid resolution")


# --- criterion 9: determinism -----------------------------------------------------------------


def test_criterion_9_cli_corpus_byte_identical(tmp_path):
    corpus = [
        ("quartic_double_well.json", "solve-rlop"),
        ("quartic_double_well.json", "solve-rop"),
        ("quartic_double_well.json", "oracle"),
        ("quartic_double_well.json", "stationary"),
        ("shifted_parabola_refusal.json", "solve-rop"),
        ("shifted_parabola_refusal.json", "check-measurable"),
        ("convex_quadratic_2d.json", "solve-rlop"),
        ("flip_candidate.json", "necessary"),
        ("cubic_inflection.json", "solve-rlop"),
        ("point_cloud_rop.json", "solve-rop"),
    ]
    for doc_name, command in corpus:
        doc = load_problem(str(GALLERY / doc_name))
        out1 = tmp_path / "first.json"
        out2 = tmp_path / "second.json"
        cli_run(command, doc, str(out1))
        cli_run(command, doc, str(out2))
        assert out1.read_bytes() == out2.read_bytes(), (doc_name, command)
        json.loads(out1.read_text())  # well-formed
    _passed(9, f"{len(corpus)} command runs byte-identical across repeats")
