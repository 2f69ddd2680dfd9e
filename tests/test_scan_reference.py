"""Block scans against the whole-grid scan they replaced.

``reference_scan_feasible`` is the previous ``optimize._scan_feasible``,
verbatim: it evaluated the whole grid (Box, on its axes) or all sorted
points (PointCloud) at once.  ``reference_global_min`` and
``reference_solve_rop_min`` are the two reductions that followed it, in
``global_min_compact`` and ``solve_rop``.  ``scan_min`` now evaluates
blocks of at most ``SCAN_BLOCK_NODES`` nodes, skips the blocks that an
interval bound excludes (the block of the least bound first, the others
in order), and keeps a block's values, by the index of its first node,
only while the block can hold the point or eta.  With the block size
patched small, so that a scan of the test grids splits into many blocks,
it must give the reference's point and excluded count, or raise the same
error, and eta with the bits of the value at the reference argmin:
``solve_rop`` took ``values.min()``, whose zero sign depends on numpy's
reduction order, and now reports the first minimum's bits as
``global_min_compact`` does.  Generated objectives, with and without
steps the bound refuses, check the skipping at both tolerances; a signed
zero tie across blocks checks that eta is the first zero, not the first
one evaluated; and weak references to what ``eval_grid`` returns check
that a scan holds at most two earlier blocks.  Every runner reads a
parameter and a degenerate axis as a float, so an int scans as its float
does.
"""

import struct
import weakref
from typing import Callable, Union

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt import exprlang, optimize
from randopt.errors import DomainViolation, IncompatibleRepresentation, RandoptError
from randopt.exprlang import (
    Add,
    Call,
    Div,
    Expression,
    Mul,
    Neg,
    Num,
    Param,
    Pow,
    Sub,
    Var,
    eval_grid,
)
from randopt.optimize import GlobalMinResult, grid_axes
from randopt.probspace import Point, Scenario
from randopt.randfunc import Box, PointCloud, RandomFunction, eval_f_batch
from randopt.selection import EQUATION_TOL
from scan_records import patch_everywhere, record_scans, scanned_grids
from test_solve_rop_reference import _outcome, _random_instance, reference_solve_rop

BLOCK_SIZES = (1, 5, 100)

# --- the previous scan and its two reductions ----------------------------------------


def reference_scan_feasible(
    rf: RandomFunction,
    omega: Scenario,
    C_omega: Union[Box, PointCloud],
    grid_m: int,
) -> tuple[Callable[[int], Point], np.ndarray, int]:
    """Evaluate f(omega, .) once on the grid (Box, on its axes) or the
    sorted points (PointCloud) of ``C_omega``.

    Returns (point, values, excluded): the function giving the point of
    index i in lexicographic order, the objective values in that order
    with +inf where evaluation failed, and the number of such points.
    """
    if not isinstance(C_omega, (Box, PointCloud)):
        raise IncompatibleRepresentation(
            f"grid minimization needs a Box or PointCloud, got {type(C_omega).__name__}"
        )
    if C_omega.dim != rf.n:
        raise IncompatibleRepresentation("set dimension differs from function")
    if isinstance(C_omega, Box):
        axes = grid_axes(C_omega, grid_m)
        values, valid = eval_grid(rf.body, axes, rf.params_of(omega))
        shape = [len(a) for a in axes]

        def point(i: int) -> Point:
            return tuple(float(a[j]) for a, j in zip(axes, np.unravel_index(i, shape)))
    else:
        X = np.asarray(sorted(C_omega.points), dtype=float)
        values, valid = eval_f_batch(rf, omega, X)

        def point(i: int) -> Point:
            return tuple(float(v) for v in X[i])
    excluded = int(np.count_nonzero(~valid))
    if excluded == len(values):
        raise DomainViolation(
            f"objective undefined at every point of the set for scenario {omega!r}"
        )
    return point, np.where(valid, values, np.inf), excluded


def reference_global_min(rf, omega, C_omega, grid_m) -> GlobalMinResult:
    point, values, excluded = reference_scan_feasible(rf, omega, C_omega, grid_m)
    idx = int(np.argmin(values))  # first occurrence = lexicographically smallest
    return GlobalMinResult(point(idx), float(values[idx]), excluded)


def reference_solve_rop_min(rf, omega, C_omega, grid_m) -> tuple[Point, float, int]:
    point, values, excluded = reference_scan_feasible(rf, omega, C_omega, grid_m)
    eta = float(values.min())
    idx = int(np.flatnonzero(np.abs(values - eta) <= EQUATION_TOL)[0])
    return point(idx), eta, excluded


# --- comparisons -------------------------------------------------------------------


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _expected(rf, omega, C_omega, grid_m, tol):
    """What ``scan_min`` must return: the reference point and excluded
    count of the reduction with this tolerance, and eta with the bits of
    the value at the reference argmin."""
    try:
        least = reference_global_min(rf, omega, C_omega, grid_m)
        if tol == 0.0:
            return least.grid_x, _bits(least.grid_value), least.excluded
        point, eta, excluded = reference_solve_rop_min(rf, omega, C_omega, grid_m)
    except RandoptError as e:
        return type(e).__name__, str(e)
    assert eta == least.grid_value and excluded == least.excluded
    return point, _bits(least.grid_value), excluded


def _got(rf, omega, C_omega, grid_m, tol):
    try:
        point, eta, excluded = optimize.scan_min(rf, omega, C_omega, grid_m, tol)
    except RandoptError as e:
        return type(e).__name__, str(e)
    assert type(eta) is float
    return point, _bits(eta), excluded


def assert_scans_match(monkeypatch, rf, omega, C_omega, grid_m, sizes=BLOCK_SIZES):
    """scan_min with either tolerance, and global_min_compact, against the
    references, at each block size; no node is evaluated twice, and every
    block left out is excluded by the bound (``scanned_grids``)."""
    expected = {tol: _expected(rf, omega, C_omega, grid_m, tol) for tol in (0.0, EQUATION_TOL)}
    for size in sizes:
        with monkeypatch.context() as m:
            scans = record_scans(m, size)
            for tol, want in expected.items():
                assert _got(rf, omega, C_omega, grid_m, tol) == want, (size, tol)
            if isinstance(expected[0.0][1], bytes):
                res = r.global_min_compact(rf, omega, C_omega, grid_m)
                assert (res.grid_x, _bits(res.grid_value), res.excluded) == expected[0.0]
            if isinstance(C_omega, Box) and len(C_omega.lower) == rf.n:
                scanned_grids(scans, size)
    return expected


@pytest.mark.parametrize("seed", range(40))
def test_block_scans_match_the_whole_grid_scan(monkeypatch, seed):
    # the instances of test_solve_rop_matches_reference: 41-node axes in
    # one or two dimensions, ties within EQUATION_TOL, excluded nodes
    rf, space, C, opts = _random_instance(seed)
    for atom in space.atoms:
        assert_scans_match(monkeypatch, rf, atom[0], C.descriptions[atom[0]], opts.grid_m)
    want = _outcome(lambda: reference_solve_rop(rf, space, C, opts))
    monkeypatch.setattr(optimize, "SCAN_BLOCK_NODES", BLOCK_SIZES[seed % len(BLOCK_SIZES)])
    got = _outcome(lambda: r.solve_rop(rf, space, C, opts))
    if isinstance(want[0], str):
        assert got == want
    else:
        assert (dict(got.points), dict(got.certificates)) == want[:2]
        assert dict(got.diagnostics) == {"excluded_grid_points": want[2]}


def _one_scenario(text, n, k=0, p=()):
    space = r.make_space([1], [1.0], [[1]])
    return r.RandomFunction(space, n, r.parse(text, n, k), {1: tuple(p)})


LINE = Box((-2.0,), (2.0,))  # 41 nodes every 0.1: blocks of 5 nodes make 9


@pytest.mark.parametrize(
    "text, p, region, want",
    [
        # an exact tie split across blocks: the first node wins
        ("(x1^2 - 1)^2", (), LINE, ((-1.0,), 0.0)),
        # zeros of both signs split across blocks: the first one's sign
        ("p1*x1", (0.0,), LINE, ((-2.0,), -0.0)),
        ("p1*x1", (-0.0,), LINE, ((-2.0,), 0.0)),
        # the first block within EQUATION_TOL comes before the argmin's
        ("(x1^2 - 1)^2 - 1e-12*x1", (), LINE, ((-1.0,), None)),
        # the blocks of x1 < 0 are all excluded, one block partly
        ("(x1 - 1)^2 + 0*log(x1)", (), LINE, ((1.0,), 0.0)),
        # a degenerate leading axis: the scan splits along x2
        ("x1 + (x2^2 - 1)^2", (), Box((0.5, -2.0), (0.5, 2.0)), ((0.5, -1.0), 0.5)),
        (
            "x1*x3 + (x2^2 - 1)^2",
            (),
            Box((0.5, -2.0, -1.0), (0.5, 2.0, 1.0)),
            ((0.5, -1.0, -1.0), -0.5),
        ),
        # a degenerate axis after the split axis, and a grid of one node
        ("(x1^2 - 1)^2 + x2", (), Box((-2.0, 3.0), (2.0, 3.0)), ((-1.0, 3.0), 3.0)),
        ("x1 + x2", (), Box((1.0, 2.0), (1.0, 2.0)), ((1.0, 2.0), 3.0)),
        # a point cloud is one block
        ("(x1^2 - 1)^2", (), PointCloud(((2.0,), (1.0,), (-1.0,))), ((-1.0,), 0.0)),
    ],
)
def test_fixed_scans_match_the_whole_grid_scan(monkeypatch, text, p, region, want):
    rf = _one_scenario(text, region.dim, len(p), p)
    expected = assert_scans_match(monkeypatch, rf, 1, region, 41)
    point, eta = want
    assert expected[EQUATION_TOL][0] == point
    if eta is not None:
        assert expected[EQUATION_TOL][1] == _bits(eta)


def test_the_argmin_after_a_point_within_tolerance_gives_eta(monkeypatch):
    rf = _one_scenario("(x1^2 - 1)^2 - 1e-12*x1", 1)
    expected = assert_scans_match(monkeypatch, rf, 1, LINE, 41)
    assert expected[0.0][0] == (1.0,) and expected[EQUATION_TOL][0] == (-1.0,)


@pytest.mark.parametrize(
    "region", [Box((-2.0,), (-1.0,)), Box((0.5, -2.0), (0.5, -1.0)), PointCloud(((-1.0,),))]
)
def test_a_set_excluded_everywhere_raises_as_before(monkeypatch, region):
    rf = _one_scenario("log(x2)" if region.dim == 2 else "log(x1)", region.dim)
    expected = assert_scans_match(monkeypatch, rf, 1, region, 41)
    assert expected[0.0] == (
        "DomainViolation",
        "objective undefined at every point of the set for scenario 1",
    )


def test_a_set_of_another_kind_or_dimension_raises_as_before(monkeypatch):
    rf = _one_scenario("x1", 1)
    for region in (Box((0.0, 0.0), (1.0, 1.0)), r.LevelSet((r.parse("x1", 1),), (), LINE)):
        expected = assert_scans_match(monkeypatch, rf, 1, region, 41)
        assert expected[0.0][0] == "IncompatibleRepresentation"


def test_a_scan_builds_no_grid_sized_array(monkeypatch):
    # at the default block size, 401^2 nodes make 11 blocks of 38 slabs or
    # fewer; the bound leaves one to evaluate, the one holding (0.3, -0.2)
    rf = _one_scenario("(x1 - 0.3)^2 + (x2 + 0.2)^2", 2)
    box = Box((-1.0, -1.0), (1.0, 1.0))
    scans = record_scans(monkeypatch, optimize.SCAN_BLOCK_NODES)
    point, eta, excluded = optimize.scan_min(rf, 1, box, 401, EQUATION_TOL)
    assert scanned_grids(scans, optimize.SCAN_BLOCK_NODES) == [((401, 401), ())]
    assert [tuple(map(len, axes)) for axes, _ in scans[0].blocks] == [(38, 401)]
    assert scans[0].skipped == [0, 1, 2, 3, 4, 5, 7, 8, 9, 10]
    assert excluded == 0 and abs(eta) < 1e-12
    assert np.allclose(point, (0.3, -0.2), rtol=0.0, atol=1e-12)


def test_a_signed_zero_tie_across_blocks_gives_the_first_zero(monkeypatch):
    # blocks of 5 nodes make 9; the last one (x1 = 4, a +0) has the least
    # bound and is evaluated first, but x1 = -3 gives the first zero, a -0
    rf = _one_scenario("(x1*0)*(x1^2)^2", 1)
    region = Box((-3.0,), (4.0,))
    expected = assert_scans_match(monkeypatch, rf, 1, region, 41, sizes=(5,))
    assert expected[0.0] == expected[EQUATION_TOL] == ((-3.0,), _bits(-0.0), 0)
    scans = record_scans(monkeypatch, 5)
    optimize.scan_min(rf, 1, region, 41, EQUATION_TOL)
    assert [axes[0].tolist() for axes, _ in scans[0].blocks][0] == [4.0]
    assert len(scans[0].blocks) == 9


@pytest.mark.parametrize("text", ["0*x1 + 0*x2 + 1", "(x1^2 - 1)^2 + x2^2 + 0*sin(x1)"])
@pytest.mark.parametrize("tol", [0.0, EQUATION_TOL])
def test_a_scan_holds_at_most_two_earlier_blocks(monkeypatch, text, tol):
    # on the plateau every block ties, and the first one holds the point
    # and eta; the double well's sin leaves it without bounds, so each of
    # the 201 blocks is evaluated
    monkeypatch.setattr(optimize, "SCAN_BLOCK_NODES", 201)
    original, refs, alive = exprlang.eval_grid, [], []

    def evaluating(e, axes, p=()):
        alive.append(sum(ref() is not None for ref in refs))
        values, valid = original(e, axes, p)
        refs.append(weakref.ref(values))
        return values, valid

    patch_everywhere(monkeypatch, original, evaluating)
    rf = _one_scenario(text, 2)
    optimize.scan_min(rf, 1, Box((-3.0, -3.0), (3.0, 3.0)), 201, tol)
    assert len(alive) == 201 and max(alive) <= 2


# --- scans that skip the blocks a bound excludes -------------------------------------

# dyadic ends, so that many nodes, poles and ties are exact
_ENDS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
_NUMBERS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-12, 1e154]


def _grow(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(lambda c: Pow(c, 2), children),
    )


_leaves = st.one_of(
    st.builds(Num, st.sampled_from(_NUMBERS)),
    st.builds(Param, st.integers(1, 2)),
    st.builds(Var, st.integers(1, 2)),
)
_centers = st.one_of(st.builds(Num, st.sampled_from(_ENDS)), st.builds(Param, st.integers(1, 2)))
_terms = st.one_of(
    _leaves,
    st.recursive(_leaves, _grow, max_leaves=3),
    # a pole wherever x_i equals the center, at a node or between nodes
    st.builds(lambda i, c: Div(Num(1.0), Pow(Sub(Var(i), c), 2)), st.integers(1, 2), _centers),
)
_bounded = st.one_of(
    st.recursive(_leaves, _grow, max_leaves=8),
    # a well per axis plus a term: bounds that exclude blocks
    st.builds(
        lambda a, b, t: Add(Add(Pow(Sub(Var(1), a), 2), Pow(Sub(Var(2), b), 2)), t),
        _centers,
        _centers,
        _terms,
    ),
)
# an exp, log or sin somewhere leaves the scan without bounds
_objectives = st.one_of(
    _bounded,
    _bounded,
    st.builds(
        lambda f, g, h: Add(f, Call(h, g)), _bounded, _terms, st.sampled_from(["exp", "log", "sin"])
    ),
)


@st.composite
def _boxes(draw):
    """A box of 2 axes, each degenerate one time in four."""
    lower, upper = [], []
    for _ in range(2):
        lo, hi = sorted((draw(st.sampled_from(_ENDS)), draw(st.sampled_from(_ENDS))))
        lower.append(lo)
        upper.append(lo if draw(st.integers(0, 3)) == 0 else hi)
    return Box(tuple(lower), tuple(upper))


@settings(max_examples=200, deadline=None)
@given(
    _objectives,
    _boxes(),
    st.integers(2, 13),
    st.integers(1, 8),
    st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-12])] * 2),
)
def test_skipping_scans_match_the_whole_grid_scan(root, box, grid_m, size, p):
    # the point, eta's bits, the excluded count and any error at tol 0 and
    # EQUATION_TOL; the blocks left out are those the bound excludes
    space = r.make_space([1], [1.0], [[1]])
    rf = r.RandomFunction(space, 2, Expression(root, 2, 2), {1: p})
    with np.errstate(over="ignore"):  # the reference's values - eta can overflow
        assert_scans_match(pytest.MonkeyPatch, rf, 1, box, grid_m, sizes=(size,))


@pytest.mark.parametrize(
    "text, region, grid_m, size, skipped",
    [
        # a pole on the node x1 = -1.5, in a block far from the minimum at
        # x1 = 1: its bound is finite but proves no node, so it is evaluated
        ("(x1 - 1)^2 + 1/(x1 + 1.5)^2", LINE, 41, 5, [0, 2, 3, 4, 5, 7, 8]),
        # overflow at the nodes |x1| >= 1.4, in the first two and last three
        # blocks
        ("(1e154*x1)^2", LINE, 41, 5, [2, 3, 5]),
        # the node x1 = 1e-9 has the least bound and value, -1e-9; the block
        # of x1 = 0 has bound - eta equal to EQUATION_TOL, so it is evaluated
        # and holds the point
        ("-x1", Box((0.0,), (1e-9,)), 2, 1, []),
        # zeros of both signs: every bound is below eta
        ("p1*x1", LINE, 41, 5, []),
    ],
)
def test_a_block_is_skipped_only_where_its_bound_excludes_it(
    monkeypatch, text, region, grid_m, size, skipped
):
    rf = _one_scenario(text, 1, 1, (0.0,))
    expected = assert_scans_match(monkeypatch, rf, 1, region, grid_m, sizes=(size,))
    scans = record_scans(monkeypatch, size)
    assert optimize.scan_min(rf, 1, region, grid_m, EQUATION_TOL)[0] == expected[EQUATION_TOL][0]
    scanned_grids(scans, size)
    assert scans[0].skipped == skipped


def test_an_int_parameter_scans_as_its_float_does(monkeypatch):
    # every runner reads a parameter as a float, as eval_f does: in int64,
    # p1 + p1 would wrap to 2^63 - 2 at p1 = -2^62 - 1, and twice that to -4
    cases = [("(p1 + p1) + (p1 + p1) + (x1 - 1)^2", -(2**62) - 1), ("(x1 - p1)^2 + p1 + p1", 1)]
    runs = []
    for text, p in cases:
        run = []
        for q in (p, float(p)):
            rf = _one_scenario(text, 1, 1, (q,))
            expected = assert_scans_match(monkeypatch, rf, 1, LINE, 41)
            with monkeypatch.context() as m:
                scans = record_scans(m, 5)
                point, eta, _ = optimize.scan_min(rf, 1, LINE, 41, 0.0)
                scanned_grids(scans, 5)
            assert eta == r.eval_f(rf, 1, point)
            blocks = [tuple(map(len, axes)) for axes, _ in scans[0].blocks]
            run.append((expected, blocks, scans[0].skipped))
        assert run[0] == run[1]
        runs.append(run[0])
    (wrapping, _, every), (_, _, skipped) = runs
    # 4 * p1 absorbs the well, so every node ties and the first one wins
    assert wrapping[0.0] == ((-2.0,), _bits(-4.0 * (2**62 + 1)), 0)
    assert every == [] and skipped == [0, 1, 2, 3, 4, 5, 7, 8]


def test_a_degenerate_int_axis_is_read_as_a_float():
    # an int axis of int64 nodes would make x1 + x1 wrap to -2^63; 2^63
    # absorbs x2^2, so every node ties and the first one wins
    rf = _one_scenario("x1 + x1 + x2^2", 2)
    res = r.global_min_compact(rf, 1, Box((2**62, -1.0), (2**62, 1.0)), 41)
    assert res.grid_x == (2.0**62, -1.0)
    assert res.grid_value == r.eval_f(rf, 1, res.grid_x) == 2.0**63
