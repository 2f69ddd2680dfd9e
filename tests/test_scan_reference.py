"""Tile scans against the whole-grid scan they replaced.

``reference_scan_feasible`` is the previous ``optimize._scan_feasible``,
verbatim: it evaluated the whole grid (Box, on its axes) or all sorted
points (PointCloud) at once.  ``reference_global_min`` and
``reference_solve_rop_min`` are the two reductions that followed it, in
``global_min_compact`` and ``solve_rop``.  ``scan_min`` now selects every
outcome by one rule, ``tiles.Minima.selected``: a point cloud is one tile,
and so is a box of at most ``tiles.SCAN_BLOCK_NODES`` nodes, evaluated
whole.  It scans a larger box by tiles: it bounds coarse tiles,
evaluates the fine tile of least bound in the coarse tile of least bound,
drops every tile that the bound excludes against that value, and
evaluates the fine tiles left, stacked, keeping only each tile's strict
prefix minima.  With the tile sides and the cap patched small, so that a
scan of the test grids splits into many tiles, it must give the
reference's point and excluded count, or raise the same error, and eta
with the bits of the value at the reference argmin: ``solve_rop`` took
``values.min()``, whose zero sign depends on numpy's reduction order, and
now reports the first minimum's bits as ``global_min_compact`` does.
Generated objectives, with and without steps the bound refuses, check the
skipping at both tolerances; a signed zero tie across tiles checks that
eta is the first zero, not the first one evaluated; weak references to
what ``eval_grid`` returns check that a scan holds no earlier values; and
tracemalloc checks that a falling plateau, whose every node is within the
tolerance, keeps prefix minima and not values.  Every runner reads a
parameter and a degenerate axis as a float, so an int scans as its float
does.
"""

import struct
import tracemalloc
import weakref
from typing import Callable, Union

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt import exprlang, optimize, tiles
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
from scan_records import patch_everywhere, record_scans, scanned_grids, set_tiles
from test_solve_rop_reference import _outcome, _random_instance, reference_solve_rop

# (coarse side, fine side, numbers in one stacked array): the first tiles
# every test grid, and the other two tile the 41 x 41 grids and evaluate a
# 41-node line as one block
TILINGS = ((3, 1, 40), (6, 2, 120), (10, 4, 200))

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
    (outcome,) = optimize.scan_min(rf, [(omega, C_omega)], grid_m, tol)
    if isinstance(outcome, RandoptError):
        return type(outcome).__name__, str(outcome)
    point, eta, excluded = outcome
    assert type(eta) is float
    return point, _bits(eta), excluded


def assert_scans_match(monkeypatch, rf, omega, C_omega, grid_m, tilings=TILINGS):
    """scan_min with either tolerance, and global_min_compact, against the
    references, at each tiling; no node is evaluated twice, and every tile
    left out is excluded by the bound (``scanned_grids``)."""
    expected = {tol: _expected(rf, omega, C_omega, grid_m, tol) for tol in (0.0, EQUATION_TOL)}
    for tiling in tilings:
        with monkeypatch.context() as m:
            scans = record_scans(m, *tiling)
            for tol, want in expected.items():
                assert _got(rf, omega, C_omega, grid_m, tol) == want, (tiling, tol)
            if isinstance(expected[0.0][1], bytes):
                res = r.global_min_compact(rf, omega, C_omega, grid_m)
                assert (res.grid_x, _bits(res.grid_value), res.excluded) == expected[0.0]
            if isinstance(C_omega, Box) and len(C_omega.lower) == rf.n:
                scanned_grids(scans)
    return expected


@pytest.mark.parametrize("seed", range(40))
def test_block_scans_match_the_whole_grid_scan(monkeypatch, seed):
    # the instances of test_solve_rop_matches_reference: 41-node axes in
    # one or two dimensions, ties within EQUATION_TOL, excluded nodes
    rf, space, C, opts = _random_instance(seed)
    for atom in space.atoms:
        assert_scans_match(monkeypatch, rf, atom[0], C.descriptions[atom[0]], opts.grid_m)
    want = _outcome(lambda: reference_solve_rop(rf, space, C, opts))
    set_tiles(monkeypatch, *TILINGS[seed % len(TILINGS)])
    got = _outcome(lambda: r.solve_rop(rf, space, C, opts))
    if isinstance(want[0], str):
        assert got == want
    else:
        assert (dict(got.points), dict(got.certificates)) == want[:2]
        assert dict(got.diagnostics) == {"excluded_grid_points": want[2]}


def _one_scenario(text, n, k=0, p=()):
    space = r.make_space([1], [1.0], [[1]])
    return r.RandomFunction(space, n, r.parse(text, n, k), {1: tuple(p)})


LINE = Box((-2.0,), (2.0,))  # 41 nodes every 0.1: tiles of 5 nodes make 9
CLOUD = PointCloud(((1.0,), (0.5,), (-2.0,), (0.0,), (2.0,), (-1.0,)))


@pytest.mark.parametrize(
    "text, p, region, want",
    [
        # an exact tie split across tiles: the first node wins
        ("(x1^2 - 1)^2", (), LINE, ((-1.0,), 0.0)),
        # zeros of both signs split across tiles: the first one's sign
        ("p1*x1", (0.0,), LINE, ((-2.0,), -0.0)),
        ("p1*x1", (-0.0,), LINE, ((-2.0,), 0.0)),
        # the first tile within EQUATION_TOL comes before the argmin's
        ("(x1^2 - 1)^2 - 1e-12*x1", (), LINE, ((-1.0,), None)),
        # the nodes of x1 <= 0 are all excluded, one tile's partly
        ("(x1 - 1)^2 + 0*log(x1)", (), LINE, ((1.0,), 0.0)),
        # a degenerate leading axis
        ("x1 + (x2^2 - 1)^2", (), Box((0.5, -2.0), (0.5, 2.0)), ((0.5, -1.0), 0.5)),
        (
            "x1*x3 + (x2^2 - 1)^2",
            (),
            Box((0.5, -2.0, -1.0), (0.5, 2.0, 1.0)),
            ((0.5, -1.0, -1.0), -0.5),
        ),
        # a degenerate trailing axis, and a grid of one node
        ("(x1^2 - 1)^2 + x2", (), Box((-2.0, 3.0), (2.0, 3.0)), ((-1.0, 3.0), 3.0)),
        ("x1 + x2", (), Box((1.0, 2.0), (1.0, 2.0)), ((1.0, 2.0), 3.0)),
        # a point cloud is one tile, its nodes the sorted points
        ("(x1^2 - 1)^2", (), PointCloud(((2.0,), (1.0,), (-1.0,))), ((-1.0,), 0.0)),
        # zeros of both signs in a cloud listed out of order: the first
        # sorted point's sign
        ("p1*x1", (0.0,), CLOUD, ((-2.0,), -0.0)),
        ("p1*x1", (-0.0,), CLOUD, ((-2.0,), 0.0)),
        # the sorted point within EQUATION_TOL comes before the argmin
        ("(x1^2 - 1)^2 - 1e-12*x1", (), PointCloud(((1.0,), (0.0,), (-1.0,))), ((-1.0,), -1e-12)),
        # the points x1 <= 0 are excluded
        ("(x1 - 1)^2 + 0*log(x1)", (), CLOUD, ((1.0,), 0.0)),
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
    # at the default tiles, 401^2 nodes make 11^2 coarse tiles; the fine
    # tile of least bound holds (0.3, -0.2), and the bound excludes every
    # other tile against its least value
    rf = _one_scenario("(x1 - 0.3)^2 + (x2 + 0.2)^2", 2)
    box = Box((-1.0, -1.0), (1.0, 1.0))
    scans = record_scans(monkeypatch, tiles.COARSE_TILE, tiles.FINE_TILE, tiles.SCAN_BLOCK_NODES)
    ((point, eta, excluded),) = optimize.scan_min(rf, [(1, box)], 401, EQUATION_TOL)
    assert scanned_grids(scans) == [((401, 401), ())]
    assert scans[0].tiles == [((256, 264), (160, 168))] and scans[0].call.stacks == [1]
    assert len(scans[0].skipped) == 120 + 24  # the other coarse tiles, and fine tiles
    assert excluded == 0 and abs(eta) < 1e-12
    assert np.allclose(point, (0.3, -0.2), rtol=0.0, atol=1e-12)


def test_a_signed_zero_tie_across_blocks_gives_the_first_zero(monkeypatch):
    # tiles of 5 nodes make 9; the last one (x1 = 4, a +0) has the least
    # bound and is evaluated first, but x1 = -3 gives the first zero, a -0
    rf = _one_scenario("(x1*0)*(x1^2)^2", 1)
    region = Box((-3.0,), (4.0,))
    expected = assert_scans_match(monkeypatch, rf, 1, region, 41, tilings=[(5, 5, 4)])
    assert expected[0.0] == expected[EQUATION_TOL] == ((-3.0,), _bits(-0.0), 0)
    scans = record_scans(monkeypatch, 5, 5, 4)
    optimize.scan_min(rf, [(1, region)], 41, EQUATION_TOL)
    scanned_grids(scans)
    assert scans[0].call.tiles[0][0][0].tolist() == [4.0]
    assert len(scans[0].tiles) == 9


@pytest.mark.parametrize("text", ["0*x1 + 0*x2 + 1", "(x1^2 - 1)^2 + x2^2 + 0*sin(x1)"])
@pytest.mark.parametrize("tol", [0.0, EQUATION_TOL])
def test_a_scan_holds_at_most_two_earlier_blocks(monkeypatch, text, tol):
    # on the plateau every tile ties, so no bound excludes one; the double
    # well's sin leaves it without bounds; so every node is evaluated, in
    # stacks of at most 201 nodes, and none of the values of an earlier
    # stack is alive at the next
    set_tiles(monkeypatch, 40, 8, 201)
    original, refs, alive = exprlang.eval_grid, [], []

    def evaluating(e, axes, p=()):
        alive.append(sum(ref() is not None for ref in refs))
        values, valid = original(e, axes, p)
        refs.append(weakref.ref(values))
        assert values.size <= 201
        return values, valid

    patch_everywhere(monkeypatch, original, evaluating)
    rf = _one_scenario(text, 2)
    optimize.scan_min(rf, [(1, Box((-3.0, -3.0), (3.0, 3.0)))], 201, tol)
    assert len(alive) > 201 and max(alive) <= 1
    assert sum(ref().size for ref in refs if ref() is not None) <= 201


def test_a_scan_without_bounds_fills_each_stacked_call(monkeypatch):
    # sin leaves the objective without bounds, so each coarse tile of 3 x 3
    # nodes is one piece, evaluated with no bound run; a stacked call holds
    # up to 40 numbers, so pieces go four (or six of 3 x 2) to a call, not
    # one or two per chunk of coarse tiles sized for fine tiles
    scans = record_scans(monkeypatch, 3, 1, 40)
    rf = _one_scenario("(x1^2 - 1)^2 + x2^2 + 0*sin(x1)", 2)
    ((point, eta, _),) = optimize.scan_min(rf, [(1, Box((-2.0, -2.0), (2.0, 2.0)))], 41, 0.0)
    assert scanned_grids(scans) == [((41, 41), ())] and scans[0].evaluated == 41 * 41
    assert (point, eta) == ((-1.0, 0.0), 0.0)
    nodes = iter(len(x1) * len(x2) for (x1, x2), _ in scans[0].call.tiles)
    per_call = [sum(next(nodes) for _ in range(k)) for k in scans[0].call.stacks]
    assert max(per_call) <= 40 and len(per_call) == 60


def test_a_falling_plateau_keeps_prefix_minima_not_values():
    # every node of -1e-12*x1 + 0*x2 on [-3, 3]^2 is within 1e-9 of eta, so
    # no bound excludes a tile and all 2001^2 nodes are evaluated; the
    # values fall along x1, so the first node of each row of a tile is a
    # strict prefix minimum, and a scan that kept values would hold 32 MB
    rf = _one_scenario("-1e-12*x1 + 0*x2", 2)
    tracemalloc.start()
    try:
        ((point, eta, excluded),) = optimize.scan_min(
            rf, [(1, Box((-3.0, -3.0), (3.0, 3.0)))], 2001, 1e-9
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert point == (-3.0, -3.0) and excluded == 0
    assert _bits(eta) == _bits(r.eval_f(rf, 1, (3.0, -3.0)))
    assert peak < 2 << 20


# --- scans that skip the tiles a bound excludes --------------------------------------

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
    # a well per axis plus a term: bounds that exclude tiles
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
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 40)),
    st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-12])] * 2),
)
def test_skipping_scans_match_the_whole_grid_scan(root, box, grid_m, tiling, p):
    # the point, eta's bits, the excluded count and any error at tol 0 and
    # EQUATION_TOL; the tiles left out are those the bound excludes
    space = r.make_space([1], [1.0], [[1]])
    rf = r.RandomFunction(space, 2, Expression(root, 2, 2), {1: p})
    with np.errstate(over="ignore"):  # the reference's values - eta can overflow
        assert_scans_match(pytest.MonkeyPatch, rf, 1, box, grid_m, tilings=[tiling])


def _tiling(size):
    # tiles of ``size`` nodes, coarse and fine: a line's tiles are the runs
    # of ``size`` nodes, and a box of more than one node is tiled
    return size, size, max(1, size - 1)


def _tile_indices(scan, size):
    return [ranges[0][0] // size for ranges in scan.skipped]


@pytest.mark.parametrize(
    "text, region, grid_m, size, skipped",
    [
        # a pole on the node x1 = -1.5, in a tile far from the minimum at
        # x1 = 1: its bound is finite but proves no node, so it is evaluated
        ("(x1 - 1)^2 + 1/(x1 + 1.5)^2", LINE, 41, 5, [0, 2, 3, 4, 5, 7, 8]),
        # overflow at the nodes |x1| >= 1.4, in the first two and last three
        # tiles
        ("(1e154*x1)^2", LINE, 41, 5, [2, 3, 5]),
        # the node x1 = 1e-9 has the least bound and value, -1e-9; the tile
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
    expected = assert_scans_match(monkeypatch, rf, 1, region, grid_m, tilings=[_tiling(size)])
    scans = record_scans(monkeypatch, *_tiling(size))
    ((point, _, _),) = optimize.scan_min(rf, [(1, region)], grid_m, EQUATION_TOL)
    assert point == expected[EQUATION_TOL][0]
    scanned_grids(scans)
    assert _tile_indices(scans[0], size) == skipped


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
                scans = record_scans(m, *_tiling(5))
                ((point, eta, _),) = optimize.scan_min(rf, [(1, LINE)], 41, 0.0)
                scanned_grids(scans)
            assert eta == r.eval_f(rf, 1, point)
            run.append((expected, scans[0].tiles, _tile_indices(scans[0], 5)))
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


# --- batches of inputs ----------------------------------------------------------------


def test_a_batch_raises_the_first_inputs_error(monkeypatch):
    # scenario 1's box is the one node (0.3, 1), a pole of f, so its scan
    # fails at evaluation; scenario 2's grid of 11^2 nodes passes the cap of
    # 100, so its scan fails at set-up.  No probe of solve-rop's
    # measurability check lies on x1 = 0.3, so f is defined at all of them
    monkeypatch.setattr(optimize, "MAX_GRID_POINTS", 100)
    space = r.make_space([1, 2], [0.5, 0.5], [[1], [2]])
    rf = r.RandomFunction(space, 2, r.parse("1/(x1 - 0.3) + x2", 2), {1: (), 2: ()})
    C = r.RandomSet(space, {1: Box((0.3, 1.0), (0.3, 1.0)), 2: Box((0.0, 0.0), (2.0, 2.0))})
    outcomes = optimize.scan_min(rf, [(s, C.descriptions[s]) for s in (1, 2)], 11, 0.0)
    assert [(type(e).__name__, str(e)) for e in outcomes] == [
        ("DomainViolation", "objective undefined at every point of the set for scenario 1"),
        ("RandoptError", "grid of 121 points exceeds cap 100"),
    ]
    for solve in (
        lambda: r.optimal_value(rf, space, C, 11),
        lambda: r.solve_rop(rf, space, C, r.SolverOptions(grid_m=11)),
    ):
        with pytest.raises(DomainViolation, match="for scenario 1$"):
            solve()


@pytest.mark.parametrize("text", ["(x1 - p1)^2 + (x2 + p1)^2", "(x1 - p1)^2 + x2^2 + 0*sin(x1)"])
def test_a_mixed_batch_gives_each_input_what_a_batch_of_one_gives(monkeypatch, text):
    # with at most 41 nodes in one array, the 41-node boxes (one axis
    # degenerate) and the cloud are evaluated in full and the 41^2-node
    # boxes by tiles, all in one call
    set_tiles(monkeypatch, 5, 2, 41)
    space = r.make_space(list(range(1, 8)), [1 / 7] * 7, [[s] for s in range(1, 8)])
    params = {s: ((-1) ** s * s / 10,) for s in space.scenarios}
    rf = r.RandomFunction(space, 2, r.parse(text, 2, 1), params)
    square, line = Box((-1.0, -1.0), (1.0, 1.0)), Box((-1.0, 0.5), (1.0, 0.5))
    cloud = PointCloud(((0.5, 0.5), (-0.25, 0.0), (0.1, -0.1)))
    inputs = [(1, square), (2, line), (3, cloud), (4, square), (5, line), (6, LINE), (7, square)]
    for tol in (0.0, EQUATION_TOL):
        batch = optimize.scan_min(rf, inputs, 41, tol)
        alone = [optimize.scan_min(rf, [one], 41, tol)[0] for one in inputs]
        described = [(type(o).__name__, str(o)) if isinstance(o, Exception) else o for o in batch]
        assert described == [
            (type(o).__name__, str(o)) if isinstance(o, Exception) else o for o in alone
        ]
        assert [type(o) for o in batch] == [tuple] * 5 + [IncompatibleRepresentation, tuple]
        for (omega, C), got in zip(inputs, batch):
            if not isinstance(got, Exception):
                assert (got[0], _bits(got[1]), got[2]) == _expected(rf, omega, C, 41, tol)
