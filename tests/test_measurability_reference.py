"""The within-atom measurability checks against the earlier pairwise scans.

``reference_*`` below are the previous implementations: each compared
every pair of scenarios inside an atom and evaluated f once per scenario.
The current checks compare each scenario with its atom's representative
at tolerance 0 (``is_measurable_rv`` keeps the pairwise scan at tolerance
> 0), and evaluate f once per distinct parameter vector, every vector's
probes in one stack of rows; the reference evaluates each scenario's
probes in a call of their own.  The inputs are
finite, as every constructor requires.  On them the checks must return the
same verdict and the same witness, bit for bit, or raise the same error.
``_hausdorff`` is the previous scalar Hausdorff loop: the distance of point
clouds as arrays, in blocks, must have its bits, also where scenarios
share one object, which the checks no longer compare.
"""

import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt import exprlang, randfunc
from numeric_helpers import eval_each_row

# --- the previous pairwise scans ----------------------------------------------


def _sup_dist(a, b):
    return max(abs(u - v) for u, v in zip(a, b))


def reference_is_measurable_rv(space, xi, tol=0.0):
    for atom in space.atoms:
        for i, wa in enumerate(atom):
            for wb in atom[i + 1 :]:
                gap = _sup_dist(xi.values[wa], xi.values[wb])
                if gap > tol:
                    return r.MeasurabilityVerdict(
                        False,
                        r.Witness(
                            atom, wa, wb, gap,
                            value_a=xi.values[wa], value_b=xi.values[wb],
                        ),
                    )
    return r.MeasurabilityVerdict(True)


def reference_is_measurable_setmap(space, C):
    for atom in space.atoms:
        for i, wa in enumerate(atom):
            for wb in atom[i + 1 :]:
                da, db = C.descriptions[wa], C.descriptions[wb]
                gap = da.distance(db)
                if gap > 0.0:
                    return r.MeasurabilityVerdict(
                        False, r.Witness(atom, wa, wb, gap, value_a=da, value_b=db)
                    )
    return r.MeasurabilityVerdict(True)


def reference_check_joint_measurability(rf, probe_grid):
    X = np.asarray([tuple(p) for p in probe_grid], dtype=float)
    values = {}
    for omega in rf.space.scenarios:
        vals, valid = eval_each_row(rf.body, X, rf.params_of(omega))
        if not valid.all():
            bad = int(np.flatnonzero(~valid)[0])
            raise r.DomainViolation(
                f"objective undefined at probe {tuple(float(v) for v in X[bad])} "
                f"in scenario {omega!r}"
            )
        values[omega] = vals
    for atom in rf.space.atoms:
        for i, wa in enumerate(atom):
            for wb in atom[i + 1 :]:
                diff = values[wa] != values[wb]
                if diff.any():
                    idx = int(np.flatnonzero(diff)[0])
                    return r.MeasurabilityVerdict(
                        False,
                        r.Witness(
                            atom, wa, wb,
                            gap=abs(float(values[wa][idx] - values[wb][idx])),
                            probe=tuple(float(v) for v in X[idx]),
                            value_a=float(values[wa][idx]),
                            value_b=float(values[wb][idx]),
                        ),
                    )
    return r.MeasurabilityVerdict(True)


# --- comparison ----------------------------------------------------------------


def _bits(x):
    return struct.pack("<d", x)


def _same_number(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return _bits(a) == _bits(b)
    return a == b


def _same_value(a, b):
    """Equal objects; floats, also inside tuples, must agree in every bit."""
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same_value(u, v) for u, v in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return _same_number(a, b)
    return a is b or a == b


def assert_same_verdict(new, old):
    assert new.measurable == old.measurable
    if old.witness is None:
        assert new.witness is None
        return
    w, ref = new.witness, old.witness
    assert w.atom == ref.atom
    assert (w.scenario_a, w.scenario_b) == (ref.scenario_a, ref.scenario_b)
    assert _bits(w.gap) == _bits(ref.gap)
    assert _same_value(w.probe, ref.probe)
    assert _same_value(w.value_a, ref.value_a)
    assert _same_value(w.value_b, ref.value_b)


def assert_same_outcome(check, reference, *args):
    try:
        old = reference(*args)
    except r.RandoptError as e:
        with pytest.raises(type(e)) as caught:
            check(*args)
        assert str(caught.value) == str(e)
        return
    assert_same_verdict(check(*args), old)


# --- strategies --------------------------------------------------------------------

# duplicates, signed zeros, pairs 1e-9 apart, and pairs whose gap overflows
FINITE = [0.0, -0.0, 1.0, 1.0 + 1e-10, 1.0 + 2e-9, 1e-9, 2.0, -3.5, 1e308, -1e308]
number = st.one_of(st.sampled_from(FINITE), st.floats(-4.0, 4.0))
overflowing = st.sampled_from([1e308, -1e308, 0.0, -0.0])
tolerance = st.sampled_from([0.0, 1e-9])


@st.composite
def spaces(draw, max_scenarios=8):
    """A random partition of 1..max_scenarios ids, listed in a random order."""
    n = draw(st.integers(1, max_scenarios))
    ids = draw(st.permutations(list(range(1, n + 1))))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    blocks = {}
    for s, label in zip(range(1, n + 1), labels):
        blocks.setdefault(label, []).append(s)
    return r.make_space(ids, [1.0 / n] * n, list(blocks.values()))


@st.composite
def random_variables(draw, numbers):
    space = draw(spaces())
    dim = draw(st.integers(1, 2))
    # few palette entries give equal values within atoms
    palette = draw(st.lists(st.tuples(*[numbers] * dim), min_size=1, max_size=3))
    values = {s: draw(st.sampled_from(palette)) for s in space.scenarios}
    return space, r.RandomVariableRn(space, values)


LEVEL_SET_CONSTRAINTS = ["x1 - p1", "x1^2 + x2 - p1*p2", "sin(x2) - p2"]


@st.composite
def descriptions(draw, dim, kinds):
    """One set description of ``dim``; kinds restrict the description kind."""
    kind = draw(st.sampled_from(kinds))
    if kind == "box":
        bound = st.sampled_from([0.0, -0.0, 1.0, 1e-9, 2.0, -1e308, 1e308])
        corners = [sorted(draw(st.tuples(bound, bound))) for _ in range(dim)]
        return r.Box(tuple(c[0] for c in corners), tuple(c[1] for c in corners))
    if kind == "cloud":
        points = draw(st.lists(st.tuples(*[number] * dim), min_size=1, max_size=3))
        return r.PointCloud(tuple(points))
    texts = draw(st.lists(st.sampled_from(LEVEL_SET_CONSTRAINTS), min_size=1, max_size=2))
    constraints = tuple(r.parse(t, 2, 2) for t in texts)
    box = r.Box((-1.0, -1.0), (draw(number) % 2.0 + 1.0, 1.0))
    return r.LevelSet(constraints, draw(st.tuples(number, number)), box)


def _variant(draw, desc):
    """An equal description: a point cloud permuted and with duplicates."""
    if isinstance(desc, r.PointCloud):
        points = list(draw(st.permutations(desc.points)))
        points += draw(st.lists(st.sampled_from(desc.points), max_size=2))
        return r.PointCloud(tuple(points))
    return desc


@st.composite
def random_sets(draw, kinds):
    space = draw(spaces())
    dim = 2 if "level" in kinds else draw(st.integers(1, 2))
    palette = draw(st.lists(descriptions(dim, kinds), min_size=1, max_size=3))
    descs = {s: _variant(draw, draw(st.sampled_from(palette))) for s in space.scenarios}
    return space, r.RandomSet(space, descs)


# the last two take the same values under vectors that differ in p1, so a
# kernel whose bits depend on a row's place in a stack gives a false witness
OBJECTIVES = [
    "x1*p1 + p2",
    "x1^2 - p1*x1",
    "log(x1 - p1) + p2",
    "1/(x1 - p1)",
    "exp(x1) + 0*p1 + p2",
    "sin(x1 + 0*p1)*p2",
]


@st.composite
def random_functions(draw):
    space = draw(spaces())
    text = draw(st.sampled_from(OBJECTIVES))
    # shared vectors, -0.0 against 0.0, and values undefined on the probes
    pool = st.sampled_from([0.0, -0.0, 1.0, 0.25, -2.5, 1.5, 2.0])
    palette = draw(st.lists(st.tuples(pool, pool), min_size=1, max_size=4))
    params = {s: draw(st.sampled_from(palette)) for s in space.scenarios}
    rf = r.RandomFunction(space, 1, r.parse(text, 1, 2), params)
    probes = [(-1.0,), (0.5,), (1.5,), (3.0,)]
    return rf, probes


# --- differential properties -----------------------------------------------------


@pytest.mark.parametrize("numbers", [number, overflowing], ids=["random", "overflow"])
@settings(max_examples=300, deadline=None)
@given(data=st.data(), tol=tolerance)
def test_rv_matches_pairwise_scan(numbers, data, tol):
    space, xi = data.draw(random_variables(numbers))
    assert_same_outcome(r.is_measurable_rv, reference_is_measurable_rv, space, xi, tol)


@pytest.mark.parametrize(
    "kinds",
    [["box"], ["cloud"], ["level"], ["cloud", "box"], ["box", "cloud", "level"]],
    ids=["box", "cloud", "level", "cloud-box", "mixed"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_setmap_matches_pairwise_scan(kinds, data):
    space, C = data.draw(random_sets(kinds))
    assert_same_outcome(r.is_measurable_setmap, reference_is_measurable_setmap, space, C)


@settings(max_examples=300, deadline=None)
@given(random_functions())
def test_joint_matches_pairwise_scan(case):
    rf, probes = case
    assert_same_outcome(
        r.check_joint_measurability, reference_check_joint_measurability, rf, probes
    )


# --- cases the properties must reach --------------------------------------------


def _one_atom(n):
    return r.make_space(list(range(1, n + 1)), [1.0 / n] * n, [list(range(1, n + 1))])


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "overflow"]
)
@pytest.mark.parametrize(
    "build,error",
    [
        (lambda v: r.Box((0.0, v), (1.0, 1.0)), r.IncompatibleRepresentation),
        (lambda v: r.PointCloud(((0.0,), (v,))), r.IncompatibleRepresentation),
        (
            lambda v: r.LevelSet((r.parse("x1 - p1", 1, 1),), (v,), r.Box((0.0,), (1.0,))),
            r.IncompatibleRepresentation,
        ),
        (lambda v: r.RandomVariableRn(_one_atom(2), {1: (0.0,), 2: (v,)}), r.DomainMismatch),
        (lambda v: r.make_space([1, 2], [v, v], [[1, 2]]), r.WeightSumError),
        (
            lambda v: r.RandomFunction(
                _one_atom(2), 1, r.parse("x1 - p1", 1, 1), {1: (0.0,), 2: (v,)}
            ),
            r.DomainMismatch,
        ),
    ],
    ids=["Box", "PointCloud", "LevelSet", "RandomVariableRn", "make_space", "RandomFunction"],
)
def test_non_finite_numbers_are_rejected(build, error, value):
    # a NaN gap never exceeds a tolerance, and zero gap stops being
    # transitive, so no space, variable or set may hold one
    with pytest.raises(error, match="is not finite"):
        build(value)


def test_representative_names_the_first_failing_pair():
    space = _one_atom(4)
    xi = r.RandomVariableRn(space, {1: (1.0,), 2: (1.0,), 3: (2.0,), 4: (2.0,)})
    v = r.is_measurable_rv(space, xi)
    assert (v.witness.scenario_a, v.witness.scenario_b) == (1, 3)
    assert_same_verdict(v, reference_is_measurable_rv(space, xi))


def test_within_tolerance_accepts_and_beyond_it_names_the_first_pair():
    space = _one_atom(3)
    inside = r.RandomVariableRn(space, {1: (0.0,), 2: (1e-9,), 3: (5e-10,)})
    assert r.is_measurable_rv(space, inside, tol=1e-9).measurable
    beyond = r.RandomVariableRn(space, {1: (0.0,), 2: (1e-9,), 3: (2e-9,)})
    v = r.is_measurable_rv(space, beyond, tol=1e-9)
    assert (v.witness.scenario_a, v.witness.scenario_b) == (1, 3)
    assert_same_verdict(v, reference_is_measurable_rv(space, beyond, 1e-9))


def test_undefined_probe_in_a_later_scenario_raises_the_same_error():
    space = r.make_space([3, 1, 2], [0.25, 0.25, 0.5], [[1, 2], [3]])
    rf = r.RandomFunction(
        space, 1, r.parse("log(x1 - p1)", 1, 1), {3: (-2.0,), 1: (-2.0,), 2: (0.0,)}
    )
    with pytest.raises(r.DomainViolation) as exc:
        r.check_joint_measurability(rf, [(-1.0,), (0.5,)])
    assert str(exc.value) == "objective undefined at probe (-1.0,) in scenario 2"


@pytest.mark.parametrize(
    "probes,message",
    [([(0.5, 1.0)], "X must have shape (N, 1)"), ([()], "X must have shape (N, 1)"),
     ([(0.5,), (0.5, 1.0)], None)],  # numpy words a ragged grid itself
    ids=["long", "empty", "ragged"],
)
def test_probes_of_the_wrong_length_raise_a_value_error(probes, message):
    space = _one_atom(2)
    rf = r.RandomFunction(space, 1, r.parse("x1*p1", 1, 1), {1: (1.0,), 2: (2.0,)})
    with pytest.raises(ValueError, match=message and re.escape(message)):
        r.check_joint_measurability(rf, probes)


def test_parameter_vectors_are_shared_between_equal_floats(monkeypatch):
    # True and 1.0 have the same float bytes, and every evaluator reads a
    # parameter as a float, so f(., x) = p1 + p1 is 2.0 in both scenarios,
    # evaluated once: one stack of one row, with scenario 1's vector
    space = _one_atom(2)
    rf = r.RandomFunction(space, 1, r.parse("p1 + p1", 1, 1), {1: (True,), 2: (1.0,)})
    calls = []
    original = exprlang.eval_rows
    monkeypatch.setattr(
        exprlang, "eval_rows", lambda c, X, P: calls.append(P.tolist()) or original(c, X, P)
    )
    v = r.check_joint_measurability(rf, [(0.0,)])
    assert v.measurable and calls == [[[1.0]]]
    assert r.eval_f(rf, 1, (0.0,)) == r.eval_f(rf, 2, (0.0,)) == 2.0
    assert_same_verdict(v, reference_check_joint_measurability(rf, [(0.0,)]))


@pytest.mark.parametrize(
    "probes,probe",
    [([(-1.0,), (0.5,), (3.0,)], (0.5,)), ([(3.0,), (-1.0,), (0.5,)], (3.0,))],
    ids=["agree-first", "differ-first"],
)
def test_joint_witness_is_the_first_probe_where_the_pair_differs(probes, probe):
    # x1*p1 + p2 is 1.0 at x1 = -1 for both vectors and differs elsewhere
    space = _one_atom(2)
    rf = r.RandomFunction(
        space, 1, r.parse("x1*p1 + p2", 1, 2), {1: (0.0, 1.0), 2: (1.0, 2.0)}
    )
    v = r.check_joint_measurability(rf, probes)
    assert (v.measurable, v.witness.probe) == (False, probe)
    assert_same_verdict(v, reference_check_joint_measurability(rf, probes))


# --- point clouds as arrays, and values shared by scenarios ---------------------


def _hausdorff(A, B):
    d_ab = max(min(_sup_dist(a, b) for b in B) for a in A)
    d_ba = max(min(_sup_dist(b, a) for a in A) for b in B)
    return max(d_ab, d_ba)


def previous_cloud_distance(self, other):
    """``PointCloud.distance`` before the arrays: the scalar loop above."""
    if not isinstance(other, r.PointCloud) or other.dim != self.dim:
        return math.inf
    return _hausdorff(self.points, other.points)


def assert_same_as_previous_setmap(space, C):
    """The verdict of the pairwise scan with the scalar Hausdorff loop, which
    compares also the pairs that share one object, bit for bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(r.PointCloud, "distance", previous_cloud_distance)
        old = reference_is_measurable_setmap(space, C)
    assert_same_verdict(r.is_measurable_setmap(space, C), old)


# coordinates whose differences overflow to inf, next to small ones
HUGE = st.sampled_from([1.7e308, -1.7e308, 1.6e308, -1e308, 0.0, -0.0, 1.0])
coordinate = st.one_of(number, HUGE)
BLOCK_PAIRS = [1, 3, 7, None]  # None keeps HAUSDORFF_BLOCK_PAIRS


def _clouds(dim, max_size):
    point = st.tuples(*[coordinate] * dim)
    return st.lists(point, min_size=1, max_size=max_size).map(lambda p: r.PointCloud(tuple(p)))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), block=st.sampled_from(BLOCK_PAIRS))
def test_hausdorff_has_the_bits_of_the_scalar_loop(data, block):
    dim = data.draw(st.integers(1, 3))
    A, B = data.draw(_clouds(dim, 9)), data.draw(_clouds(dim, 9))
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(randfunc, "HAUSDORFF_BLOCK_PAIRS", block)
        gap = A.distance(B)
    assert type(gap) is float
    assert _bits(gap) == _bits(_hausdorff(A.points, B.points))


@pytest.mark.parametrize(
    "block,m_a,m_b",
    [(1, 13, 11), (3, 13, 11), (7, 13, 11), (None, 150, 120)],
    ids=["block1", "block3", "block7", "default"],
)
def test_hausdorff_of_clouds_larger_than_a_block(block, m_a, m_b, monkeypatch):
    rng = np.random.default_rng(5)
    A = r.PointCloud(tuple(map(tuple, rng.uniform(-1.0, 1.0, (m_a, 2)).tolist())))
    B = r.PointCloud(tuple(map(tuple, rng.uniform(-1.0, 1.0, (m_b, 2)).tolist())))
    if block is not None:
        monkeypatch.setattr(randfunc, "HAUSDORFF_BLOCK_PAIRS", block)
    assert m_a * m_b > randfunc.HAUSDORFF_BLOCK_PAIRS
    for a, b in [(A, B), (B, A)]:
        assert _bits(a.distance(b)) == _bits(_hausdorff(a.points, b.points))


@pytest.mark.parametrize(
    "a,b,gap",
    [
        ([(1.7e308,)], [(-1.7e308,)], math.inf),
        ([(1.7e308, 0.0), (-1.7e308, 0.0)], [(-1.7e308, 0.0), (1.7e308, 0.0)], 0.0),
        ([(1.7e308,), (-1.7e308,)], [(1.7e308,)], math.inf),
        ([(1.7e308,), (0.0,)], [(0.0,), (-1.6e308,)], 1.7e308),
    ],
    ids=["overflow", "equal-as-sets", "one-side-overflows", "finite-beside-overflow"],
)
def test_hausdorff_gap_that_overflows_is_inf_as_in_python(a, b, gap):
    A, B = r.PointCloud(tuple(a)), r.PointCloud(tuple(b))
    assert _bits(A.distance(B)) == _bits(_hausdorff(A.points, B.points)) == _bits(gap)


def _copy(value):
    """An equal value that is another object."""
    if isinstance(value, r.Box):
        return r.Box(tuple(list(value.lower)), tuple(list(value.upper)))
    if isinstance(value, r.PointCloud):
        return r.PointCloud(tuple(tuple(list(p)) for p in value.points))
    return tuple(list(value))


@st.composite
def shared_or_copied(draw, values):
    """A map that gives each scenario a palette value itself or a copy."""
    space = draw(spaces())
    palette = draw(st.lists(values, min_size=1, max_size=3))
    out = {}
    for s in space.scenarios:
        value = draw(st.sampled_from(palette))
        out[s] = _copy(value) if draw(st.booleans()) else value
    return space, out


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_shared_and_copied_sets_match_the_previous_code(data):
    dim = data.draw(st.integers(1, 2))
    space, descs = data.draw(shared_or_copied(descriptions(dim, ["box", "cloud"])))
    assert_same_as_previous_setmap(space, r.RandomSet(space, descs))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), tol=tolerance)
def test_shared_and_copied_points_match_the_previous_code(data, tol):
    dim = data.draw(st.integers(1, 2))
    space, values = data.draw(shared_or_copied(st.tuples(*[coordinate] * dim)))
    xi = r.RandomVariableRn(space, values)
    assert_same_outcome(r.is_measurable_rv, reference_is_measurable_rv, space, xi, tol)


@st.composite
def mixed_size_cloud_maps(draw):
    """Atoms of clouds of 1 to 6 points, some shared, some copied, some
    permuted with duplicates, and some different."""
    space = draw(spaces())
    dim = draw(st.integers(1, 2))
    palette = draw(st.lists(_clouds(dim, 6), min_size=1, max_size=3))
    descs = {}
    for s in space.scenarios:
        cloud = draw(st.sampled_from(palette))
        descs[s] = draw(st.sampled_from([cloud, _copy(cloud), _variant(draw, cloud)]))
    return space, r.RandomSet(space, descs)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), block=st.sampled_from(BLOCK_PAIRS))
def test_clouds_of_mixed_sizes_match_the_previous_code(data, block):
    space, C = data.draw(mixed_size_cloud_maps())
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(randfunc, "HAUSDORFF_BLOCK_PAIRS", block)
        assert_same_as_previous_setmap(space, C)


def test_a_shared_cloud_is_not_compared_and_a_copy_is(monkeypatch):
    space = _one_atom(4)
    cloud = r.PointCloud(((0.0, 1.0), (2.0, -1.0)))
    other = r.PointCloud(((2.0, -1.0), (0.0, 1.0), (3.0, 3.0)))
    C = r.RandomSet(space, {1: cloud, 2: cloud, 3: _copy(cloud), 4: other})
    calls = []
    original = randfunc._hausdorff
    monkeypatch.setattr(
        randfunc, "_hausdorff", lambda A, B: calls.append(1) or original(A, B)
    )
    v = r.is_measurable_setmap(space, C)
    assert (v.witness.scenario_a, v.witness.scenario_b, len(calls)) == (1, 4, 2)
    monkeypatch.undo()
    assert_same_as_previous_setmap(space, C)
