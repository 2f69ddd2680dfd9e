"""The within-atom measurability checks against the earlier pairwise scans.

``reference_*`` below are the previous implementations: each compared
every pair of scenarios inside an atom and evaluated f once per scenario.
The current checks compare each scenario with its atom's representative
at tolerance 0 (``is_measurable_rv`` keeps the pairwise scan at tolerance
> 0), and evaluate f once per distinct parameter vector.  The inputs are
finite, as every constructor requires.  On them the checks must return the
same verdict and the same witness, bit for bit, or raise the same error.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import randopt as r
from randopt.randfunc import eval_f_batch

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
        vals, valid = eval_f_batch(rf, omega, X)
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
    if kind == "level":
        texts = draw(st.lists(st.sampled_from(LEVEL_SET_CONSTRAINTS), min_size=1, max_size=2))
        constraints = tuple(r.parse(t, 2, 2) for t in texts)
        box = r.Box((-1.0, -1.0), (draw(number) % 2.0 + 1.0, 1.0))
        return r.LevelSet(constraints, draw(st.tuples(number, number)), box)
    return r.EmptySet(dim)


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


OBJECTIVES = ["x1*p1 + p2", "x1^2 - p1*x1", "log(x1 - p1) + p2", "1/(x1 - p1)"]


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
    [["box"], ["cloud"], ["level"], ["empty", "box"], ["box", "cloud", "level", "empty"]],
    ids=["box", "cloud", "level", "empty-box", "mixed"],
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
    ],
    ids=["Box", "PointCloud", "LevelSet", "RandomVariableRn", "make_space"],
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


def test_parameter_vectors_are_shared_only_between_equal_types():
    # True and 1.0 have the same float bytes, but numpy adds booleans as a
    # logical or, so f(., x) = p1 + p1 differs between the two scenarios
    space = _one_atom(2)
    rf = r.RandomFunction(space, 1, r.parse("p1 + p1", 1, 1), {1: (True,), 2: (1.0,)})
    v = r.check_joint_measurability(rf, [(0.0,)])
    assert (v.witness.value_a, v.witness.value_b) == (1.0, 2.0)
    assert_same_verdict(v, reference_check_joint_measurability(rf, [(0.0,)]))
