"""The within-atom checks do linear work, counted rather than timed.

10^4 scenarios in 3 atoms: each check must compare each scenario with its
atom's representative only (|Omega| - |atoms| comparisons) and evaluate f
once per distinct parameter vector.  A quadratic scan would make about
1.7e7 comparisons here.
"""

import pytest

import randopt as r
from randopt import exprlang, probspace

N = 10_000
ATOMS = 3


@pytest.fixture(scope="module")
def space():
    ids = list(range(N))
    # multiples of 2^-14 add up exactly
    weights = [2.0**-14] * (N - 1) + [1.0 - (N - 1) * 2.0**-14]
    atoms = [[s for s in ids if s % ATOMS == a] for a in range(ATOMS)]
    return r.make_space(ids, weights, atoms)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _count_rows(monkeypatch):
    """The number of rows of each ``exprlang.eval_rows`` call."""
    rows = []
    original = exprlang.eval_rows
    monkeypatch.setattr(exprlang, "eval_rows", lambda c, X, P: rows.append(len(X)) or original(c, X, P))
    return rows


def test_box_map_compares_each_scenario_with_its_representative(space, monkeypatch):
    C = r.RandomSet(
        space, {s: r.Box((float(s % ATOMS), 0.0), (s % ATOMS + 1.0, 1.0)) for s in space.scenarios}
    )
    calls = _count_calls(monkeypatch, r.Box, "distance")
    assert r.is_measurable_setmap(space, C).measurable
    assert len(calls) == N - ATOMS


def test_point_cloud_map_compares_each_scenario_with_its_representative(
    space, monkeypatch
):
    points = ((0.0, 1.0), (2.0, -1.0), (0.5, 0.5))
    C = r.RandomSet(
        space,
        {s: r.PointCloud(points[s % 3 :] + points[: s % 3]) for s in space.scenarios},
    )
    calls = _count_calls(monkeypatch, r.PointCloud, "distance")
    assert r.is_measurable_setmap(space, C).measurable
    assert len(calls) == N - ATOMS


def test_random_variable_compares_each_scenario_with_its_representative(
    space, monkeypatch
):
    xi = r.RandomVariableRn(space, {s: (float(s % ATOMS), 1.0) for s in space.scenarios})
    calls = _count_calls(monkeypatch, probspace, "_sup_dist")
    assert r.is_measurable_rv(space, xi).measurable
    assert len(calls) == N - ATOMS


def test_small_atom_is_compared_with_its_representative_only(monkeypatch):
    # the pairwise scan of one measurable atom of 5 would compare 10 pairs;
    # equal copies cost |atom| - 1 comparisons, and one shared object none
    small = r.make_space([1, 2, 3, 4, 5], [0.2] * 5, [[1, 2, 3, 4, 5]])
    point, box = (1.0, 2.0), r.Box((0.0,), (1.0,))
    copies = (
        r.RandomVariableRn(small, {s: tuple(list(point)) for s in small.scenarios}),
        r.RandomSet(small, {s: r.Box((0.0,), (1.0,)) for s in small.scenarios}),
    )
    shared = (
        r.RandomVariableRn(small, dict.fromkeys(small.scenarios, point)),
        r.RandomSet(small, dict.fromkeys(small.scenarios, box)),
    )
    for (xi, C), calls in [(copies, (4, 4)), (shared, (0, 0))]:
        rv_calls = _count_calls(monkeypatch, probspace, "_sup_dist")
        box_calls = _count_calls(monkeypatch, r.Box, "distance")
        assert r.is_measurable_rv(small, xi).measurable
        assert r.is_measurable_setmap(small, C).measurable
        assert (len(rv_calls), len(box_calls)) == calls
        monkeypatch.undo()


def test_objective_is_evaluated_once_per_distinct_parameter_vector(space, monkeypatch):
    # atom 0 mixes 0.0 and -0.0: equal values, different bytes, two vectors
    vectors = {0: [(0.0,), (-0.0,)], 1: [(1.0,)], 2: [(2.0,)]}
    params = {s: vectors[s % ATOMS][s // ATOMS % len(vectors[s % ATOMS])] for s in space.scenarios}
    rf = r.RandomFunction(space, 1, r.parse("x1^2 + p1", 1, 1), params)
    rows = _count_rows(monkeypatch)
    assert r.check_joint_measurability(rf, [(-1.0,), (0.0,), (2.0,)]).measurable
    assert rows == [4 * 3]  # one stack: the 3 probes of each of the 4 vectors
