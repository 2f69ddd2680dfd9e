import itertools
import random

import pytest

import randopt as r
from randopt.errors import DomainMismatch, PartitionError, WeightSumError


def test_make_space_basic():
    space = r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])
    assert space.scenarios == (1, 2, 3)
    assert space.atoms == ((1, 2), (3,))


def test_make_space_singleton():
    space = r.make_space([1], [1.0], [[1]])
    assert space.atoms == ((1,),)


def test_make_space_weight_sum_error():
    with pytest.raises(WeightSumError):
        r.make_space([1, 2], [0.6, 0.6], [[1], [2]])


def test_make_space_negative_weight():
    with pytest.raises(WeightSumError):
        r.make_space([1, 2], [-0.5, 1.5], [[1], [2]])


@pytest.mark.parametrize(
    "atoms",
    [
        [[1, 2]],            # misses 3
        [[1, 2], [2, 3]],    # overlap
        [[1, 2], [3], []],   # empty block
        [[1, 2], [3, 4]],    # unknown id
    ],
)
def test_make_space_partition_errors(atoms):
    with pytest.raises(PartitionError):
        r.make_space([1, 2, 3], [0.25, 0.25, 0.5], atoms)


@pytest.mark.parametrize(
    "atoms,message",
    [
        ([[1, 2], [3, 4]], "atom member 4 is not a scenario"),
        ([[1, [2]], [3]], "atom member [2] is not a scenario"),
        ([[1, 2], [2, 9]], "scenario 2 appears in two atoms"),
        ([[1, 2], [1, 9]], "scenario 1 appears in two atoms"),
        ([[1, 2], [9, 1]], "atom member 9 is not a scenario"),
        ([[1, 2]], "scenarios not covered by any atom: [3]"),
    ],
)
def test_make_space_partition_error_messages(atoms, message):
    with pytest.raises(PartitionError) as exc:
        r.make_space([1, 2, 3], [0.25, 0.25, 0.5], atoms)
    assert str(exc.value) == message


def test_atoms_canonical_order():
    space = r.make_space([3, 1, 2], [0.2, 0.3, 0.5], [[3], [2, 1]])
    assert space.atoms == ((1, 2), (3,))


def test_rv_measurable_constant_on_atoms():
    space = r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])
    xi = r.RandomVariableRn(space, {1: (5.0,), 2: (5.0,), 3: (7.0,)})
    assert r.is_measurable_rv(space, xi, tol=0.0).measurable


def test_rv_non_measurable_witness():
    space = r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])
    xi = r.RandomVariableRn(space, {1: (5.0,), 2: (6.0,), 3: (7.0,)})
    verdict = r.is_measurable_rv(space, xi, tol=0.0)
    assert not verdict.measurable
    w = verdict.witness
    assert w.atom == (1, 2)
    assert {w.scenario_a, w.scenario_b} == {1, 2}
    assert w.gap == 1.0


def test_rv_powerset_always_measurable():
    space = r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1], [2], [3]])
    xi = r.RandomVariableRn(space, {1: (5.0,), 2: (6.0,), 3: (7.0,)})
    assert r.is_measurable_rv(space, xi).measurable


def test_rv_domain_mismatch():
    space = r.make_space([1, 2], [0.5, 0.5], [[1, 2]])
    other = r.make_space([1, 2], [0.5, 0.5], [[1], [2]])
    xi = r.RandomVariableRn(other, {1: (0.0,), 2: (0.0,)})
    with pytest.raises(DomainMismatch):
        r.is_measurable_rv(space, xi)


def test_each_distinct_point_is_checked():
    # scenarios 2 and 3 hold one point, checked once
    space = r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2, 3]])
    for bad, message in (((float("nan"),), "number nan is not finite"), ((0.0, 1.0), "dimensions")):
        with pytest.raises(DomainMismatch, match=message):
            r.RandomVariableRn(space, {1: (0.0,), 2: bad, 3: bad})


def test_rv_missing_value_rejected():
    space = r.make_space([1, 2], [0.5, 0.5], [[1, 2]])
    with pytest.raises(DomainMismatch):
        r.RandomVariableRn(space, {1: (0.0,)})


def test_rv_missing_values_are_named_in_the_spaces_order():
    # an entry for a scenario outside the space does not stand in for one
    space = r.make_space([3, 1, 2, 4], [0.25] * 4, [[1, 2, 3, 4]])
    with pytest.raises(DomainMismatch) as err:
        r.RandomVariableRn(space, {2: (0.0,), 9: (0.0,), 5: (0.0,)})
    assert str(err.value) == "no value for scenarios [3, 1, 4]"


def _random_space_and_rv(rng, n_scen=5):
    ids = list(range(1, n_scen + 1))
    weights = [1.0 / n_scen] * n_scen
    # random partition: assign each scenario a block label
    labels = [rng.randrange(3) for _ in ids]
    blocks = {}
    for s, lab in zip(ids, labels):
        blocks.setdefault(lab, []).append(s)
    space = r.make_space(ids, weights, list(blocks.values()))
    values = {s: (float(rng.randrange(4)),) for s in ids}
    return space, r.RandomVariableRn(space, values)


def test_constancy_criterion_matches_preimage_enumeration():
    # finite-scale soundness: constant-on-atoms iff every value preimage
    # is a union of atoms
    rng = random.Random(7)
    for _ in range(200):
        space, xi = _random_space_and_rv(rng)
        verdict = r.is_measurable_rv(space, xi, tol=0.0)
        preimages_ok = True
        for value in {xi.values[s] for s in space.scenarios}:
            pre = {s for s in space.scenarios if xi.values[s] == value}
            covered = set()
            for atom in space.atoms:
                if set(atom) & pre:
                    covered |= set(atom)
            if covered != pre:
                preimages_ok = False
                break
        assert verdict.measurable == preimages_ok


def test_refining_partition_preserves_measurability():
    rng = random.Random(21)
    for _ in range(100):
        space, xi = _random_space_and_rv(rng)
        if not r.is_measurable_rv(space, xi).measurable:
            continue
        # split every multi-scenario atom in two
        refined = []
        for atom in space.atoms:
            if len(atom) > 1:
                cut = rng.randrange(1, len(atom))
                refined.append(list(atom[:cut]))
                refined.append(list(atom[cut:]))
            else:
                refined.append(list(atom))
        fine = r.make_space(space.scenarios, space.weights, refined)
        xi_fine = r.RandomVariableRn(fine, dict(xi.values))
        assert r.is_measurable_rv(fine, xi_fine).measurable


def test_sigma_algebra_is_unions_of_atoms():
    # every union of atoms is an event and every event arises that way
    space = r.make_space([1, 2, 3, 4], [0.25] * 4, [[1, 2], [3], [4]])
    events = set()
    for k in range(len(space.atoms) + 1):
        for combo in itertools.combinations(space.atoms, k):
            events.add(frozenset(s for atom in combo for s in atom))
    assert frozenset() in events
    assert frozenset(space.scenarios) in events
    assert len(events) == 2 ** len(space.atoms)


def test_setmap_measurability_boxes():
    space = r.make_space([1, 2], [0.5, 0.5], [[1, 2]])
    same = r.RandomSet(
        space,
        {
            1: r.Box((-1.0, -1.0), (1.0, 1.0)),
            2: r.Box((-1.0, -1.0), (1.0, 1.0)),
        },
    )
    assert r.is_measurable_setmap(space, same).measurable

    differ = r.RandomSet(
        space, {1: r.Box((0.0,), (1.0,)), 2: r.Box((0.0,), (2.0,))}
    )
    verdict = r.is_measurable_setmap(space, differ)
    assert not verdict.measurable
    assert verdict.witness.atom == (1, 2)
    assert verdict.witness.gap == 1.0


def test_setmap_singleton_atoms_measurable():
    space = r.make_space([1, 2], [0.5, 0.5], [[1], [2]])
    differ = r.RandomSet(
        space, {1: r.Box((0.0,), (1.0,)), 2: r.Box((0.0,), (2.0,))}
    )
    assert r.is_measurable_setmap(space, differ).measurable


def test_setmap_point_clouds_hausdorff():
    space = r.make_space([1, 2], [0.5, 0.5], [[1, 2]])
    C = r.RandomSet(
        space,
        {
            1: r.PointCloud(((0.0,), (1.0,))),
            2: r.PointCloud(((1.0,), (0.0,))),  # same set, different order
        },
    )
    assert r.is_measurable_setmap(space, C).measurable
    C2 = r.RandomSet(
        space,
        {1: r.PointCloud(((0.0,),)), 2: r.PointCloud(((0.5,),))},
    )
    v = r.is_measurable_setmap(space, C2)
    assert not v.measurable and v.witness.gap == 0.5


def test_setmap_level_sets_structural():
    space = r.make_space([1, 2], [0.5, 0.5], [[1, 2]])
    box = r.Box((-2.0,), (2.0,))
    e = r.parse("x1^2 - p1", 1, 1)
    same = r.RandomSet(
        space,
        {1: r.LevelSet((e,), (1.0,), box), 2: r.LevelSet((e,), (1.0,), box)},
    )
    assert r.is_measurable_setmap(space, same).measurable
    differ = r.RandomSet(
        space,
        {1: r.LevelSet((e,), (1.0,), box), 2: r.LevelSet((e,), (4.0,), box)},
    )
    v = r.is_measurable_setmap(space, differ)
    assert not v.measurable
    assert v.witness.gap == 3.0  # substituted literals differ by 3


def test_setmap_mixed_kinds_non_measurable():
    space = r.make_space([1, 2], [0.5, 0.5], [[1, 2]])
    C = r.RandomSet(
        space,
        {1: r.Box((0.0,), (1.0,)), 2: r.PointCloud(((0.0,),))},
    )
    assert not r.is_measurable_setmap(space, C).measurable
