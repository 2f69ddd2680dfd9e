"""Finite probability spaces and constancy-on-atoms measurability checks.

A finite sigma-algebra is stored as its atom partition.  A point- or
set-valued mapping is measurable with respect to it exactly when the
mapping is constant on every atom, so every check below reduces to a
within-atom comparison and, on failure, produces a two-scenario witness.

The witness is the first pair (a, b), a before b in atom order, of the
pairwise scan over each atom whose distance exceeds the tolerance.  The
constructors reject NaN and infinities, so zero distance is transitive
and at tolerance 0 the first failing pair, if any, starts at the atom's
first scenario, the representative: the checks compare each scenario
with it only, in time linear in the atom size.  ``is_measurable_rv`` at
tolerance > 0 scans each atom pair by pair.  A gap can still be infinite,
when a difference overflows or two descriptions differ in kind or shape.

Scenarios often share one value object: the box or point cloud that a
document gives every scenario, the value array that f has at one distinct
parameter vector, the point that a selection gives a whole atom.  Such a
value is finite, so it is at gap 0 from itself, and a pair of scenarios
that hold one object is skipped without a comparison; the verdict and the
witness are those of the full scan.  The skip also reads a level set as
equal to itself where ``exprlang.tree_gap`` does not: one whose tree,
built by hand, holds an infinite number (the parser rejects a literal
that overflows a float).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Iterable,
    Mapping,
    NoReturn,
    Optional,
    Sequence,
)

from .errors import DomainMismatch, PartitionError, RandoptError, WeightSumError

if TYPE_CHECKING:  # pragma: no cover
    from .randfunc import RandomSet

Scenario = Hashable

WEIGHT_SUM_TOL = 1e-12


def _finite(values: Iterable[float]) -> bool:
    """Whether every number of ``values`` is finite, in one pass of
    ``math.isfinite``; False at a number too large to convert to a float."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def _require_finite(values: Iterable[float], error: type[RandoptError]) -> None:
    """Raise ``error`` at the first NaN or infinity in ``values``, or at
    the first number too large to convert to a float.  The test is one
    pass (``_finite``); the values are walked one by one only to word a
    failure."""
    if type(values) is not tuple and type(values) is not list:
        values = tuple(values)  # an iterator is read twice on failure
    if _finite(values):
        return
    for v in values:
        try:
            finite = math.isfinite(v)
        except OverflowError:
            raise error("number is not finite: it overflows a float") from None
        if not finite:
            raise error(f"number {v!r} is not finite")


@dataclass(frozen=True)
class ProbSpace:
    """Finite scenario set with weights and a sigma-algebra given by atoms."""

    scenarios: tuple[Scenario, ...]
    weights: tuple[float, ...]
    atoms: tuple[tuple[Scenario, ...], ...]

    @cached_property
    def scenario_set(self) -> frozenset:
        """The scenarios as a set, built at its first use."""
        return frozenset(self.scenarios)


def _sorted_ids(items: Iterable, key=None) -> list:
    """``sorted(items, key=key)``, raising PartitionError when scenario ids
    cannot be ordered, such as 1 and "a"."""
    try:
        return sorted(items, key=key)
    except TypeError as e:
        raise PartitionError(f"scenario ids cannot be ordered: {e}", "scenarios") from None


def _reject_members(block: Sequence[Scenario], id_set: set, seen: set) -> NoReturn:
    """Raise PartitionError at the first member of ``block``, an atom, that
    is no scenario or is one of ``seen``, the scenarios of the earlier
    atoms, or of this atom before it."""
    for s in block:
        try:
            known = s in id_set
        except TypeError:  # unhashable, so no scenario id
            known = False
        if not known:
            raise PartitionError(f"atom member {s!r} is not a scenario")
        if s in seen:
            raise PartitionError(f"scenario {s!r} appears in two atoms")
        seen.add(s)
    raise AssertionError("every member of the atom is a new scenario")


def make_space(
    scenario_ids: Sequence[Scenario],
    weights: Sequence[float],
    atom_partition: Sequence[Sequence[Scenario]],
) -> ProbSpace:
    """Validate and build a finite probability space.

    Atoms are stored in canonical order: members sorted, atoms sorted by
    their smallest contained scenario id.
    """
    ids = tuple(scenario_ids)
    id_set = set(ids)
    if len(id_set) != len(ids):
        raise PartitionError("duplicate scenario ids", "scenarios")
    if len(weights) != len(ids):
        raise PartitionError(f"{len(weights)} weights for {len(ids)} scenarios", "weights")
    try:
        w = tuple(map(float, weights))
    except OverflowError:
        raise WeightSumError("weight is not finite: it overflows a float") from None
    _require_finite(w, WeightSumError)
    if w and min(w) < 0.0:
        for v in w:
            if v < 0.0:
                raise WeightSumError(f"negative weight {v!r}")
    total = sum(w)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumError(f"weights sum to {total!r}, not 1")

    seen: set[Scenario] = set()
    atoms = []
    for block in atom_partition:
        if not block:
            raise PartitionError("empty atom")
        try:
            members = set(block)
        except TypeError:  # an unhashable member, so no scenario id
            _reject_members(block, id_set, seen)
        if not (
            len(members) == len(block) and id_set.issuperset(members) and seen.isdisjoint(members)
        ):
            _reject_members(block, id_set, seen)
        seen |= members
        atoms.append(tuple(_sorted_ids(block)))
    if seen != id_set:
        missing = _sorted_ids(id_set - seen)
        raise PartitionError(f"scenarios not covered by any atom: {missing}")
    atoms = _sorted_ids(atoms, key=lambda a: a[0])
    return ProbSpace(ids, w, tuple(atoms))


def _require_entries(space: ProbSpace, mapping: Mapping, what: str) -> None:
    """Raise DomainMismatch naming, in the space's order, every scenario of
    ``space`` that ``mapping`` has no entry for.  The test is one set
    comparison; the list is built only when it fails."""
    if not mapping.keys() >= space.scenario_set:
        missing = [s for s in space.scenarios if s not in mapping]
        raise DomainMismatch(f"no {what} for scenarios {missing}")


Point = tuple[float, ...]


@dataclass(frozen=True)
class RandomVariableRn:
    """Mapping scenario -> point in R^n (n >= 1)."""

    space: ProbSpace
    values: Mapping[Scenario, Point]

    def __post_init__(self):
        _require_entries(self.space, self.values, "value")
        # a point that scenarios share is checked once, at its first holder
        points = {id(p): p for p in self.values.values()}.values()
        dims = set(map(len, points))
        if len(dims) != 1:
            raise DomainMismatch(f"inconsistent value dimensions {sorted(dims)}")
        _require_finite(chain.from_iterable(points), DomainMismatch)


@dataclass(frozen=True)
class Witness:
    """A within-atom disagreement: two scenarios whose images differ."""

    atom: tuple[Scenario, ...]
    scenario_a: Scenario
    scenario_b: Scenario
    gap: float
    probe: Optional[Point] = None
    value_a: Any = None
    value_b: Any = None


@dataclass(frozen=True)
class MeasurabilityVerdict:
    measurable: bool
    witness: Optional[Witness] = None


def _sup_dist(a: Sequence[float], b: Sequence[float]) -> float:
    return max(abs(u - v) for u, v in zip(a, b))


def _first_failure(
    atoms: Iterable[tuple[Scenario, ...]],
    gap: Callable[[Scenario, Scenario], float],
    tol: float,
    values: Mapping[Scenario, Any],
) -> Optional[Witness]:
    """Witness of the first pair (a, b) of the pairwise scan of each atom in
    turn with a gap above ``tol``, carrying ``values[a]`` and ``values[b]``;
    None if there is no such pair.

    At tol 0 only the pairs that start at the representative ``atom[0]``
    are compared: zero gap between finite values is an equivalence.  A
    pair whose two values are one object is skipped without a ``gap`` call.
    """
    for atom in atoms:
        firsts = atom[:1] if tol == 0.0 else atom
        for i, a in enumerate(firsts):
            value = values[a]
            for b in atom[i + 1 :]:
                if values[b] is value:  # gap 0: the value is finite
                    continue
                g = gap(a, b)
                if g > tol:
                    return Witness(atom, a, b, g, value_a=values[a], value_b=values[b])
    return None


def is_measurable_rv(
    space: ProbSpace, xi: RandomVariableRn, tol: float = 0.0
) -> MeasurabilityVerdict:
    """Measurable iff xi is constant (within ``tol``, sup-norm) on every atom."""
    if xi.space != space:
        raise DomainMismatch("random variable is defined on a different space")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    values = xi.values

    def gap(a: Scenario, b: Scenario) -> float:
        return _sup_dist(values[a], values[b])

    witness = _first_failure(space.atoms, gap, tol, values)
    return MeasurabilityVerdict(witness is None, witness)


def is_measurable_setmap(space: ProbSpace, C: "RandomSet") -> MeasurabilityVerdict:
    """Measurable iff the set description is constant on every atom.

    Box descriptions compare corner-wise, point clouds by Hausdorff
    distance, level sets structurally after parameter substitution.
    """
    if C.space != space:
        raise DomainMismatch("set-valued map is defined on a different space")
    descs = C.descriptions

    def gap(a: Scenario, b: Scenario) -> float:
        return descs[a].distance(descs[b])

    witness = _first_failure(space.atoms, gap, 0.0, descs)
    return MeasurabilityVerdict(witness is None, witness)
