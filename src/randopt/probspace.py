"""Finite probability spaces and constancy-on-atoms measurability checks.

A finite sigma-algebra is stored as its atom partition.  A point- or
set-valued mapping is measurable with respect to it exactly when the
mapping is constant on every atom, so every check below reduces to a
within-atom comparison and, on failure, produces a two-scenario witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping, Optional, Sequence, TYPE_CHECKING

from .errors import DomainMismatch, PartitionError, WeightSumError

if TYPE_CHECKING:  # pragma: no cover
    from .randfunc import RandomSet

Scenario = Hashable

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbSpace:
    """Finite scenario set with weights and a sigma-algebra given by atoms."""

    scenarios: tuple[Scenario, ...]
    weights: tuple[float, ...]
    atoms: tuple[tuple[Scenario, ...], ...]


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
    if len(set(ids)) != len(ids):
        raise PartitionError("duplicate scenario ids")
    if len(weights) != len(ids):
        raise PartitionError(
            f"{len(weights)} weights for {len(ids)} scenarios"
        )
    w = tuple(float(v) for v in weights)
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
        for s in block:
            if s not in ids:
                raise PartitionError(f"atom member {s!r} is not a scenario")
            if s in seen:
                raise PartitionError(f"scenario {s!r} appears in two atoms")
            seen.add(s)
        atoms.append(tuple(sorted(block)))
    if seen != set(ids):
        missing = sorted(set(ids) - seen)
        raise PartitionError(f"scenarios not covered by any atom: {missing}")
    atoms.sort(key=lambda a: a[0])
    return ProbSpace(ids, w, tuple(atoms))


Point = tuple[float, ...]


@dataclass(frozen=True)
class RandomVariableRn:
    """Mapping scenario -> point in R^n (n >= 1)."""

    space: ProbSpace
    values: Mapping[Scenario, Point]

    def __post_init__(self):
        missing = [s for s in self.space.scenarios if s not in self.values]
        if missing:
            raise DomainMismatch(f"no value for scenarios {missing}")
        dims = {len(v) for v in self.values.values()}
        if len(dims) != 1:
            raise DomainMismatch(f"inconsistent value dimensions {sorted(dims)}")

    @property
    def dim(self) -> int:
        return len(next(iter(self.values.values())))

    def __call__(self, scenario: Scenario) -> Point:
        return self.values[scenario]


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


def is_measurable_rv(
    space: ProbSpace, xi: RandomVariableRn, tol: float = 0.0
) -> MeasurabilityVerdict:
    """Measurable iff xi is constant (within ``tol``, sup-norm) on every atom."""
    if xi.space != space:
        raise DomainMismatch("random variable is defined on a different space")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    for atom in space.atoms:
        for i, wa in enumerate(atom):
            for wb in atom[i + 1 :]:
                gap = _sup_dist(xi.values[wa], xi.values[wb])
                if gap > tol:
                    return MeasurabilityVerdict(
                        False,
                        Witness(
                            atom,
                            wa,
                            wb,
                            gap,
                            value_a=xi.values[wa],
                            value_b=xi.values[wb],
                        ),
                    )
    return MeasurabilityVerdict(True)


def is_measurable_setmap(
    space: ProbSpace, C: "RandomSet", tol: float = 0.0
) -> MeasurabilityVerdict:
    """Measurable iff the set description is constant on every atom.

    Box descriptions compare corner-wise, point clouds by Hausdorff
    distance, level sets structurally after parameter substitution.
    """
    if C.space != space:
        raise DomainMismatch("set-valued map is defined on a different space")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    for atom in space.atoms:
        for i, wa in enumerate(atom):
            for wb in atom[i + 1 :]:
                da, db = C.descriptions[wa], C.descriptions[wb]
                gap = da.distance(db)
                if gap > tol:
                    return MeasurabilityVerdict(
                        False,
                        Witness(atom, wa, wb, gap, value_a=da, value_b=db),
                    )
    return MeasurabilityVerdict(True)
