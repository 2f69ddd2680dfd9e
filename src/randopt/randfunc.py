"""Scenario-indexed smooth functions and set-valued maps.

A :class:`RandomFunction` is one expression body shared by all scenarios,
made scenario-dependent through per-scenario parameter vectors.  Its
gradient and Hessian are exact symbolic derivatives, with a finite
difference checker as the numerical oracle.

A :class:`RandomSet` maps each scenario to one of three compact
descriptions: an axis-aligned box, a finite point cloud, or the zero set
of smooth constraints clipped to a bounding box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from . import exprlang
from .errors import (
    DomainMismatch,
    DomainViolation,
    EvalError,
    IncompatibleRepresentation,
)
from .exprlang import Env, Expression
from .probspace import (
    MeasurabilityVerdict,
    Point,
    ProbSpace,
    Scenario,
    Witness,
    _require_finite,
    _sup_dist,
)

# --- set descriptions ---------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned compact box, lower <= upper componentwise."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise IncompatibleRepresentation("box bounds must share a dimension >= 1")
        _require_finite((*self.lower, *self.upper), IncompatibleRepresentation)
        for lo, hi in zip(self.lower, self.upper):
            if not (lo <= hi):
                raise IncompatibleRepresentation(f"box has lower {lo!r} > upper {hi!r}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def center(self) -> Point:
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.lower, self.upper))

    def corners(self) -> list[Point]:
        pts = [()]
        for lo, hi in zip(self.lower, self.upper):
            pts = [p + (v,) for p in pts for v in ((lo,) if lo == hi else (lo, hi))]
        return [tuple(p) for p in pts]

    def contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        return all(
            lo - tol <= v <= hi + tol for v, lo, hi in zip(x, self.lower, self.upper)
        )

    def distance(self, other) -> float:
        if not isinstance(other, Box) or other.dim != self.dim:
            return math.inf
        return max(
            max(abs(a - b) for a, b in zip(self.lower, other.lower)),
            max(abs(a - b) for a, b in zip(self.upper, other.upper)),
        )


@dataclass(frozen=True)
class PointCloud:
    """Nonempty finite point set."""

    points: tuple[Point, ...]

    def __post_init__(self):
        if not self.points:
            raise IncompatibleRepresentation("point cloud must be nonempty")
        dims = {len(p) for p in self.points}
        if len(dims) != 1:
            raise IncompatibleRepresentation("point cloud mixes dimensions")
        _require_finite((v for p in self.points for v in p), IncompatibleRepresentation)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        return any(_sup_dist(x, p) <= tol for p in self.points)

    def distance(self, other) -> float:
        if not isinstance(other, PointCloud) or other.dim != self.dim:
            return math.inf
        return _hausdorff(self.points, other.points)


@dataclass(frozen=True)
class LevelSet:
    """{x in box : e_j(x) = 0 for all j}, expressions evaluated with
    this scenario's parameter vector."""

    constraints: tuple[Expression, ...]
    params: tuple[float, ...]
    box: Box

    def __post_init__(self):
        if not self.constraints:
            raise IncompatibleRepresentation("level set needs at least one constraint")
        for c in self.constraints:
            if c.n != self.box.dim:
                raise IncompatibleRepresentation(
                    "constraint dimension differs from bounding box"
                )
            if c.k != len(self.params):
                raise IncompatibleRepresentation(
                    "constraint parameter count differs from params vector"
                )
        _require_finite(self.params, IncompatibleRepresentation)

    @property
    def dim(self) -> int:
        return self.box.dim

    def substituted(self) -> tuple[Expression, ...]:
        return tuple(exprlang.substitute_params(c, self.params) for c in self.constraints)

    def contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        if not self.box.contains(x, tol):
            return False
        env = Env(tuple(x), self.params)
        try:
            return all(abs(exprlang.evaluate(c, env)) <= tol for c in self.constraints)
        except EvalError:
            return False

    def distance(self, other) -> float:
        if (
            not isinstance(other, LevelSet)
            or other.dim != self.dim
            or len(other.constraints) != len(self.constraints)
        ):
            return math.inf
        gap = self.box.distance(other.box)
        for a, b in zip(self.substituted(), other.substituted()):
            gap = max(gap, exprlang.tree_gap(a.root, b.root))
        return gap


@dataclass(frozen=True)
class EmptySet:
    """Empty value; only produced by intersections, never accepted as input."""

    dim: int

    def contains(self, x: Sequence[float], tol: float = 0.0) -> bool:
        return False

    def distance(self, other) -> float:
        if isinstance(other, EmptySet) and other.dim == self.dim:
            return 0.0
        return math.inf


SetDescription = Union[Box, PointCloud, LevelSet, EmptySet]


def exact_key(values: Sequence[float]) -> tuple:
    """Bit-exact identity of a vector of numbers: the element types and
    the float64 bytes.  ``0.0`` and ``-0.0`` get different keys, which
    ``==`` would merge."""
    return (tuple(map(type, values)), np.asarray(values, dtype=float).tobytes())


def description_key(desc: SetDescription) -> tuple:
    """Bit-exact identity of a Box, or of a PointCloud with its points in
    listed order; any other description is keyed by object identity."""
    if isinstance(desc, Box):
        return (Box, exact_key(desc.lower + desc.upper))
    if isinstance(desc, PointCloud):
        return (PointCloud, desc.dim, exact_key([v for p in desc.points for v in p]))
    return (type(desc), id(desc))


@dataclass(frozen=True)
class RandomSet:
    """Set-valued map scenario -> compact subset of R^n."""

    space: ProbSpace
    descriptions: Mapping[Scenario, SetDescription]

    def __post_init__(self):
        missing = [s for s in self.space.scenarios if s not in self.descriptions]
        if missing:
            raise DomainMismatch(f"no set description for scenarios {missing}")
        dims = {d.dim for d in self.descriptions.values()}
        if len(dims) != 1:
            raise IncompatibleRepresentation(
                f"set descriptions mix dimensions {sorted(dims)}"
            )

    @property
    def dim(self) -> int:
        return next(iter(self.descriptions.values())).dim

    def bounding_box(self) -> Box:
        """Smallest box containing every scenario's description."""
        lo = [math.inf] * self.dim
        hi = [-math.inf] * self.dim
        for d in self.descriptions.values():
            if isinstance(d, Box):
                dlo, dhi = d.lower, d.upper
            elif isinstance(d, PointCloud):
                dlo = tuple(min(p[i] for p in d.points) for i in range(self.dim))
                dhi = tuple(max(p[i] for p in d.points) for i in range(self.dim))
            elif isinstance(d, LevelSet):
                dlo, dhi = d.box.lower, d.box.upper
            else:
                continue
            lo = [min(a, b) for a, b in zip(lo, dlo)]
            hi = [max(a, b) for a, b in zip(hi, dhi)]
        if any(not math.isfinite(v) for v in lo + hi):
            raise IncompatibleRepresentation("cannot bound an all-empty random set")
        return Box(tuple(lo), tuple(hi))


@dataclass(frozen=True)
class GraphSample:
    """Probe-grid sample of the graph {(scenario, x) : x in C(scenario)}."""

    pairs: tuple[tuple[Scenario, Point], ...]


def sample_graph(
    C: RandomSet, probe_grid: Sequence[Sequence[float]], tol: float = 0.0
) -> GraphSample:
    pairs = []
    for omega in C.space.scenarios:
        desc = C.descriptions[omega]
        for x in probe_grid:
            if desc.contains(x, tol):
                pairs.append((omega, tuple(float(v) for v in x)))
    return GraphSample(tuple(pairs))


def _hausdorff(A: Sequence[Point], B: Sequence[Point]) -> float:
    d_ab = max(min(_sup_dist(a, b) for b in B) for a in A)
    d_ba = max(min(_sup_dist(b, a) for a in A) for b in B)
    return max(d_ab, d_ba)


# --- random functions -----------------------------------------------------------


@dataclass(frozen=True)
class RandomFunction:
    """f(omega, x): one expression body, scenario-indexed parameters."""

    space: ProbSpace
    n: int
    body: Expression
    params: Mapping[Scenario, tuple[float, ...]]

    def __post_init__(self):
        if self.body.n != self.n:
            raise DomainMismatch(
                f"body declares {self.body.n} decision variables, function {self.n}"
            )
        missing = [s for s in self.space.scenarios if s not in self.params]
        if missing:
            raise DomainMismatch(f"no parameters for scenarios {missing}")
        for s, p in self.params.items():
            if len(p) != self.body.k:
                raise DomainMismatch(
                    f"scenario {s!r} has {len(p)} parameters, body declares {self.body.k}"
                )

    @cached_property
    def grad_exprs(self) -> tuple[Expression, ...]:
        return tuple(exprlang.differentiate(self.body, i) for i in range(1, self.n + 1))

    @cached_property
    def hess_exprs(self) -> tuple[tuple[Expression, ...], ...]:
        return tuple(
            tuple(exprlang.differentiate(g, j) for j in range(1, self.n + 1))
            for g in self.grad_exprs
        )

    # f is compiled on first use as self.body.compiled; the gradient and the
    # Hessian are bundles of their own, since a Hessian entry can fail where
    # the gradient is finite (f = (1e200*x1)^2)
    @cached_property
    def grad_bundle(self) -> Callable[[Sequence, Sequence], tuple]:
        return exprlang.compile_bundle([g.root for g in self.grad_exprs], self.n, self.body.k)

    @cached_property
    def hess_bundle(self) -> Callable[[Sequence, Sequence], tuple]:
        """The n^2 Hessian entries, row by row."""
        roots = [h.root for row in self.hess_exprs for h in row]
        return exprlang.compile_bundle(roots, self.n, self.body.k)

    def params_of(self, omega: Scenario) -> tuple[float, ...]:
        try:
            return self.params[omega]
        except KeyError:
            raise DomainMismatch(f"scenario {omega!r} not in this space") from None


def eval_f(rf: RandomFunction, omega: Scenario, x: Sequence[float]) -> float:
    return rf.body.compiled(tuple(x), rf.params_of(omega))[0]


def eval_f_batch(
    rf: RandomFunction, omega: Scenario, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized objective over rows of X; returns (values, valid mask)."""
    return exprlang.eval_batch(rf.body, X, rf.params_of(omega))


def gradient(rf: RandomFunction, omega: Scenario, x: Sequence[float]) -> np.ndarray:
    return np.array(rf.grad_bundle(tuple(x), rf.params_of(omega)))


def hessian(rf: RandomFunction, omega: Scenario, x: Sequence[float]) -> np.ndarray:
    """Symbolic Hessian, symmetrized by averaging the (i,j) and (j,i) entries."""
    entries = rf.hess_bundle(tuple(x), rf.params_of(omega))
    H = np.array(entries, dtype=float).reshape(rf.n, rf.n)
    return (H + H.T) / 2.0


# --- finite-difference oracle -----------------------------------------------------

FD_REL_TOL = 1e-6
FD_ABS_TOL = 1e-8


@dataclass(frozen=True)
class FdReport:
    grad_errors: np.ndarray  # absolute |symbolic - fd|, shape (n,)
    hess_errors: np.ndarray  # shape (n, n)
    max_rel_error: float
    passed: bool


def _entry_ok(sym: float, fd: float) -> bool:
    return abs(sym - fd) <= max(FD_REL_TOL * max(abs(sym), abs(fd)), FD_ABS_TOL)


def fd_check(rf: RandomFunction, omega: Scenario, x: Sequence[float], h: float) -> FdReport:
    """Compare symbolic derivatives against central differences.

    The gradient differences f directly; the Hessian differences the
    symbolic gradient, which keeps roundoff at O(eps/h) instead of the
    O(eps/h^2) a double difference of f would give.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    n = rf.n

    def f(pt: np.ndarray) -> float:
        return eval_f(rf, omega, pt)

    def g(pt: np.ndarray) -> np.ndarray:
        return gradient(rf, omega, pt)

    grad_sym = g(x)
    grad_fd = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad_fd[i] = (f(x + e) - f(x - e)) / (2.0 * h)

    hess_sym = hessian(rf, omega, x)
    hess_fd = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        hess_fd[:, j] = (g(x + e) - g(x - e)) / (2.0 * h)
    hess_fd = (hess_fd + hess_fd.T) / 2.0

    grad_errors = np.abs(grad_sym - grad_fd)
    hess_errors = np.abs(hess_sym - hess_fd)
    ok = all(_entry_ok(s, d) for s, d in zip(grad_sym, grad_fd)) and all(
        _entry_ok(hess_sym[i, j], hess_fd[i, j]) for i in range(n) for j in range(n)
    )
    denoms = np.maximum(
        np.maximum(np.abs(grad_sym), np.abs(grad_fd)), 1e-300
    )
    rel = grad_errors / denoms
    hdenoms = np.maximum(np.maximum(np.abs(hess_sym), np.abs(hess_fd)), 1e-300)
    rel_h = hess_errors / hdenoms
    return FdReport(grad_errors, hess_errors, float(max(rel.max(), rel_h.max())), ok)


# --- joint measurability ------------------------------------------------------------


def check_joint_measurability(
    rf: RandomFunction, probe_grid: Sequence[Sequence[float]]
) -> MeasurabilityVerdict:
    """Measurable iff f(., x) is constant on every atom at every probe x.

    Comparison is exact (tolerance 0): scenarios with identical parameters
    run the identical expression tree, so equality is bitwise.  f is
    evaluated once per distinct parameter vector (by ``exact_key``),
    and each scenario is compared with its atom's first scenario: the
    values are finite, so equality is transitive.
    """
    if not probe_grid:
        raise ValueError("probe grid must be nonempty")
    X = np.asarray([tuple(p) for p in probe_grid], dtype=float)
    by_params: dict[tuple, np.ndarray] = {}
    values: dict[Scenario, np.ndarray] = {}
    for omega in rf.space.scenarios:
        key = exact_key(rf.params_of(omega))
        if key not in by_params:
            vals, valid = eval_f_batch(rf, omega, X)
            if not valid.all():
                bad = int(np.flatnonzero(~valid)[0])
                raise DomainViolation(
                    f"objective undefined at probe {tuple(float(v) for v in X[bad])} "
                    f"in scenario {omega!r}"
                )
            by_params[key] = vals
        values[omega] = by_params[key]
    for atom in rf.space.atoms:
        wa = atom[0]
        for wb in atom[1:]:
            diff = values[wa] != values[wb]
            if diff.any():
                idx = int(np.flatnonzero(diff)[0])
                return MeasurabilityVerdict(
                    False,
                    Witness(
                        atom,
                        wa,
                        wb,
                        gap=abs(float(values[wa][idx] - values[wb][idx])),
                        probe=tuple(float(v) for v in X[idx]),
                        value_a=float(values[wa][idx]),
                        value_b=float(values[wb][idx]),
                    ),
                )
    return MeasurabilityVerdict(True)


# --- probe grids --------------------------------------------------------------------

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _radical_inverse(i: int, base: int) -> float:
    inv = 0.0
    denom = 1.0
    while i > 0:
        denom *= base
        i, digit = divmod(i, base)
        inv += digit / denom
    return inv


def halton_points(count: int, dim: int) -> np.ndarray:
    """First ``count`` Halton points in [0,1]^dim (deterministic)."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton sequence supports up to {len(_PRIMES)} dimensions")
    pts = np.empty((count, dim))
    for j in range(dim):
        b = _PRIMES[j]
        for i in range(count):
            pts[i, j] = _radical_inverse(i + 1, b)
    return pts


def default_probe_grid(box: Box, extra: int = 32) -> list[Point]:
    """Corners and center of ``box`` plus ``extra`` low-discrepancy points."""
    pts: list[Point] = []
    if box.dim <= 12:
        pts.extend(box.corners())
    pts.append(box.center())
    lo = np.array(box.lower)
    hi = np.array(box.upper)
    for row in halton_points(extra, box.dim):
        pts.append(tuple(float(v) for v in lo + row * (hi - lo)))
    return pts


# --- intersections -------------------------------------------------------------------


def _box_intersect(a: Box, b: Box) -> SetDescription:
    lo = tuple(max(u, v) for u, v in zip(a.lower, b.lower))
    hi = tuple(min(u, v) for u, v in zip(a.upper, b.upper))
    if any(l > h for l, h in zip(lo, hi)):
        return EmptySet(a.dim)
    return Box(lo, hi)


def _intersect_desc(a: SetDescription, b: SetDescription, tol: float) -> SetDescription:
    if a.dim != b.dim:
        raise IncompatibleRepresentation("cannot intersect sets of different dimension")
    if isinstance(a, EmptySet) or isinstance(b, EmptySet):
        return EmptySet(a.dim)
    if isinstance(a, PointCloud) or isinstance(b, PointCloud):
        cloud, other = (a, b) if isinstance(a, PointCloud) else (b, a)
        kept = tuple(p for p in cloud.points if other.contains(p, tol))
        return PointCloud(kept) if kept else EmptySet(a.dim)
    if isinstance(a, Box) and isinstance(b, Box):
        return _box_intersect(a, b)
    if isinstance(a, LevelSet) and isinstance(b, Box):
        inner = _box_intersect(a.box, b)
        if isinstance(inner, EmptySet):
            return inner
        return LevelSet(a.constraints, a.params, inner)
    if isinstance(a, Box) and isinstance(b, LevelSet):
        return _intersect_desc(b, a, tol)
    if isinstance(a, LevelSet) and isinstance(b, LevelSet):
        inner = _box_intersect(a.box, b.box)
        if isinstance(inner, EmptySet):
            return inner
        return LevelSet(a.substituted() + b.substituted(), (), inner)
    raise IncompatibleRepresentation(
        f"cannot intersect {type(a).__name__} with {type(b).__name__}"
    )  # pragma: no cover - all combinations handled above


def intersect_setmaps(maps: Sequence[RandomSet], tol: float = 0.0) -> RandomSet:
    """Scenario-wise intersection; empty values become EmptySet markers."""
    if not maps:
        raise ValueError("need at least one random set")
    space = maps[0].space
    for m in maps[1:]:
        if m.space != space:
            raise DomainMismatch("random sets live on different spaces")
    descs: dict[Scenario, SetDescription] = dict(maps[0].descriptions)
    for m in maps[1:]:
        for omega in space.scenarios:
            descs[omega] = _intersect_desc(descs[omega], m.descriptions[omega], tol)
    return RandomSet(space, descs)
