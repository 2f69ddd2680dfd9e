"""Scenario-indexed smooth functions and set-valued maps.

A :class:`RandomFunction` is one expression body shared by all scenarios,
made scenario-dependent through per-scenario parameter vectors.  Its
gradient and Hessian are exact symbolic derivatives.

A :class:`RandomSet` maps each scenario to one of three compact
descriptions: an axis-aligned box, a finite point cloud, or the zero set
of smooth constraints clipped to a bounding box.

Work that depends on a scenario only through its parameter vector and set
description is done once per bit-exact input, at the scenarios that
:func:`first_of_input` names; the rows of such work for many scenarios go
to ``exprlang.eval_rows`` in stacks of at most ``STACK_ROWS`` rows
(``_stacks``).
"""

from __future__ import annotations

import dataclasses
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import exprlang
from .errors import (
    DomainMismatch,
    DomainViolation,
    IncompatibleRepresentation,
    RandoptError,
)
from .exprlang import Expression
from .probspace import (
    MeasurabilityVerdict,
    Point,
    ProbSpace,
    Scenario,
    _first_failure,
    _require_entries,
    _require_finite,
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
        """(lo + hi) / 2 per axis, or lo / 2 + hi / 2 where lo + hi overflows."""
        return tuple(
            (lo + hi) / 2.0 if math.isfinite(lo + hi) else lo / 2.0 + hi / 2.0
            for lo, hi in zip(self.lower, self.upper)
        )

    def corners(self) -> list[Point]:
        pts = [()]
        for lo, hi in zip(self.lower, self.upper):
            pts = [p + (v,) for p in pts for v in ((lo,) if lo == hi else (lo, hi))]
        return [tuple(p) for p in pts]

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
        if len(set(map(len, self.points))) != 1:
            raise IncompatibleRepresentation("point cloud mixes dimensions")
        _require_finite(chain.from_iterable(self.points), IncompatibleRepresentation)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @cached_property
    def array(self) -> np.ndarray:
        """The points as a read-only (m, n) float array."""
        a = np.array(self.points, dtype=float)
        a.flags.writeable = False
        return a

    def distance(self, other) -> float:
        if not isinstance(other, PointCloud) or other.dim != self.dim:
            return math.inf
        return _hausdorff(self.array, other.array)


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


SetDescription = Union[Box, PointCloud, LevelSet]


def exact_key(values: Sequence[float]) -> bytes:
    """Bit-exact identity of a vector of numbers: its float64 bytes, as
    every evaluator reads each number as a float.  ``0.0`` and ``-0.0`` get
    different keys, which ``==`` would merge; ``1``, ``1.0`` and ``True``
    get one.  ``struct`` packs the bytes that numpy's ``tobytes`` would
    give, without building an array.  A number too large for a float
    raises ``struct.error``, so callers key only what ``_require_finite``
    has passed."""
    return struct.pack(f"{len(values)}d", *values)


def description_key(desc: Union[SetDescription, Point]) -> tuple:
    """Bit-exact identity of a Box, of a PointCloud with its points in
    listed order, or of a point given as a tuple (a candidate's value); any
    other description is keyed by object identity."""
    if isinstance(desc, Box):
        return (Box, exact_key(desc.lower + desc.upper))
    if isinstance(desc, PointCloud):
        return (PointCloud, desc.dim, exact_key([v for p in desc.points for v in p]))
    if isinstance(desc, tuple):
        return (tuple, exact_key(desc))
    return (type(desc), id(desc))


@dataclass(frozen=True)
class RandomSet:
    """Set-valued map scenario -> compact subset of R^n."""

    space: ProbSpace
    descriptions: Mapping[Scenario, SetDescription]

    def __post_init__(self):
        _require_entries(self.space, self.descriptions, "set description")
        # a description that scenarios share is read once
        dims = {d.dim for d in {id(d): d for d in self.descriptions.values()}.values()}
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
            else:  # LevelSet
                dlo, dhi = d.box.lower, d.box.upper
            lo = [min(a, b) for a, b in zip(lo, dlo)]
            hi = [max(a, b) for a, b in zip(hi, dhi)]
        return Box(tuple(lo), tuple(hi))


# --- column folds -----------------------------------------------------------------
#
# A max or an all over a short last axis (the coordinates of a point, the
# row of a matrix) is a fold of its columns: numpy reduces such an axis row
# by row, and on a (1620, 2) stack ``.max(axis=1)`` took about 25 times as
# long as the fold (numpy 2.4, x86-64).  Sums stay numpy reductions, since
# a fold would add in another order than numpy's.


def column_max(A: np.ndarray) -> np.ndarray:
    """``A.max(axis=-1)`` for a last axis of length >= 1, as a fold of its
    columns with ``np.maximum``: NaN where a row holds a NaN, and else the
    row's largest entry.  The folds in the package take it of magnitudes
    (no -0.0), where it has the reduction's bits; of signed entries, the
    two may give different zeros of a tie of 0.0 and -0.0, or NaNs of
    different signs, as the reduction's loop varies with numpy's dispatch."""
    out = A[..., 0].copy()
    for j in range(1, A.shape[-1]):
        np.maximum(out, A[..., j], out=out)
    return out


def column_all(A: np.ndarray) -> np.ndarray:
    """``A.all(axis=-1)`` of a boolean array whose last axis has length
    >= 1, as a fold of its columns with ``np.logical_and``."""
    out = A[..., 0].copy()
    for j in range(1, A.shape[-1]):
        np.logical_and(out, A[..., j], out=out)
    return out


HAUSDORFF_BLOCK_PAIRS = 1 << 14  # point pairs one block of _hausdorff holds


def _hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    """Hausdorff distance in the sup norm between the rows of A and of B.

    The rows of A go in blocks of as many rows, at least one, as make at
    most ``HAUSDORFF_BLOCK_PAIRS`` pairs with the rows of B.  Subtraction,
    ``abs``, ``min`` and ``max`` (``column_max`` over the coordinates) round
    as Python's do, and |b - a| is |a - b|, so on float coordinates every
    gap has the bits of the scalar loop; a difference that overflows is
    inf, as in Python.
    """
    rows = max(1, HAUSDORFF_BLOCK_PAIRS // len(B))
    d_ab = 0.0  # every gap is at least +0.0
    d_b = np.full(len(B), math.inf)  # distance of each row of B to A
    with np.errstate(over="ignore"):
        for start in range(0, len(A), rows):
            D = column_max(np.abs(A[start : start + rows, None] - B[None]))
            d_ab = max(d_ab, D.min(axis=1).max())
            np.minimum(d_b, D.min(axis=0), out=d_b)
    return float(max(d_ab, d_b.max()))


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
        _require_entries(self.space, self.params, "parameters")
        checked: set[int] = set()  # a vector that scenarios share is checked once
        for s, p in self.params.items():
            if id(p) in checked:
                continue
            if len(p) != self.body.k:
                raise DomainMismatch(
                    f"scenario {s!r} has {len(p)} parameters, body declares {self.body.k}"
                )
            _require_finite(p, DomainMismatch)
            checked.add(id(p))

    @cached_property
    def grad_exprs(self) -> tuple[Expression, ...]:
        return tuple(exprlang.differentiate(self.body, i) for i in range(1, self.n + 1))

    @cached_property
    def hess_exprs(self) -> tuple[tuple[Expression, ...], ...]:
        return tuple(
            tuple(exprlang.differentiate(g, j) for j in range(1, self.n + 1))
            for g in self.grad_exprs
        )

    # f is lowered as self.body.lowered; the gradient and the Hessian are
    # bundles of their own, since a Hessian entry can fail where the
    # gradient is finite (f = (1e200*x1)^2).  Each is lowered once, and runs
    # on stacks (exprlang.eval_rows) and on one row for a scalar call.
    @cached_property
    def grad_lowered(self) -> "exprlang._Compiler":
        return exprlang._Compiler([g.root for g in self.grad_exprs])

    @cached_property
    def hess_lowered(self) -> "exprlang._Compiler":
        """The n^2 Hessian entries, row by row."""
        return exprlang._Compiler([h.root for row in self.hess_exprs for h in row])

    def params_of(self, omega: Scenario) -> tuple[float, ...]:
        try:
            return self.params[omega]
        except KeyError:
            raise DomainMismatch(f"scenario {omega!r} not in this space") from None


def first_of_input(
    rf: RandomFunction,
    descriptions: Optional[Mapping[Scenario, Union[SetDescription, Point]]] = None,
) -> dict[Scenario, Scenario]:
    """Each scenario in the space's order, mapped to the first scenario
    with the same bit-exact parameter vector (``exact_key``) and, if
    given, set description or point (``description_key``).

    Inputs are keyed by identity first: an object that several scenarios
    hold, as the loader gives every scenario whose vector has the same bits,
    is keyed once.  Equal but distinct objects, as a library caller may
    pass, still get one key by value."""
    param_keys: dict[int, bytes] = {}  # id of a parameter vector -> its key
    desc_keys: dict[int, tuple] = {}  # id of a description -> its key
    first: dict[object, Scenario] = {}
    out: dict[Scenario, Scenario] = {}
    for omega in rf.space.scenarios:
        params = rf.params_of(omega)
        key = param_keys.get(id(params))
        if key is None:
            key = param_keys[id(params)] = exact_key(params)
        if descriptions is not None:
            desc = descriptions[omega]
            dkey = desc_keys.get(id(desc))
            if dkey is None:
                dkey = desc_keys[id(desc)] = description_key(desc)
            key = (key, dkey)
        out[omega] = first.setdefault(key, omega)
    return out


# Every stack of scenario rows (Newton's, the convexity check's and the
# joint measurability check's) holds at most this many rows (``_stacks``).
STACK_ROWS = 1 << 15


def _params_rows(rf: RandomFunction, scenarios: Sequence[Scenario], repeats: int) -> np.ndarray:
    """The parameter vector of each scenario in turn, ``repeats`` rows each."""
    P = np.array([rf.params_of(omega) for omega in scenarios], dtype=float)
    return np.repeat(P.reshape(len(scenarios), rf.body.k), repeats, axis=0)


def _stacks(
    rf: RandomFunction, scenarios: Sequence[Scenario], points: Sequence[Point]
) -> Iterator[tuple[Sequence[Scenario], np.ndarray, np.ndarray]]:
    """All of ``points`` for each of ``scenarios`` in turn, in stacks of at
    most ``STACK_ROWS`` rows (at least one scenario each): yields each
    stack's scenarios, its point rows and its parameter rows."""
    m = len(points)
    per_stack = max(1, STACK_ROWS // m)
    for lo in range(0, len(scenarios), per_stack):
        chunk = scenarios[lo : lo + per_stack]
        yield chunk, np.tile(points, (len(chunk), 1)), _params_rows(rf, chunk, m)


def eval_f(rf: RandomFunction, omega: Scenario, x: Sequence[float]) -> float:
    return exprlang.evaluate(rf.body, exprlang.Env(tuple(x), rf.params_of(omega)))


def gradient(rf: RandomFunction, omega: Scenario, x: Sequence[float]) -> np.ndarray:
    return np.array(exprlang.eval_row(rf.grad_lowered, rf.n, rf.body.k, x, rf.params_of(omega)))


def symmetrize(H: np.ndarray) -> np.ndarray:
    """The average of ``H`` and its transpose over the last two axes, (a + b) / 2
    per pair, or a / 2 + b / 2 where a + b overflows: never inf for finite entries."""
    T = np.swapaxes(H, -1, -2)
    with np.errstate(over="ignore"):
        S = (H + T) / 2.0
    over = np.isinf(S)
    if over.any():
        S[over] = H[over] / 2.0 + T[over] / 2.0
    return S


def hessian(rf: RandomFunction, omega: Scenario, x: Sequence[float]) -> np.ndarray:
    """Symbolic Hessian, symmetrized (``symmetrize``)."""
    H = np.array(exprlang.eval_row(rf.hess_lowered, rf.n, rf.body.k, x, rf.params_of(omega)))
    return symmetrize(H.reshape(rf.n, rf.n))


# --- joint measurability ------------------------------------------------------------


def check_joint_measurability(
    rf: RandomFunction, probe_grid: Sequence[Sequence[float]]
) -> MeasurabilityVerdict:
    """Measurable iff f(., x) is constant on every atom at every probe x.

    Comparison is exact (tolerance 0): scenarios with identical parameters
    run the identical expression tree, so equality is bitwise.  f is
    evaluated at every probe for each distinct parameter vector (at its
    ``first_of_input``), in ``eval_rows`` stacks (``_stacks``), each row
    with the bits it has alone; the first vector in the space's order with
    an undefined probe raises, naming its first such probe.  Every scenario
    holds its first's row of values, and the atoms are scanned by
    ``_first_failure``; the witness holds the first probe at which the
    failing pair differs.
    """
    if not probe_grid:
        raise ValueError("probe grid must be nonempty")
    X = np.asarray([tuple(p) for p in probe_grid], dtype=float)
    if X.ndim != 2 or X.shape[1] != rf.n:
        raise ValueError(f"X must have shape (N, {rf.n})")
    m = len(X)
    first = first_of_input(rf)
    rows: dict[Scenario, np.ndarray] = {}
    for chunk, stack, P in _stacks(rf, [omega for omega, f in first.items() if f == omega], X):
        vals, valid = exprlang.eval_rows(rf.body.lowered, stack, P)
        if not valid.all():
            bad = int(np.argmin(valid))
            raise DomainViolation(
                f"objective undefined at probe {tuple(float(v) for v in X[bad % m])} "
                f"in scenario {chunk[bad // m]!r}"
            )
        rows.update(zip(chunk, vals.reshape(len(chunk), m)))
    values = {omega: rows[f] for omega, f in first.items()}

    def first_diff(a: Scenario, b: Scenario) -> int:  # 0 if a and b agree
        return int(np.argmax(values[a] != values[b]))

    def gap(a: Scenario, b: Scenario) -> float:
        i = first_diff(a, b)
        return abs(float(values[a][i] - values[b][i]))

    w = _first_failure(rf.space.atoms, gap, 0.0, values)
    if w is None:
        return MeasurabilityVerdict(True)
    i = first_diff(w.scenario_a, w.scenario_b)
    probe = tuple(float(v) for v in X[i])
    witness = dataclasses.replace(
        w, probe=probe, value_a=float(w.value_a[i]), value_b=float(w.value_b[i])
    )
    return MeasurabilityVerdict(False, witness)


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
    """First ``count`` Halton points in [0,1]^dim (deterministic), for
    ``dim`` up to ``len(_PRIMES)``."""
    pts = np.empty((count, dim))
    for j in range(dim):
        b = _PRIMES[j]
        for i in range(count):
            pts[i, j] = _radical_inverse(i + 1, b)
    return pts


PROBE_EXTRA = 32  # low-discrepancy points of a probe grid


def default_probe_grid(box: Box) -> list[Point]:
    """Corners and center of ``box`` plus ``PROBE_EXTRA`` low-discrepancy
    points; on an axis whose span passes the largest double, the points of
    the halved bounds doubled.  The low-discrepancy points are one array
    expression on the whole Halton table: each element takes the same
    correctly rounded operations, so its bits do not depend on the table's
    size or numpy's SIMD loop."""
    if box.dim > len(_PRIMES):
        raise RandoptError(
            f"probe grid supports up to {len(_PRIMES)} dimensions, got {box.dim}"
        )
    pts = box.corners()
    pts.append(box.center())
    scale = np.array([2.0 if math.isinf(hi - lo) else 1.0 for lo, hi in zip(box.lower, box.upper)])
    lo = np.array(box.lower) / scale
    hi = np.array(box.upper) / scale
    table = halton_points(PROBE_EXTRA, box.dim)
    pts.extend(map(tuple, (scale * (lo + table * (hi - lo))).tolist()))
    return pts
