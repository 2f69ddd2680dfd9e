"""Box scans by tiles: interval branch and bound over grid tiles.

``optimize.scan_min`` finds the least value of f(omega, .) on the grid of
each box of a batch of inputs, and the first node within a tolerance of
it.  It evaluates a box of at most ``SCAN_BLOCK_NODES`` nodes in one call;
this module scans the larger boxes.  Their grids lie end to end
(``Grids``), and a tile is a product of index ranges, one per axis, of one
scan's grid.  A box of an objective that ``exprlang.eval_bounds`` does not
bound is evaluated in full, by the largest pieces of the coarse tiles
(below) that stay under ``SCAN_BLOCK_NODES`` nodes (``_pieces``).  The
other boxes are cut into
tiles of ``COARSE_TILE`` nodes a side, bounded in one run for the whole
batch (``Grids.bounds``).  In each box, the fine tiles
(``FINE_TILE`` a side) of the coarse tile of least bound are bounded, and
the fine tile of least bound is evaluated: that gives found, a value at a
node, so found >= the box's final minimum eta.  A tile is dropped, never
evaluated, when its bound proves every node valid and bound - found >
``tol``: float rounding is monotone, so each of its values v has v - eta >
``tol`` >= 0; it holds neither the point nor eta, and excludes no node.
The coarse tiles left are split into fine tiles, bounded in one more run,
and those left are evaluated, stacked by tile shape in calls of at most
``SCAN_BLOCK_NODES`` nodes to ``exprlang.eval_grid`` (``Grids.evaluate``).
No node is evaluated twice.

``Minima`` keeps, per scan, the least value found, the count of nodes
where evaluation failed, and the strict prefix minima of each evaluated
tile: the nodes that can be the point or the first node attaining eta.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .exprlang import eval_bounds, eval_grid
from .probspace import Point
from .randfunc import RandomFunction

# A box scan puts at most this many numbers in one stacked array: the
# nodes of one evaluation, or a column of tile rows (at least one tile).
# Its float arrays (120 KiB) stay under glibc's 128 KiB mmap threshold, and
# malloc reuses their pages from call to call.  Arrays of 256 KiB made
# 12,000 to 26,000 page faults per global-grid pass, as the heap's layout
# let malloc return pages to the system and fault them in again.  A box of
# at most this many nodes is one block, evaluated in one call.
SCAN_BLOCK_NODES = 15 << 10
# A box scan of more nodes bounds tiles of COARSE_TILE nodes a side, and
# then tiles of FINE_TILE a side in the coarse tiles it keeps.
COARSE_TILE = 40
FINE_TILE = 8


class Grids:
    """The grids of a batch of box scans, scan s's axes laid end to end per
    axis: axis d of scan s is ``nodes[d][offset[s, d]:][:shape[s, d]]``.
    A tile of scan s is the nodes with indices in [start[d], stop[d]) on
    each axis d.  ``grid_axes``' nodes rise along each axis, so its box is
    [``nodes[d][o + start[d]]``, ``nodes[d][o + stop[d] - 1]``], o =
    ``offset[s, d]``."""

    def __init__(self, scans: Sequence[int], axes: Sequence[list], params: Sequence[tuple]):
        """Scan s is input ``scans[s]`` of the batch, on the grid of axes
        ``axes[s]``, with parameters ``params[s]``; scans given one list of
        axes share its nodes."""
        distinct = {id(ax): ax for ax in axes}
        index = {key: g for g, key in enumerate(distinct)}
        grid = [index[id(ax)] for ax in axes]
        self.scan = np.asarray(scans, dtype=np.intp)
        shape = np.array([[len(a) for a in ax] for ax in distinct.values()], dtype=np.intp)
        self.shape = shape[grid]
        self.offset = (np.cumsum(shape, axis=0) - shape)[grid]
        rest = np.cumprod(self.shape[:, ::-1], axis=1)[:, ::-1]
        self.strides = np.concatenate([rest[:, 1:], np.ones((len(grid), 1), np.intp)], axis=1)
        self.nodes = [np.concatenate(column) for column in zip(*distinct.values())]
        self.params = np.array(params, dtype=float).reshape(len(grid), -1)

    def node(self, s: int, i: int) -> Point:
        """Node i of scan s's grid, in raveled order."""
        at = np.unravel_index(i, tuple(self.shape[s]))
        return tuple(float(a[o + j]) for a, o, j in zip(self.nodes, self.offset[s], at))

    def bounds(self, rf: RandomFunction, owner, start, stop) -> tuple[np.ndarray, np.ndarray]:
        """``exprlang.eval_bounds`` on the boxes of the tiles of scans
        ``owner``, with their parameters, in runs of at most ``_rows(rf)``
        tiles."""
        rows = _rows(rf)
        runs = []
        for i in range(0, len(owner), rows):
            o, at = owner[i:i + rows], self.offset[owner[i:i + rows]]
            lower = np.stack([a[j] for a, j in zip(self.nodes, (at + start[i:i + rows]).T)], axis=1)
            upper = np.stack([a[j] for a, j in zip(self.nodes, (at + stop[i:i + rows] - 1).T)], axis=1)
            runs.append(eval_bounds(rf.body, lower, upper, self.params[o]))
        return np.concatenate([r[0] for r in runs]), np.concatenate([r[1] for r in runs])

    def evaluate(self, rf: RandomFunction, owner, start, stop, minima: Minima) -> None:
        """f on the tiles of scans ``owner``, stacked by tile shape in calls
        of at most ``SCAN_BLOCK_NODES`` nodes (one tile at least) to
        ``exprlang.eval_grid``, each with its scan's parameters; the values
        go to ``minima``."""
        shapes = stop - start
        todo = np.ones(len(shapes), dtype=bool)
        while todo.any():
            shape = shapes[np.flatnonzero(todo)[0]]
            rows = np.flatnonzero(todo & _equal_rows(shapes, shape))
            todo[rows] = False
            shape = tuple(shape.tolist())
            per = max(1, SCAN_BLOCK_NODES // math.prod(shape))
            for i in range(0, len(rows), per):
                o, first = owner[rows[i:i + per]], start[rows[i:i + per]]
                at = self.offset[o] + first
                axes = [a[j[:, None] + np.arange(m)] for a, j, m in zip(self.nodes, at.T, shape)]
                values, valid = eval_grid(rf.body, axes, self.params[o])
                minima.add(self.scan[o], values, valid, self._flat(o, first, shape))

    def _flat(self, owner, start, shape: tuple) -> Callable:
        """The flat index of node j of tile t of tiles of this shape, for
        arrays t and j."""
        strides = self.strides[owner]

        def flat(t, j):
            at = np.unravel_index(j, shape)
            return sum((start[t, d] + at[d]) * strides[t, d] for d in range(len(shape)))

        return flat


def _rows(rf: RandomFunction) -> int:
    """The tiles bounded in one run: each of its arrays of a column per
    variable or parameter holds at most ``SCAN_BLOCK_NODES`` numbers."""
    return max(1, SCAN_BLOCK_NODES // max(rf.n, rf.body.k, 1))


def _split(owner, start, stop, side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tiles of at most ``side`` nodes a side (one side, or one per
    axis) that partition the tiles (``owner``, ``start``, ``stop``): tile
    by tile, and each one's in grid order."""
    sides = [side] * start.shape[1] if isinstance(side, int) else list(side)
    counts = [-(-m // s) for m, s in zip((stop - start).max(axis=0).tolist(), sides)]
    starts = start[:, None, :] + np.indices(counts).reshape(len(counts), -1).T * sides
    inside = starts[:, :, 0] < stop[:, None, 0]
    for d in range(1, start.shape[1]):
        inside &= starts[:, :, d] < stop[:, None, d]
    rows = np.nonzero(inside)[0]
    starts = starts[inside]
    return owner[rows], starts, np.minimum(starts + sides, stop[rows])


def _pieces(n: int) -> list[int]:
    """The sides of the largest piece of a coarse tile of ``n`` axes that
    holds at most ``SCAN_BLOCK_NODES`` nodes, as long as it can be along the
    last axes: a step runs fastest on long rows."""
    sides, room = [], SCAN_BLOCK_NODES
    for _ in range(n):
        sides.insert(0, max(1, min(COARSE_TILE, room)))
        room //= sides[0]
    return sides


def _equal_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, whether ``a`` equals ``b`` (rows that broadcast with it) in
    every column."""
    same = a[:, 0] == b[..., 0]
    for j in range(1, a.shape[1]):
        same &= a[:, j] == b[..., j]
    return same


def _runs(owner) -> np.ndarray:
    """The index of the first row of each scan in the sorted ``owner``."""
    return np.flatnonzero(np.concatenate(([True], owner[1:] != owner[:-1])))


def _least_first(owner, least) -> np.ndarray:
    """Per scan of the sorted ``owner``, the index of its first tile of
    least bound."""
    first = _runs(owner)
    low = np.minimum.reduceat(least, first)
    at = np.flatnonzero(least == np.repeat(low, np.diff(np.append(first, len(owner)))))
    return at[_runs(owner[at])]


def _lower(target: np.ndarray, owner, values) -> None:
    """``target[s]`` = min(``target[s]``, every value of scan s), for
    ``owner`` sorted."""
    if len(owner):
        first = _runs(owner)
        at = owner[first]
        target[at] = np.minimum(target[at], np.minimum.reduceat(values, first))


class Minima:
    """What a batch of scans keeps of the values it evaluates, per scan:
    ``found``, the least value evaluated so far; ``excluded``, the nodes
    where evaluation failed; and candidates (scan, flat index, value) for
    the point and eta, in parts sorted by scan.

    The first node with value - eta <= ``tol``, and the first attaining
    eta, each has a value below every earlier node's, so each is a strict
    prefix minimum of the values in the grid's raveled order, and also of
    its own tile's values in the tile's order.  A tile's candidates are its
    strict prefix minima within ``tol`` of ``found``; once more than a
    quarter of ``SCAN_BLOCK_NODES`` (or twice the last count) are held, only
    the strict prefix minima of each scan's candidates in raveled order
    stay."""

    def __init__(self, scans: int, tol: float):
        self.tol = tol
        self.found = np.full(scans, np.inf)
        self.excluded = np.zeros(scans, dtype=np.intp)
        self.parts: list[tuple] = []
        self.held = 0
        self.limit = SCAN_BLOCK_NODES // 4

    def add(self, owner, values, valid, flat: Callable) -> None:
        """The values of tiles, one row per tile of scan ``owner[t]`` with
        ``owner`` sorted, each in the tile's order (NaN where ``valid`` is
        False); ``flat(t, j)`` gives the flat indices of nodes j of tiles
        t."""
        if np.count_nonzero(valid) < valid.size:
            first = _runs(owner)
            failed = valid.shape[1] - np.count_nonzero(valid, axis=1)
            self.excluded[owner[first]] += np.add.reduceat(failed, first)
            values[~valid] = np.inf
        least = values.min(axis=1)
        _lower(self.found, owner, least)
        rows = np.flatnonzero(self._near(owner, least))  # the tiles with a candidate
        values = values[rows]
        near = self._near(owner[rows, None], values)
        # a strict prefix minimum lies below every earlier value of its tile
        near[:, 1:] &= values[:, 1:] < np.minimum.accumulate(values[:, :-1], axis=1)
        t, j = np.nonzero(near)
        self.parts.append((owner[rows[t]], flat(rows[t], j), values[t, j]))
        self.held += len(t)
        if self.held > self.limit:
            self.parts = [self._prefix_minima()]
            self.held = len(self.parts[0][0])
            self.limit = max(self.limit, 2 * self.held)

    def _near(self, owner, values) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return values - self.found[owner] <= self.tol

    def _prefix_minima(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The candidates that are strict prefix minima of their scan's in
        raveled order, within ``tol`` of ``found``, sorted by scan and flat
        index."""
        owner, flat, values = (np.concatenate(c) for c in zip(*self.parts))
        order = np.lexsort((flat, owner))
        owner, flat, values = owner[order], flat[order], values[order]
        keep = self._near(owner, values)
        ends = [*_runs(owner).tolist(), len(owner)]
        for a, b in zip(ends, ends[1:]):  # one scan's candidates
            keep[a + 1:b] &= values[a + 1:b] < np.minimum.accumulate(values[a:b - 1])
        return owner[keep], flat[keep], values[keep]

    def selected(self) -> dict[int, tuple[int, float]]:
        """Per scan with a valid node, (flat index of the point, eta): the
        first candidate within ``tol`` of the least value, and the value of
        the first candidate attaining it."""
        point = np.full(len(self.found), np.iinfo(np.intp).max)
        first = point.copy()
        least = [values == self.found[owner] for owner, _, values in self.parts]
        for (owner, flat, values), at in zip(self.parts, least):
            near = self._near(owner, values)
            _lower(point, owner[near], flat[near])
            _lower(first, owner[at], flat[at])
        eta = {}
        for (owner, flat, values), at in zip(self.parts, least):
            at &= flat == first[owner]
            eta.update(zip(owner[at].tolist(), values[at].tolist()))
        return {s: (int(point[s]), v) for s, v in eta.items()}


def scan_boxes(rf: RandomFunction, grids: Grids, minima: Minima) -> None:
    """Evaluate the box scans of ``grids`` into ``minima``, skipping the
    tiles a bound excludes (see the module docstring).  The scans are taken
    in groups whose coarse tiles and first fine tiles fit one run."""
    bounded = rf.body.lowered.bounded
    rows = _rows(rf)
    fine_per_coarse = (-(-COARSE_TILE // FINE_TILE)) ** rf.n
    groups: list[list[int]] = []
    room = 0
    for s, shape in enumerate(grids.shape.tolist()):
        cost = math.prod(-(-m // COARSE_TILE) for m in shape) + fine_per_coarse
        if not groups or cost > room:
            groups.append([])
            room = rows
        groups[-1].append(s)
        room -= cost

    def dropped(owner, least, proved) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return proved & (least - minima.found[grids.scan[owner]] > minima.tol)

    for group in map(np.array, groups):
        owner, start, stop = _split(group, np.zeros_like(grids.shape[group]), grids.shape[group], COARSE_TILE)
        first = np.full(grids.shape.shape, -1)  # per scan, the start of its first fine tile
        if bounded:
            least, proved = grids.bounds(rf, owner, start, stop)
            at = _least_first(owner, least)
            f_owner, f_start, f_stop = _split(owner[at], start[at], stop[at], FINE_TILE)
            at = _least_first(f_owner, grids.bounds(rf, f_owner, f_start, f_stop)[0])
            grids.evaluate(rf, f_owner[at], f_start[at], f_stop[at], minima)
            first[f_owner[at]] = f_start[at]
            keep = ~dropped(owner, least, proved)
            owner, start, stop = owner[keep], start[keep], stop[keep]
        step = max(1, rows // fine_per_coarse)
        for i in range(0, len(owner), step):
            f_owner, f_start, f_stop = _split(
                owner[i:i + step], start[i:i + step], stop[i:i + step],
                FINE_TILE if bounded else _pieces(rf.n),
            )
            if bounded:
                keep = ~dropped(f_owner, *grids.bounds(rf, f_owner, f_start, f_stop))
                keep &= ~_equal_rows(f_start, first[f_owner])
                f_owner, f_start, f_stop = f_owner[keep], f_start[keep], f_stop[keep]
            if len(f_owner):
                grids.evaluate(rf, f_owner, f_start, f_stop, minima)
