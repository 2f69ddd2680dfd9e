"""Records of the grid scans a run makes, for the tests that count them.

``patch_everywhere`` replaces a function in every randopt module that
imported it by name.  ``record_scans`` sets the tile sides and the cap on
one stacked array (``tiles.COARSE_TILE``, ``tiles.FINE_TILE`` and
``tiles.SCAN_BLOCK_NODES``), and records each input of each ``scan_min``
call as a ``Scan``: its set, grid, parameters, objective, tolerance and
eta.  The scans of one call share a ``Call``, which records each grid of
each stacked ``eval_grid`` call made during it as one tile, with its
parameters.

``scanned_grids`` gives each recorded tile to a box scan of its call with
the same parameter bits whose grid holds the tile's axes as runs of nodes
that it has not evaluated, and checks that there is one: no node of a scan
is evaluated twice.  It also checks that every node left out lies in a
coarse or fine tile that ``block_bound`` excludes: an interval bound
computed here by walking the expression tree, independently of the
library's, that proves every node valid and more than the tolerance above
the scan's eta.  It returns each scan's grid shape and parameters.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from randopt import exprlang, optimize, tiles
from randopt.exprlang import Add, Div, Mul, Neg, Num, Param, Pow, Sub, Var
from randopt.randfunc import Box
from randopt.optimize import grid_axes


def patch_everywhere(monkeypatch, function, replacement) -> None:
    """Replace ``function`` in every randopt module that holds it under some
    name."""
    for name, module in list(sys.modules.items()):
        if name == "randopt" or name.startswith("randopt."):
            for attr in [a for a, v in vars(module).items() if v is function]:
                monkeypatch.setattr(module, attr, replacement)


def set_tiles(monkeypatch, coarse: int, fine: int, block_nodes: int) -> None:
    """Tiles of ``coarse`` and ``fine`` nodes a side, and at most
    ``block_nodes`` numbers in one stacked array: a box of more nodes is
    scanned by tiles."""
    monkeypatch.setattr(tiles, "COARSE_TILE", coarse)
    monkeypatch.setattr(tiles, "FINE_TILE", fine)
    monkeypatch.setattr(tiles, "SCAN_BLOCK_NODES", block_nodes)


@dataclass
class Call:
    """One ``scan_min`` call: ``tiles`` holds the ``(axes, p)`` of each grid
    of its ``eval_grid`` calls, in order, and ``stacks`` the number of grids
    of each call."""

    tiles: list = field(default_factory=list)
    stacks: list = field(default_factory=list)


@dataclass
class Scan:
    """One input of a ``scan_min`` call; ``eta`` is None where it raised.
    ``scanned_grids`` sets ``tiles``, the (start, stop) node index ranges of
    the tiles evaluated for it, in order; ``skipped``, those of the tiles
    whose nodes were left out, each excluded by the bound; and
    ``evaluated``, the number of nodes evaluated."""

    C_omega: object
    grid_m: Optional[int]
    p: Optional[tuple]
    body: object = None
    tol: float = 0.0
    call: Call = field(default_factory=Call)
    sides: tuple = ()
    eta: Optional[float] = None
    tiles: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    evaluated: int = 0


def record_scans(monkeypatch, coarse: int, fine: int, block_nodes: int) -> list:
    """Scan by tiles of ``coarse`` and ``fine`` nodes a side, with at most
    ``block_nodes`` numbers in one stacked array (``set_tiles``), and return
    the list that each input of each scan appends its ``Scan`` to.  An
    ``eval_grid`` call outside a scan is appended as a ``Scan`` of no
    set."""
    set_tiles(monkeypatch, coarse, fine, block_nodes)
    scans, active = [], []
    scan_min, eval_grid = optimize.scan_min, exprlang.eval_grid

    def params(rf, omega):
        try:
            return rf.params_of(omega)
        except Exception:
            return None

    def scanning(rf, inputs, grid_m, tol):
        call = Call()
        batch = [
            Scan(C, grid_m, params(rf, omega), rf.body, tol, call, (coarse, fine))
            for omega, C in inputs
        ]
        scans.extend(batch)
        active.append(call)
        try:
            outcomes = scan_min(rf, inputs, grid_m, tol)
        finally:
            active.pop()
        for scan, outcome in zip(batch, outcomes):
            if not isinstance(outcome, Exception):
                scan.eta = outcome[1]
        return outcomes

    def evaluating(e, axes, p=()):
        if np.ndim(axes[0]) == 2:  # a stack of grids, each with its parameters
            rows = np.broadcast_to(np.asarray(p, dtype=float), (len(axes[0]), e.k))
            grids = [(tuple(a[j] for a in axes), tuple(rows[j])) for j in range(len(axes[0]))]
        else:
            grids = [(tuple(axes), tuple(p))]
        if active:
            active[-1].tiles.extend(grids)
            active[-1].stacks.append(len(grids))
        else:
            scans.append(Scan(None, None, tuple(p), call=Call(grids, [len(grids)])))
        return eval_grid(e, axes, p)

    patch_everywhere(monkeypatch, scan_min, scanning)
    patch_everywhere(monkeypatch, eval_grid, evaluating)
    return scans


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


# --- an interval bound by walking the tree ---------------------------------------


class _Unbounded(Exception):
    """A node the bound does not cover."""


def _down(v: float) -> float:
    return -math.inf if math.isnan(v) else math.nextafter(v, -math.inf)


def _up(v: float) -> float:
    return math.inf if math.isnan(v) else math.nextafter(v, math.inf)


def _interval(node, box, p) -> tuple[float, float, bool]:
    """(lo, hi, proved): the computed value of ``node`` lies in [lo, hi] at
    every point of ``box`` (a (lower, upper) pair per variable) where
    evaluation does not fail, and ``proved`` is True where the zero and
    finite checks of the node and its subtrees cannot fail there."""
    if isinstance(node, Num):
        return node.value, node.value, True
    if isinstance(node, Var):
        return (*box[node.index - 1], True)
    if isinstance(node, Param):
        return p[node.index - 1], p[node.index - 1], True
    if isinstance(node, Neg):
        lo, hi, proved = _interval(node.arg, box, p)
        return -hi, -lo, proved
    if isinstance(node, Pow) and node.exponent == 2:
        lo, hi, proved = _interval(node.base, box, p)
        low = 0.0 if lo <= 0.0 <= hi else max(_down(min(lo * lo, hi * hi)), 0.0)
        high = _up(max(lo * lo, hi * hi))
    elif isinstance(node, (Add, Sub, Mul)):
        a, b, left = _interval(node.left, box, p)
        c, d, right = _interval(node.right, box, p)
        proved = left and right
        if isinstance(node, Add):
            low, high = _down(a + c), _up(b + d)
        elif isinstance(node, Sub):
            low, high = _down(a - d), _up(b - c)
        else:
            corners = [a * c, a * d, b * c, b * d]
            if any(math.isnan(v) for v in corners):
                low, high = -math.inf, math.inf
            else:
                low, high = _down(min(corners)), _up(max(corners))
    elif isinstance(node, Div):
        c, d, right = _interval(node.right, box, p)  # the denominator first
        a, b, left = _interval(node.left, box, p)
        proved = right and (c > 0.0 or d < 0.0) and left
        if c > 0.0 or d < 0.0:
            corners = [a / c, a / d, b / c, b / d]
            if any(math.isnan(v) for v in corners):
                low, high = -math.inf, math.inf
            else:
                low, high = _down(min(corners)), _up(max(corners))
        elif c == 0.0 and d > 0.0:  # a valid denominator is positive
            low = _down(a / d) if a >= 0.0 else -math.inf
            high = _up(b / d) if b <= 0.0 else math.inf
        elif d == 0.0 and c < 0.0:  # a valid denominator is negative
            low = _down(b / c) if b <= 0.0 else -math.inf
            high = _up(a / c) if a >= 0.0 else math.inf
        else:
            low, high = -math.inf, math.inf
    else:
        raise _Unbounded(node)
    return low, high, proved and math.isfinite(low) and math.isfinite(high)


def block_bound(body, axes, p) -> Optional[tuple[float, bool]]:
    """(lower bound, proved) of ``body`` on the box spanned by the grid
    axes ``axes``; None where the tree holds a node other than a leaf,
    ``neg + - * /`` or a square."""
    box = [(float(np.min(a)), float(np.max(a))) for a in axes]
    try:
        low, _, proved = _interval(body.root, box, tuple(float(v) for v in p))
    except _Unbounded:
        return None
    return low, proved


# --- the check -----------------------------------------------------------------------


def _node_index(axes: list) -> list:
    """Per axis, the indices of the nodes of each bit pattern."""
    index = []
    for axis in axes:
        where: dict = {}
        for i, v in enumerate(axis.view(np.uint64).tolist()):
            where.setdefault(v, []).append(i)
        index.append((axis.view(np.uint64).tolist(), where))
    return index


def _placements(index: list, tile: tuple) -> list:
    """Each (start, stop) per axis at which the grid of ``_node_index``
    ``index`` holds the tile's axes as runs of nodes, bit for bit."""
    options = []
    for (have, where), part in zip(index, tile):
        want = np.asarray(part, dtype=float).view(np.uint64).tolist()
        starts = [i for i in where.get(want[0], []) if have[i:i + len(want)] == want]
        options.append([(i, i + len(want)) for i in starts])
    return list(itertools.product(*options))


def _ranges(shape: tuple, side: int, within: Optional[tuple] = None) -> list:
    """The tiles of at most ``side`` nodes a side that partition ``within``
    (a (start, stop) per axis; the whole grid by default), in grid order."""
    within = within or tuple((0, m) for m in shape)
    per_axis = [[(i, min(i + side, b)) for i in range(a, b, side)] for a, b in within]
    return list(itertools.product(*per_axis))


def _excludes(scan: Scan, axes: list, ranges: tuple) -> bool:
    bound = block_bound(scan.body, [a[i:j] for a, (i, j) in zip(axes, ranges)], scan.p)
    if bound is None or scan.eta is None:
        return False
    low, proved = bound
    return proved and low - scan.eta > scan.tol


def scanned_grids(scans: list) -> list:
    """``(shape, p)`` per recorded scan of a box, after checking that each
    tile its call evaluated is a box of one of its grids, with that scan's
    parameters, and no node of a scan is evaluated twice; and that each
    node a scan left out lies in a coarse tile, or a fine tile of one, that
    ``block_bound`` proves holds valid nodes only, with bound - eta > tol.
    A scan that raised evaluated every node of its grid."""
    out = []
    calls = list({id(scan.call): scan.call for scan in scans}.values())
    for call in calls:
        batch = [scan for scan in scans if scan.call is call]
        for scan in batch:
            assert isinstance(scan.C_omega, Box), "eval_grid called outside a box scan"
            scan.axes = grid_axes(scan.C_omega, scan.grid_m)
            scan.index = _node_index(scan.axes)
            scan.count = np.zeros(tuple(len(a) for a in scan.axes), dtype=int)
        for tile, p in call.tiles:
            # scans whose grid holds the tile where none of its nodes was
            # evaluated; where inputs share parameters and nodes, one that
            # the bound does not let skip the tile goes first
            free = [
                (scan, ranges)
                for scan in batch
                if _bits(p) == _bits(scan.p)
                for ranges in _placements(scan.index, tile)
                if not scan.count[tuple(slice(i, j) for i, j in ranges)].any()
            ]
            assert free, "a tile evaluated twice, with other parameters, or off every grid"
            if len(free) > 1:
                free = [f for f in free if not _excludes(f[0], f[0].axes, f[1])] or free
            scan, ranges = free[0]
            scan.count[tuple(slice(i, j) for i, j in ranges)] += 1
            scan.tiles.append(ranges)
        for scan in batch:
            scan.evaluated = int(scan.count.sum())
            shape = scan.count.shape
            coarse, fine = scan.sides
            for big in _ranges(shape, coarse):
                if scan.count[tuple(slice(i, j) for i, j in big)].all():
                    continue
                if _excludes(scan, scan.axes, big):
                    scan.skipped.append(big)
                    continue
                for small in _ranges(shape, fine, big):
                    if scan.count[tuple(slice(i, j) for i, j in small)].all():
                        continue
                    assert _excludes(scan, scan.axes, small), f"tile {small} left out, eta {scan.eta}"
                    scan.skipped.append(small)
            out.append((shape, tuple(scan.p)))
    return out
