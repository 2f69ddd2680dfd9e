"""Records of the grid scans a run makes, for the tests that count them.

``patch_everywhere`` replaces a function in every randopt module that
imported it by name.  ``record_scans`` sets ``optimize.SCAN_BLOCK_NODES``
and records each ``scan_min`` call as a ``Scan``: its set, grid, parameters,
objective, tolerance and eta, with the ``eval_grid`` calls made during it,
its evaluated blocks.  ``scanned_grids`` checks that the evaluated blocks
of each recorded box scan are blocks of whole slabs of the grid's split
axis, with the scan's parameters, each evaluated at most once, the first
one of them anywhere and the others in the grid's order; and that every
block left out is excluded by ``block_bound``, an interval bound computed
here by walking the expression tree, independently of the library's.  It
returns each scan's grid shape and parameters.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from randopt import exprlang, optimize
from randopt.exprlang import Add, Div, Mul, Neg, Num, Param, Pow, Sub, Var
from randopt.randfunc import Box


def patch_everywhere(monkeypatch, function, replacement) -> None:
    """Replace ``function`` in every randopt module that holds it under some
    name."""
    for name, module in list(sys.modules.items()):
        if name == "randopt" or name.startswith("randopt."):
            for attr in [a for a, v in vars(module).items() if v is function]:
                monkeypatch.setattr(module, attr, replacement)


@dataclass
class Scan:
    """One ``scan_min`` call: ``blocks`` holds the ``(axes, p)`` of each
    ``eval_grid`` call it made, in order; ``eta`` is None where it raised.
    ``scanned_grids`` sets ``skipped``, the indices of the grid's blocks
    that were not evaluated."""

    C_omega: object
    grid_m: Optional[int]
    p: tuple
    body: object = None
    tol: float = 0.0
    blocks: list = field(default_factory=list)
    eta: Optional[float] = None
    skipped: list = field(default_factory=list)


def record_scans(monkeypatch, block_nodes: int) -> list:
    """Scan in blocks of at most ``block_nodes`` nodes, and return the list
    that each scan appends its ``Scan`` to.  An ``eval_grid`` call outside a
    scan is appended as a ``Scan`` of no set."""
    monkeypatch.setattr(optimize, "SCAN_BLOCK_NODES", block_nodes)
    scans, active = [], []
    scan_min, eval_grid = optimize.scan_min, exprlang.eval_grid

    def scanning(rf, omega, C_omega, grid_m, tol):
        active.append(Scan(C_omega, grid_m, rf.params_of(omega), rf.body, tol))
        scans.append(active[-1])
        try:
            result = scan_min(rf, omega, C_omega, grid_m, tol)
            active[-1].eta = result[1]
            return result
        finally:
            active.pop()

    def evaluating(e, axes, p=()):
        if active:
            active[-1].blocks.append((axes, p))
        else:
            scans.append(Scan(None, None, p, blocks=[(axes, p)]))
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


def _order(blocks: list, partition: list) -> Optional[list]:
    """The partition index of each evaluated block, the first anywhere and
    the others in increasing order, none twice; None if there is none."""
    keys = [_bits(a) for a in partition]
    for first, key in enumerate(keys if blocks else ()):
        if key != _bits(blocks[0]):
            continue
        order, i = [first], 0
        for block in blocks[1:]:
            while i < len(keys) and (i == first or keys[i] != _bits(block)):
                i += 1
            if i == len(keys):
                break
            order.append(i)
            i += 1
        else:
            return order
    return None


def scanned_grids(scans: list, block_nodes: int) -> list:
    """``(shape, p)`` per recorded scan of a box, after checking that its
    evaluated blocks are runs of whole slabs of the grid along its first
    axis of more than one node, a block of at most ``block_nodes`` nodes or
    one slab, each evaluated at most once and with the scan's parameters;
    and that each block not evaluated is proved by ``block_bound`` to hold
    valid nodes only, with bound - eta > tol."""
    out = []
    for scan in scans:
        assert isinstance(scan.C_omega, Box), "eval_grid called outside a box scan"
        axes = optimize.grid_axes(scan.C_omega, scan.grid_m)
        shape = tuple(len(a) for a in axes)
        d = next((j for j, m in enumerate(shape) if m > 1), 0)
        slab = math.prod(shape[d + 1:])
        slabs = max(1, block_nodes // slab)
        partition = [axes[d][start:start + slabs] for start in range(0, shape[d], slabs)]
        for block, block_p in scan.blocks:
            assert _bits(block_p) == _bits(scan.p)
            assert [_bits(a) for j, a in enumerate(block) if j != d] == [
                _bits(a) for j, a in enumerate(axes) if j != d
            ]
            assert math.prod(map(len, block)) <= max(block_nodes, slab)
        order = _order([block[d] for block, _ in scan.blocks], partition)
        assert order is not None, "blocks out of order, repeated or not of the grid"
        scan.skipped = [i for i in range(len(partition)) if i not in order]
        for i in scan.skipped:
            block = [*axes[:d], partition[i], *axes[d + 1:]]
            bound = block_bound(scan.body, block, scan.p)
            assert scan.eta is not None and bound is not None, f"block {i} not evaluated"
            low, proved = bound
            assert proved and low - scan.eta > scan.tol, f"block {i} skipped, bound {low}"
        out.append((shape, tuple(scan.p)))
    return out
