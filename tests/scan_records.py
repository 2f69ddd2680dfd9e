"""Records of the grid scans a run makes, for the tests that count them.

``patch_everywhere`` replaces a function in every randopt module that
imported it by name.  ``record_scans`` sets ``optimize.SCAN_BLOCK_NODES``
and records each ``scan_min`` call with the ``eval_grid`` calls made
during it, its blocks.  ``scanned_grids`` checks that the blocks of each
recorded box scan cover the nodes of its grid once each, in the grid's
order, none larger than the block size allows, and returns each scan's
grid shape and parameters.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from randopt import exprlang, optimize
from randopt.randfunc import Box


def patch_everywhere(monkeypatch, function, replacement) -> None:
    """Replace ``function`` in every randopt module that holds it under some
    name."""
    for name, module in list(sys.modules.items()):
        if name == "randopt" or name.startswith("randopt."):
            for attr in [a for a, v in vars(module).items() if v is function]:
                monkeypatch.setattr(module, attr, replacement)


def record_scans(monkeypatch, block_nodes: int) -> list:
    """Scan in blocks of at most ``block_nodes`` nodes, and return the list
    that each scan appends ``(C_omega, grid_m, p, blocks)`` to, ``blocks``
    holding the ``(axes, p)`` of each ``eval_grid`` call of the scan.  An
    ``eval_grid`` call outside a scan is appended as ``(None, None, p,
    [(axes, p)])``."""
    monkeypatch.setattr(optimize, "SCAN_BLOCK_NODES", block_nodes)
    scans, active = [], []
    scan_min, eval_grid = optimize.scan_min, exprlang.eval_grid

    def scanning(rf, omega, C_omega, grid_m, tol):
        active.append((C_omega, grid_m, rf.params_of(omega), []))
        scans.append(active[-1])
        try:
            return scan_min(rf, omega, C_omega, grid_m, tol)
        finally:
            active.pop()

    def evaluating(e, axes, p=()):
        if active:
            active[-1][3].append((axes, p))
        else:
            scans.append((None, None, p, [(axes, p)]))
        return eval_grid(e, axes, p)

    patch_everywhere(monkeypatch, scan_min, scanning)
    patch_everywhere(monkeypatch, eval_grid, evaluating)
    return scans


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def scanned_grids(scans: list, block_nodes: int) -> list:
    """``(shape, p)`` per recorded scan of a box, after checking that its
    blocks split the grid along its first axis of more than one node into
    runs of whole slabs, in order and each node once, with the scan's
    parameters; a block holds at most ``block_nodes`` nodes, or one slab."""
    out = []
    for C_omega, grid_m, p, blocks in scans:
        assert isinstance(C_omega, Box), "eval_grid called outside a box scan"
        axes = optimize.grid_axes(C_omega, grid_m)
        shape = tuple(len(a) for a in axes)
        d = next((j for j, m in enumerate(shape) if m > 1), 0)
        slab = math.prod(shape[d + 1:])
        for block, block_p in blocks:
            assert _bits(block_p) == _bits(p)
            assert [_bits(a) for j, a in enumerate(block) if j != d] == [
                _bits(a) for j, a in enumerate(axes) if j != d
            ]
            assert math.prod(map(len, block)) <= max(block_nodes, slab)
        assert _bits(np.concatenate([block[d] for block, _ in blocks])) == _bits(axes[d])
        out.append((shape, tuple(p)))
    return out
