"""Span tracing of randopt's layers from outside the package.

Wrappers are installed on every binding of a traced function in the
loaded randopt modules (``selection`` and ``optimize`` import ``gradient``,
``hessian``, ``global_min_compact`` and the measurability checks by name),
and on the class attribute for methods.  Each call records one span: name,
job, parent span, start and end.  Spans stay in memory in flat arrays and
are reduced to per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rows(tr, args, kwargs, result):
    tr.count("exprlang.eval_batch.rows", len(_arg(args, kwargs, 1, "X")))


def _count_bytes(tr, args, kwargs, result):
    tr.count("jsonout.dumps.bytes", len(result.encode("utf-8")))


def _count_newton(tr, args, kwargs, result):
    tr.count("optimize.newton_starts", result.starts)
    tr.count("optimize.newton_converged", result.starts - result.skipped_singular - result.stalled)
    tr.count("optimize.newton_kept", len(result.points))


def _count_grid(tr, args, kwargs, result):
    region, m = _arg(args, kwargs, 2, "C_omega"), _arg(args, kwargs, 3, "grid_m")
    if hasattr(region, "lower"):
        points = math.prod(1 if lo == hi else max(m, 2) for lo, hi in zip(region.lower, region.upper))
    else:
        points = len(region.points)
    tr.count("optimize.global_min_compact.grid_points", points)


def _count_atoms(tr, args, kwargs, result):
    tr.count("selection.solve_rop.atoms", len(_arg(args, kwargs, 1, "space").atoms))


def _span_name(module: str, attr: str) -> str:
    # metric names start with a letter, so _jsonout reports as jsonout
    return f"{module.lstrip('_')}.{attr}"


# (module, attribute, optional counter hook); the span is named module.attribute
TRACED = (
    ("document", "load_problem", None),
    ("cli", "run", None),
    ("_jsonout", "dumps", _count_bytes),
    ("exprlang", "parse", None),
    ("exprlang", "differentiate", None),
    ("exprlang", "substitute_params", None),
    ("exprlang", "evaluate", None),
    ("exprlang", "eval_batch", _count_rows),
    ("randfunc", "eval_f", None),
    ("randfunc", "eval_f_batch", None),
    ("randfunc", "gradient", None),
    ("randfunc", "hessian", None),
    ("randfunc", "check_joint_measurability", None),
    ("randfunc", "Box.distance", None),
    ("randfunc", "PointCloud.distance", None),
    ("randfunc", "LevelSet.distance", None),
    ("optimize", "find_stationary_points", _count_newton),
    ("optimize", "verify_local_min", None),
    ("optimize", "classify_definiteness", None),
    ("optimize", "global_min_compact", _count_grid),
    ("optimize", "optimal_value", None),
    ("probspace", "make_space", None),
    ("probspace", "is_measurable_rv", None),
    ("probspace", "is_measurable_setmap", None),
    ("selection", "canonical_select", None),
    ("selection", "solve_random_equation", None),
    ("selection", "solve_rop", _count_atoms),
    ("selection", "solve_rlop", None),
    ("selection", "check_necessary_conditions", None),
)
DISTANCES = ("randfunc.Box.distance", "randfunc.PointCloud.distance", "randfunc.LevelSet.distance")

# Which end-to-end metric each layer's numbers should move, and on which
# workload; the first matching prefix applies.  Predicted non-moves: a
# probspace change leaves local-2d and global-grid flat, a scalar-evaluator
# change leaves oracle_s on global-grid flat, and a faster evaluator that
# costs more set-up shows as pass_s on gallery.
MOVES = (
    ("document.", "pass_s on gallery"),
    ("cli.", "pass_s on gallery"),
    ("jsonout.", "pass_s on gallery and wide-atoms"),
    ("exprlang.parse.", "pass_s on gallery"),
    ("exprlang.differentiate.", "pass_s on gallery"),
    ("exprlang.evaluate.", "solve_rlop_s, stationary_s, necessary_s on local-2d"),
    ("exprlang.eval_batch.", "solve_rop_s, oracle_s on global-grid"),
    ("randfunc.gradient.", "solve_rlop_s, stationary_s on local-2d"),
    ("randfunc.hessian.", "solve_rlop_s, stationary_s on local-2d"),
    ("randfunc.", "check_measurable_s, solve_rlop_s on wide-atoms"),
    ("optimize.global_min_compact.", "solve_rop_s, oracle_s on global-grid"),
    ("optimize.optimal_value.", "solve_rop_s, oracle_s on global-grid"),
    ("optimize.verify_local_min.", "solve_rlop_s on local-2d"),
    ("optimize.classify_definiteness.", "solve_rlop_s on local-2d"),
    ("optimize.", "solve_rlop_s, stationary_s on local-2d"),
    ("probspace.", "check_measurable_s, solve_rlop_s on wide-atoms"),
    ("selection.solve_rop.", "solve_rop_s on global-grid"),
    ("selection.check_necessary_conditions.", "necessary_s on local-2d"),
    ("selection.", "solve_rlop_s on wide-atoms"),
)


def moves(metric: str) -> str:
    return next((target for prefix, target in MOVES if metric.startswith(prefix)), "")


class Tracer:
    """Collects spans and counts; ``job`` tags every span with its request."""

    def __init__(self):
        # every traced name reports, with zero calls if the program lacks it
        self.names = [_span_name(module, attr) for module, attr, _ in TRACED]
        self.name_ids = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_job = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.job = -1
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int) -> None:
        self.counts[(self.job, name)] += value

    def wrap(self, name: str, fn, hook=None):
        nid = self.name_ids[name]
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_job.append(tr.job)
            tr.span_parent.append(tr.stack[-1] if tr.stack else -1)
            tr.span_end.append(0.0)
            tr.stack.append(i)
            tr.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[i] = perf_counter()
                tr.stack.pop()
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in randopt's modules."""
        modules = [m for k, m in sys.modules.items() if k == "randopt" or k.startswith("randopt.")]
        for module, attr, hook in TRACED:
            owner = sys.modules[f"randopt.{module}"]
            name = _span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._set(cls, meth, self.wrap(name, vars(cls)[meth], hook))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, key, wrapper)

    def _set(self, target, key: str, value) -> None:
        self._undo.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # --- reduction ---------------------------------------------------------------

    def _arrays(self):
        # copies, so the arrays can keep growing afterwards
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        job = np.frombuffer(self.span_job, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        dur = np.frombuffer(self.span_end, dtype=float) - np.frombuffer(self.span_start, dtype=float)
        return name, job, parent, dur

    def layer_metrics(self, jobs: range) -> dict[str, float]:
        """Per-layer metrics over the spans and counts of the given jobs."""
        name, job, parent, dur = self._arrays()
        has_parent = parent >= 0
        self_s = dur.copy()
        np.subtract.at(self_s, parent[has_parent], dur[has_parent])
        keep = (job >= jobs.start) & (job < jobs.stop)
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        selfs = np.bincount(name[keep], weights=self_s[keep], minlength=k)
        totals = np.bincount(name[keep], weights=dur[keep], minlength=k)
        out: dict[str, float] = {}
        for i, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[i])
            out[f"{nm}.self_s"] = float(selfs[i])
            out[f"{nm}.total_s"] = float(totals[i])

        counts: dict[str, int] = defaultdict(int)
        for (j, nm), v in self.counts.items():
            if j in jobs:
                counts[nm] += v
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        setmap = self.name_ids["probspace.is_measurable_setmap"]
        dist_ids = [self.name_ids[d] for d in DISTANCES]
        out["probspace.setmap_comparisons"] = int(
            np.count_nonzero(keep & np.isin(name, dist_ids) & (parent_name == setmap))
        )
        # grid minimisations made anywhere below solve_rop
        rop = self.name_ids["selection.solve_rop"]
        under_rop = parent_name == rop
        while True:
            grown = under_rop | (has_parent & under_rop[np.maximum(parent, 0)])
            if (grown == under_rop).all():
                break
            under_rop = grown
        gmc = self.name_ids["optimize.global_min_compact"]
        minimised = int(np.count_nonzero(keep & under_rop & (name == gmc)))

        out["exprlang.eval_batch.rows"] = counts["exprlang.eval_batch.rows"]
        out["jsonout.dumps.bytes"] = counts["jsonout.dumps.bytes"]
        out["optimize.global_min_compact.grid_points"] = counts["optimize.global_min_compact.grid_points"]
        out["optimize.newton_starts"] = counts["optimize.newton_starts"]
        if counts["optimize.newton_starts"]:
            out["optimize.newton_converged_ratio"] = (
                counts["optimize.newton_converged"] / counts["optimize.newton_starts"]
            )
        if counts["optimize.newton_converged"]:
            out["optimize.newton_distinct_ratio"] = (
                counts["optimize.newton_kept"] / counts["optimize.newton_converged"]
            )
        if minimised:
            out["selection.solve_rop.useful_min_ratio"] = counts["selection.solve_rop.atoms"] / minimised
        return out
