"""Numerical helpers that only the tests use.

``fd_check`` compares randopt's symbolic derivatives with central
differences; the acceptance tests run it over an expression corpus.
``polish_point`` Newton-refines a grid minimizer; the acceptance tests use
it to confirm grid optima, and ``test_newton_reference.py`` compares it
with its sequential reference.  Neither is part of the library: no CLI
command reaches them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from randopt.errors import EvalError
from randopt.optimize import MARGIN_TOL, _newton, _params_rows
from randopt.probspace import Point, Scenario
from randopt.randfunc import Box, RandomFunction, eval_f, gradient, hessian

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


# --- Newton polishing -------------------------------------------------------------


def polish_point(
    rf: RandomFunction,
    omega: Scenario,
    x0: Sequence[float],
    region: Box,
) -> Optional[Point]:
    """Newton-refine a near-stationary point; None unless it stays in the
    region, reaches stationarity, and does not increase f."""
    X0 = np.asarray(x0, dtype=float).reshape(1, -1)
    X, _, status = _newton(rf, X0, _params_rows(rf, [omega], 1))
    x = X[0]
    if status[0] != "converged":
        return None
    if not region.contains(x, tol=1e-9):
        return None
    try:
        if eval_f(rf, omega, x) > eval_f(rf, omega, x0) + MARGIN_TOL:
            return None
    except EvalError:
        return None
    return tuple(float(v) for v in x)
