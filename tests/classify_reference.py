"""The per-matrix classification that ``optimize._classify_stack`` replaced.

``_minors`` and ``_classify`` below are the previous functions of
``randopt.optimize``, verbatim: each classification took the minors, the
row-sum norm and the Sylvester test of one matrix in Python, and a matrix
that failed the test went to ``_jacobi``.  The stack must give every
matrix the same minors (bits) and the same class, and send to ``_jacobi``
the same matrices.  ``_jacobi`` is the package's, imported by name, so a
test can record this module's calls apart from the package's.
"""

import math

import numpy as np

from randopt.optimize import DEFINITENESS_TOL_REL, Definiteness, _jacobi  # noqa: F401


def _minors(H: np.ndarray) -> np.ndarray:
    """``leading_principal_minors`` of a matrix already symmetric."""
    n = H.shape[0]
    minors = np.empty(n)
    for k in range(1, n + 1):
        A = H[:k, :k]
        if k == 1:
            minors[0] = A[0, 0]
        elif k == 2:
            minors[1] = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        elif k == 3:
            minors[2] = (
                A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
                - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
                + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
            )
        else:
            minors[k - 1] = float(np.linalg.det(A))
    return minors


@np.errstate(over="ignore", invalid="ignore")
def _classify(S: np.ndarray) -> tuple[tuple, Definiteness]:
    """The leading principal minors of a matrix already symmetric, and its class.

    Minor k is compared against tol * (1 + |S|_inf)^k, tol = DEFINITENESS_TOL_REL,
    and fails a threshold past the largest double; eigenvalues against
    tol * (1 + |S|_inf).  Where a row sum overflows, the class is that of S
    times an exact power of two that brings every row sum below the largest double.
    """
    norm = float(np.max(np.sum(np.abs(S), axis=1)))
    minors = tuple(_minors(S).tolist())
    if norm == math.inf:  # n * 2^-bit_length(n) < 1
        return minors, _classify(np.ldexp(S, -len(S).bit_length()))[1]
    scale = 1.0 + norm
    try:
        if all(minors[k] > DEFINITENESS_TOL_REL * scale ** (k + 1) for k in range(len(minors))):
            return minors, Definiteness.PD
    except OverflowError:
        pass
    lam = _jacobi(S)
    tau = DEFINITENESS_TOL_REL * scale
    lmin, lmax = float(lam[0]), float(lam[-1])
    if lmin > tau:
        return minors, Definiteness.PD
    if lmax < -tau:
        return minors, Definiteness.ND
    if lmin < -tau and lmax > tau:
        return minors, Definiteness.INDEFINITE
    if lmin >= -tau and lmax > tau:
        return minors, Definiteness.PSD_DEGENERATE
    if lmax <= tau and lmin < -tau:
        return minors, Definiteness.NSD_DEGENERATE
    return minors, Definiteness.PSD_DEGENERATE  # numerically zero matrix
