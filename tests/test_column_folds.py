"""``randfunc.column_max`` and ``column_all`` against the numpy reductions
over the last axis that they replace.

Every fold in the package takes a max of magnitudes (absolute values,
their row sums, or absolute differences), where it must give the bytes of
``.max(axis=-1)``: rows of every n from 1 to 4, no rows at all, NaN in any
column, zeros of either sign and infinities, all taken through ``abs``.
Of signed entries it must give the same values: NaN in the same rows, and
equal numbers elsewhere; the zero of a tie of 0.0 and -0.0, and the sign of
a NaN, are left to numpy's loops, which differ between them.
"""

import itertools
import math

import numpy as np
import pytest

from randopt.randfunc import column_all, column_max

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.5, 5e-324, 1.7976931348623157e308]


def _rows(n):
    """Every row of n entries from SPECIAL, then the same rows repeated
    (more rows than one SIMD register, and a tail)."""
    rows = np.array(list(itertools.product(SPECIAL, repeat=n)), dtype=float).reshape(-1, n)
    return np.concatenate([rows, rows[::-1], rows[: 37 % len(rows)]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_max_of_magnitudes_has_the_bytes_of_the_reduction(n):
    A = np.abs(_rows(n))
    assert column_max(A).tobytes() == A.max(axis=1).tobytes()
    # a stack of rows of points, as _hausdorff folds it
    B = A[: 6 * (len(A) // 6)].reshape(2, 3, -1, n)
    assert column_max(B).tobytes() == B.max(axis=-1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_max_of_signed_entries_has_the_reductions_values(n):
    A = _rows(n)
    got, want = column_max(A), A.max(axis=1)
    assert np.isnan(got).tolist() == np.isnan(want).tolist()
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_all_has_the_bytes_of_the_reduction(n):
    A = _rows(n)
    for B in (A > 0.0, A == A, A <= 1.0, np.isinf(A)):
        assert column_all(B).tobytes() == B.all(axis=1).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_no_rows(n):
    A = np.empty((0, n))
    assert column_max(A).shape == column_all(A > 0.0).shape == (0,)
    assert column_max(A).tobytes() == A.max(axis=1).tobytes()
    assert column_all(A > 0.0).tobytes() == (A > 0.0).all(axis=1).tobytes()


def test_the_fold_leaves_its_input_alone():
    A = np.abs(_rows(2))
    before = A.tobytes()
    column_max(A), column_all(A > 1.0)
    assert A.tobytes() == before
