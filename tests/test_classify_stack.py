"""``optimize._classify_stack`` against the per-matrix classification it
replaced (``classify_reference._classify``, verbatim).

Every matrix of a stack must get the minors (bits) and the class that the
per-matrix rule gives it alone, and reach the eigenvalue sweep
(``_jacobi``) exactly when the per-matrix rule does, with the same matrix:
a defined matrix that fails Sylvester's test, scaled by a power of two
where its row sums overflow.  An undefined (NaN) matrix never reaches it.
Each Sylvester threshold has the bits of Python's float power.
"""

import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randopt import optimize
from randopt.optimize import DEFINITENESS_TOL_REL, Definiteness, _classify_stack, _thresholds

import classify_reference
from classify_reference import _classify as reference_classify


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _recording(calls, jacobi=optimize._jacobi):
    def recorded(S):
        calls.append(S.copy())
        return jacobi(S)

    return recorded


def assert_same_as_alone(S):
    """Classify every matrix of ``S`` as a stack and alone; returns the classes."""
    swept, expected_swept = [], []
    with mock.patch.object(optimize, "_jacobi", _recording(swept)):
        minors, classify = _classify_stack(S)
        classes = [classify(j) for j in range(len(S))]
    with mock.patch.object(classify_reference, "_jacobi", _recording(expected_swept)):
        expected = [reference_classify(H) for H in S]
    assert [_bits(m) for m in minors.tolist()] == [_bits(m) for m, _ in expected]
    assert classes == [c for _, c in expected]
    # the per-matrix rule swept an undefined matrix too, to no effect
    defined = [H.tobytes() for H in expected_swept if not np.isnan(H).any()]
    assert [H.tobytes() for H in swept] == defined
    return classes


# --- generated stacks -----------------------------------------------------------------------

# entries from 1e-200 to 1e200 of either sign, zeros, and ones
magnitudes = st.one_of(
    st.floats(-200.0, 200.0).map(lambda e: 10.0**e),
    st.sampled_from([0.0, 1.0, 2.0]),
)
entries = st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda t: t[0] * t[1])


@st.composite
def symmetric_stacks(draw):
    """1 to 6 symmetric n x n matrices, n = 1..4, of entries from ``entries``;
    one in three made diagonally dominant, so that many pass Sylvester."""
    n = draw(st.integers(1, 4))
    count = draw(st.integers(1, 6))
    S = np.empty((count, n, n))
    for k in range(count):
        for i in range(n):
            for j in range(i, n):
                S[k, i, j] = S[k, j, i] = draw(entries)
        if draw(st.integers(0, 2)) == 0:
            with np.errstate(over="ignore"):
                for i in range(n):
                    S[k, i, i] = abs(S[k, i, i]) + np.abs(S[k, i]).sum()
    return np.where(np.isinf(S), 1e300, S)  # a dominant diagonal that overflowed


@settings(max_examples=200, deadline=None)
@given(symmetric_stacks())
def test_every_matrix_gets_its_class_alone(S):
    assert_same_as_alone(S)


# --- fixed cases ----------------------------------------------------------------------------


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_overflowing_row_sums_are_classified_scaled(sign):
    # the row sums of the first matrix pass the largest double (the
    # overflowing_norm rule); the second matrix is an ordinary one
    S = np.array([sign * np.full((2, 2), 1.7e308), [[2.0, 1.0], [1.0, 2.0]]])
    classes = assert_same_as_alone(S)
    expected = Definiteness.PSD_DEGENERATE if sign > 0 else Definiteness.NSD_DEGENERATE
    assert classes == [expected, Definiteness.PD]


def test_a_pd_matrix_whose_row_sums_overflow_is_pd():
    assert assert_same_as_alone(np.array([np.diag([1.7e308, 1.7e308])])) == [Definiteness.PD]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_an_undefined_matrix_never_reaches_the_eigenvalue_sweep(n):
    # an undefined Hessian row is NaN; the per-matrix rule found it
    # PSD_degenerate after a sweep whose every comparison was NaN
    S = np.stack([np.eye(n), np.full((n, n), math.nan), -np.eye(n)])
    S[2, 0, 0] = 0.0
    if n > 1:
        S[1, 0, 0] = 1.0  # the first minor defined, the others NaN
    swept = []
    with mock.patch.object(optimize, "_jacobi", _recording(swept)):
        minors, classify = _classify_stack(S)
        assert classify(1) is Definiteness.PSD_DEGENERATE
    assert swept == []
    assert math.isnan(minors[1, -1])
    assert assert_same_as_alone(S)[1] is Definiteness.PSD_DEGENERATE


def _at_threshold(n, b=2.0**40):
    """diag(b, ..., b, c) with its last minor b^(n-1) c exactly at its
    threshold tol * (1 + b)^n, n = 2 or 3: b is a power of two, so the
    closed-form product is exact, and b is the norm."""
    threshold = DEFINITENESS_TOL_REL * (1.0 + b) ** n
    return np.diag([b] * (n - 1) + [threshold / b ** (n - 1)]), threshold


@pytest.mark.parametrize("n", [2, 3])
def test_a_minor_one_ulp_either_side_of_its_threshold(n):
    # at the threshold and one ulp below, Sylvester fails and the sweep
    # decides; one ulp above, the matrix is PD without a sweep
    H, threshold = _at_threshold(n)
    c = H[-1, -1]
    stack = []
    for step in (-math.inf, 0.0, math.inf):
        M = H.copy()
        M[-1, -1] = c if step == 0.0 else float(np.nextafter(c, step))
        stack.append(M)
    S = np.array(stack)
    minors, _ = _classify_stack(S)
    assert minors[1, -1] == threshold
    swept = []
    with mock.patch.object(optimize, "_jacobi", _recording(swept)):
        _, classify = _classify_stack(S)
        [classify(j) for j in range(3)]
    assert [H.tobytes() for H in swept] == [S[0].tobytes(), S[1].tobytes()]
    assert assert_same_as_alone(S)[2] is Definiteness.PD


def test_each_threshold_has_the_bits_of_pythons_power():
    # numpy's power differs from C's pow in the last bit at some scales
    # (on one host, at about 5 % of cubes and 0.08 % of squares), and a
    # minor within one ulp of its threshold would then change class; the
    # powers that overflow give inf
    rng = np.random.default_rng(26)
    scales = np.concatenate([
        1.0 + 10.0 ** rng.uniform(-12.0, 12.0, 40_000),
        1.0 + rng.uniform(0.0, 4.0, 20_000),
        [1.0, 1e102, 1e154, 1e155, 1e200, 1.7e308],
    ])
    got = _thresholds(scales, 4)
    for k in range(1, 5):
        want = []
        for s in scales.tolist():
            try:
                want.append(DEFINITENESS_TOL_REL * s ** k)
            except OverflowError:
                want.append(math.inf)
        assert got[:, k - 1].tobytes() == np.array(want).tobytes(), k


# --- Sylvester's test with numpy's power ----------------------------------------------------
#
# ``_classify_stack``'s PD decision is ``_sylvester(minors, 1 + norm)``: numpy's
# vectorized power, and Python's (``_thresholds``) for the rows it leaves in
# doubt.  It must be the decision that Python's thresholds give, on minors a
# few ulps either side of either threshold, where the two powers differ.


@np.errstate(over="ignore", invalid="ignore")
def _numpy_thresholds(scale, n):
    return DEFINITENESS_TOL_REL * scale[:, None] ** np.arange(1.0, n + 1.0)


def _scales_where_the_powers_differ():
    """Scales at which numpy's power differs from Python's for some k <= 4,
    from a fixed sample; none where numpy calls C's pow itself."""
    rng = np.random.default_rng(33)
    sample = np.concatenate([1.0 + 10.0 ** rng.uniform(-12.0, 12.0, 3000), 1.0 + rng.uniform(0.0, 4.0, 3000)])
    differ = (_numpy_thresholds(sample, 4) != _thresholds(sample, 4)).any(axis=1)
    return sample[differ].tolist()[:200]


_DIFFERING = _scales_where_the_powers_differ()

scales = st.one_of(
    st.floats(-12.0, 12.0).map(lambda e: 1.0 + 10.0**e),
    st.floats(1.0, 5.0),
    st.sampled_from([1.0, 1e102, 1e154, 1e155, 5.64e102, 1e200, 1.7e308, math.inf, math.nan]),
    *([st.sampled_from(_DIFFERING)] if _DIFFERING else []),
)


@st.composite
def sylvester_rows(draw):
    """(minors, scale): 1 to 8 rows of n = 1..4 minors, each minor within 8
    ulps of numpy's threshold or of Python's, far above or below both, or
    NaN; most rows put one minor near a threshold and the rest far above."""
    n = draw(st.integers(1, 4))
    scale = np.array(draw(st.lists(scales, min_size=1, max_size=8)))
    mine, python = _numpy_thresholds(scale, n), _thresholds(scale, n)
    minors = np.empty((len(scale), n))
    for i in range(len(scale)):
        near = draw(st.integers(0, n - 1))
        for k in range(n):
            how = draw(st.sampled_from(["numpy", "python", "far", "below", "nan"])) if k == near else "far"
            if how in ("numpy", "python"):
                m = (mine if how == "numpy" else python)[i, k]
                steps = draw(st.integers(-8, 8))
                for _ in range(abs(steps)):
                    m = np.nextafter(m, math.copysign(math.inf, steps))
            elif how == "far":
                m = 2.0 * max(mine[i, k], python[i, k]) + 1.0
            elif how == "below":
                m = draw(st.sampled_from([-1.0, 0.0, -0.0, -math.inf]))
            else:
                m = math.nan
            minors[i, k] = m
    return minors, scale


@settings(max_examples=300, deadline=None)
@given(sylvester_rows())
def test_sylvester_decides_as_pythons_thresholds(rows):
    minors, scale = rows
    n = minors.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        want = (minors > _thresholds(scale, n)).all(axis=1)
        got = optimize._sylvester(minors, scale)
    assert got.tolist() == want.tolist()
