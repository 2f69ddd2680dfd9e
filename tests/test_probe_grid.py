"""``default_probe_grid`` against the per-row loop it replaced.

``reference_probe_grid`` is the previous probe grid, verbatim: it scaled
and shifted the Halton table one row at a time.  ``default_probe_grid``
computes the same expression on the whole table at once.  Each element
takes the same correctly rounded operations, so every point must keep its
bits, compared by ``struct`` so that -0.0 and 0.0 stay apart: on boxes of
1 to 12 dimensions, with degenerate axes, bounds of either zero, spans
that pass the largest double (the halved-span rule) and tiny magnitudes.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randopt.errors import RandoptError
from randopt.randfunc import _PRIMES, PROBE_EXTRA, Box, default_probe_grid, halton_points


def reference_probe_grid(box: Box) -> list:
    if box.dim > len(_PRIMES):
        raise RandoptError(
            f"probe grid supports up to {len(_PRIMES)} dimensions, got {box.dim}"
        )
    pts = box.corners()
    pts.append(box.center())
    scale = np.array([2.0 if math.isinf(hi - lo) else 1.0 for lo, hi in zip(box.lower, box.upper)])
    lo = np.array(box.lower) / scale
    hi = np.array(box.upper) / scale
    for row in halton_points(PROBE_EXTRA, box.dim):
        pts.append(tuple(float(v) for v in scale * (lo + row * (hi - lo))))
    return pts


def point_bits(points: list) -> list:
    assert all(type(p) is tuple and all(type(v) is float for v in p) for p in points)
    return [b"".join(struct.pack("<d", v) for v in p) for p in points]


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308,
            5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300]
_bound = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.floats(-10.0, 10.0),
)


@st.composite
def axes(draw):
    a = draw(_bound)
    b = a if draw(st.booleans()) else draw(_bound)  # a degenerate axis, or two bounds
    return (a, b) if a <= b else (b, a)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, len(_PRIMES)).flatmap(lambda n: st.lists(axes(), min_size=n, max_size=n)))
def test_the_probe_grid_keeps_the_bits_of_the_per_row_loop(bounds):
    box = Box(tuple(lo for lo, _ in bounds), tuple(hi for _, hi in bounds))
    got = default_probe_grid(box)
    assert point_bits(got) == point_bits(reference_probe_grid(box))
    assert len(got) == len(box.corners()) + 1 + PROBE_EXTRA


@pytest.mark.parametrize(
    "lower, upper",
    [
        ((-1e308, 0.0), (1e308, -0.0)),  # an overflowing span and a zero axis of both signs
        ((-0.0, -5e-324), (0.0, 5e-324)),
        ((-1.7976931348623157e308,), (1.7976931348623157e308,)),
        (tuple(-float(j) for j in range(12)), tuple(float(j) for j in range(12))),
    ],
)
def test_edge_boxes_keep_the_bits_of_the_per_row_loop(lower, upper):
    box = Box(lower, upper)
    assert point_bits(default_probe_grid(box)) == point_bits(reference_probe_grid(box))

