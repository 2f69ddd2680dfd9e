"""The finite-difference oracle of ``numeric_helpers``."""

import pytest

import randopt as r

from numeric_helpers import fd_check


@pytest.fixture
def space3():
    return r.make_space([1, 2, 3], [0.25, 0.25, 0.5], [[1, 2], [3]])


def quartic(space):
    return r.RandomFunction(
        space, 1, r.parse("x1^4 - 2*x1^2", 1, 0), {s: () for s in space.scenarios}
    )


def test_fd_check_quartic(space3):
    report = fd_check(quartic(space3), 1, (0.7,), 1e-5)
    assert report.passed


def test_fd_check_quadratic_near_exact(space3):
    rf = r.RandomFunction(
        space3, 1, r.parse("x1^2", 1, 0), {s: () for s in space3.scenarios}
    )
    report = fd_check(rf, 1, (3.0,), 1e-5)
    assert report.passed
    assert report.grad_errors[0] <= 1e-9


def test_fd_check_exp_error_h_squared(space3):
    rf = r.RandomFunction(
        space3, 1, r.parse("exp(x1)", 1, 0), {s: () for s in space3.scenarios}
    )
    report = fd_check(rf, 1, (0.0,), 1e-5)
    assert report.passed
    # central difference truncation is h^2/6 for exp at 0
    assert report.grad_errors[0] == pytest.approx(1e-10 / 6, rel=0.5)
