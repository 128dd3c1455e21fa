"""The natural cubic spline against scipy's CubicSpline, bit for bit.

The library solves the natural spline itself; scipy is the oracle.  Every
case compares the local coefficients with CubicSpline(...).c and the
derivative at each segment's 8 Gauss-Legendre nodes with
CubicSpline(...).derivative() using np.array_equal, so any difference in
the last bit fails.
"""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from conftest import knots_from_gaps, near_duplicate_knots, skewed_knots
from inkbasis import InvalidDataError
from inkbasis.ink import _GL8_NODES, _natural_cubic, _node_velocities, _raise_first_failure


def scipy_natural(t, values):
    """(local coefficients (nseg, ncol, 4), Gauss-node velocities (nseg, 8, ncol))."""
    spline = CubicSpline(t, values, bc_type="natural")
    mid, half = (t[:-1] + t[1:]) / 2.0, (t[1:] - t[:-1]) / 2.0
    velocity = spline.derivative()(mid[:, None] + half[:, None] * _GL8_NODES)
    return spline.c[::-1].transpose(1, 2, 0), velocity


def assert_matches_scipy(t, values):
    want_local, want_velocity = scipy_natural(t, values)
    # a bucket of one curve
    local, failure = _natural_cubic(t[None], values[None])
    assert failure.tolist() == [0]
    assert local.shape == (1, *want_local.shape)
    assert np.array_equal(local[0], want_local)
    assert np.array_equal(_node_velocities(t[None], local)[0], want_velocity)


def random_walk(rng, n, scale=1.0):
    return scale * np.cumsum(rng.normal(size=(n, 2)), axis=0)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 25, 40, 200, 1000])
def test_random_walks(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        t = knots_from_gaps(rng.uniform(0.05, 2.0, n - 1))
        assert_matches_scipy(t, random_walk(rng, n))


@pytest.mark.parametrize("n", [3, 6, 40, 300])
def test_skewed_spacing_takes_the_row_interchange(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(10):
        assert_matches_scipy(skewed_knots(rng, n), random_walk(rng, n))


def test_growing_gaps_interchange_every_row():
    gaps = 3.0 ** np.arange(30)
    assert_matches_scipy(knots_from_gaps(gaps), random_walk(np.random.default_rng(7), 31))


@pytest.mark.parametrize("ulps", [1, 2, 5, 1000, 1e6])
def test_near_duplicate_knots(ulps):
    rng = np.random.default_rng(int(ulps))
    for n in (3, 30, 300):
        t, twin = near_duplicate_knots(rng, n, ulps)
        values = random_walk(rng, len(t))
        values[twin] = values[twin - 1] + 1e-9 * rng.normal(size=(len(twin), 2))
        assert_matches_scipy(t, values)


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
def test_coordinate_scales(scale):
    rng = np.random.default_rng(int(np.log10(scale)) + 20)
    for n in (3, 17, 150):
        t = knots_from_gaps(rng.uniform(0.1, 3.0, n - 1), scale)
        assert_matches_scipy(t, random_walk(rng, n, scale) + rng.uniform(-1, 1, 2) * scale)


def test_single_column_and_two_points():
    rng = np.random.default_rng(3)
    t = knots_from_gaps(rng.uniform(0.5, 1.5, 9))
    assert_matches_scipy(t, rng.normal(size=(10, 1)))
    assert_matches_scipy(np.array([0.0, 2.0]), np.array([[1.0, -1.0], [3.0, 5.0]]))


@pytest.mark.parametrize(
    "t, values",
    [
        ([-1e200, 0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]]),
        ([0.0, 1.0, 2.0, 1e200], [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]]),
        ([0.0, 1.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]]),
        ([0.0, 2.0, 1.0, 3.0], [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.0]]),
        ([0.0, 1.0, 3.0], [[0.0, 0.0], [1e308, 1.0], [-1e308, 0.0]]),
        ([0.0, 5e-324, 1.0], [[0.0, 0.0], [1e-9, 0.0], [1.0, 1.0]]),
    ],
    ids=["first-gap-squared-overflows", "last-gap-squared-overflows", "repeated-knot",
         "decreasing-knots", "slopes-overflow", "subnormal-gap"],
)
def test_rejects_what_scipy_rejects(t, values):
    t, values = np.array(t), np.array(values)
    with np.errstate(all="ignore"), pytest.raises(ValueError):
        CubicSpline(t, values, bc_type="natural")
    with np.errstate(all="ignore"):
        _, failure = _natural_cubic(t[None], values[None])
    with pytest.raises(InvalidDataError, match="^cubic fit is not finite: "):
        _raise_first_failure(failure)

