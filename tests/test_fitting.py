"""The stacked tail fit: one closed-form least-squares slope per curve; the
collinearity residual at any scale."""
import math
import sys

import numpy as np
import pytest

from poismech.errors import EstimationError
from poismech.fitting import collinearity_residual, tail_velocity

MIN_CURVE_SAMPLES = 29  # the shortest curve whose trailing quarter holds the fit's 8 samples


def _noisy_lines(rng, shape, n, k):
    """Affine curves y = a t + b + noise on an increasing abscissa of each
    curve, in a stack of the given shape."""
    t = np.sort(rng.uniform(-3.0, 5.0, size=shape + (n,)), axis=-1)
    a = rng.normal(size=shape + (1, k))
    b = rng.normal(size=shape + (1, k))
    return t, a * t[..., None] + b + 1e-3 * rng.normal(size=shape + (n, k))


def _lstsq_slope(t, y):
    """Reference: the slope of the two-parameter least-squares line through
    the trailing quarter of the samples."""
    n_tail = int(np.ceil(0.25 * t.size))
    A = np.column_stack([t[-n_tail:], np.ones(n_tail)])
    return np.linalg.lstsq(A, y[-n_tail:], rcond=None)[0][0]


@pytest.mark.parametrize("n", [MIN_CURVE_SAMPLES, 64, 101])
def test_stacked_fit_equals_the_per_curve_fit_and_lstsq(n):
    rng = np.random.default_rng(n)
    t, y = _noisy_lines(rng, (3, 4), n, 2)
    got = tail_velocity(t, y)
    assert got.shape == (3, 4, 2)
    for i in np.ndindex(3, 4):
        np.testing.assert_array_equal(got[i], tail_velocity(t[i], y[i]))
        np.testing.assert_allclose(got[i], _lstsq_slope(t[i], y[i]), rtol=1e-13, atol=0.0)


def test_fit_is_exact_on_a_line():
    t = np.linspace(0.0, 3.0, 64)
    y = np.column_stack([0.5 * t - 1.0, -2.0 * t])
    np.testing.assert_allclose(tail_velocity(t, y), [0.5, -2.0], rtol=1e-14)


def test_short_tail_is_an_estimation_error():
    t = np.linspace(0.0, 1.0, MIN_CURVE_SAMPLES - 1)
    with pytest.raises(EstimationError, match="needs >= 8 samples"):
        tail_velocity(t, t[:, None])
    with pytest.raises(EstimationError, match="needs >= 8 samples"):
        tail_velocity(np.tile(t, (2, 1)), np.tile(t[:, None], (2, 1, 1)))


def test_zero_spread_abscissa_is_an_estimation_error():
    """A tail that sits at one abscissa has no slope; lstsq would return the
    minimum-norm one.  One such curve in a stack fails the whole fit."""
    t = np.linspace(0.0, 1.0, 64)
    flat = t.copy()
    flat[-16:] = 1.0
    with pytest.raises(EstimationError, match="no spread"):
        tail_velocity(flat, t[:, None])
    with pytest.raises(EstimationError, match="no spread"):
        tail_velocity(np.stack([t, flat]), np.stack([t, t])[..., None])


@pytest.mark.parametrize("n", [MIN_CURVE_SAMPLES, 64, 101])
def test_tail_fit_is_the_line_slope_over_the_tail_window(n):
    """tail_velocity reads the trailing quarter of the samples, rounded up,
    and nothing before it: changing the samples before the window keeps
    every bit, changing the window's first sample moves the slope."""
    rng = np.random.default_rng(n)
    t, y = _noisy_lines(rng, (3,), n, 2)
    n_tail = -(-n // 4)
    got = tail_velocity(t, y)
    before = y.copy()
    before[:, :-n_tail] += 1.0
    np.testing.assert_array_equal(tail_velocity(t, before), got)
    inside = y.copy()
    inside[:, -n_tail] += 1.0
    assert np.all(tail_velocity(t, inside) != got)


def test_tail_window_under_8_samples_is_an_estimation_error():
    t = np.linspace(0.0, 1.0, MIN_CURVE_SAMPLES)
    np.testing.assert_allclose(tail_velocity(t, 2.0 * t[:, None]), [2.0], rtol=1e-14)
    with pytest.raises(EstimationError, match="needs >= 8 samples, window has 7"):
        tail_velocity(t[1:], t[1:, None])
    with pytest.raises(EstimationError, match="no spread"):
        tail_velocity(np.ones(32), np.arange(32.0)[:, None])


@pytest.mark.parametrize("k", [-900, -1, 1, 900])
def test_collinearity_residual_scales_by_a_power_of_two_bit_for_bit(k):
    """The residual scales its samples by the power of two of their largest
    entry, so a curve scaled by 2^k reads the curve's residual times 2^k,
    bit for bit, on straight and on bent seeded curves."""
    rng = np.random.default_rng(900 + k)
    for n, dim in [(2, 2), (5, 3), (64, 4), (49, 2)]:
        t, y = _noisy_lines(rng, (), n, dim)
        for curve in (y, np.column_stack([t, 3.0 * t - 1.0]), y * np.exp(t)[:, None]):
            assert collinearity_residual(np.ldexp(curve, k)) == math.ldexp(collinearity_residual(curve), k)


def test_collinearity_residual_of_a_line_near_dbl_max_is_finite():
    """A line whose samples reach 1e300 reads a residual at rounding
    relative to its size; squared unscaled, its centred samples overflowed
    and the residual read inf."""
    t = np.linspace(-1.0, 1.0, 64)
    line = 1e300 * np.column_stack([t, -0.75 * t + 0.1, 0.5 * t])
    residual = collinearity_residual(line)
    assert math.isfinite(residual) and residual <= 64 * sys.float_info.epsilon * 1e300
