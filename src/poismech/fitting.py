"""Curve diagnostics: collinearity, tail slopes, central derivatives.

Used by the models to turn sampled curves into scalar verdicts
(collinearity residuals, monotonicity).  ``tail_velocity`` and
``central_derivative`` have no caller in the package; the benchmark's
tracer looks them up by name.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import EstimationError

__all__ = [
    "collinearity_residual",
    "tail_velocity",
    "central_derivative",
    "monotonicity_verdict",
    "fit_loglog_slope",
]

_MONOTONE_SLACK = 1e-12  # steps within rounding of zero keep a sequence monotone


def collinearity_residual(points: np.ndarray) -> float:
    """Largest orthogonal distance from the samples to their best-fit line
    (total least squares via SVD), read at the power of two of their largest
    entry, which scales exactly, so no square overflows at any size."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] < 2:
        raise EstimationError("collinearity needs at least two points")
    _, e = math.frexp(np.abs(P).max())
    C = np.ldexp(P, -e)
    C -= C.mean(axis=0)
    U, s, Vt = np.linalg.svd(C, full_matrices=False)
    if s[0] == 0.0:
        return 0.0
    perp = C - np.outer(C @ Vt[0], Vt[0])
    return math.ldexp(float(np.max(np.linalg.norm(perp, axis=1))), e)


def tail_velocity(times: np.ndarray, curve: np.ndarray) -> np.ndarray:
    """Least-squares slopes d(curve)/d(times) over the trailing quarter of
    each curve's N samples: ``times`` (..., N) is the abscissa (may itself be
    a curve coordinate) and ``curve`` (..., N, k) the ordinates; returns the
    (..., k) slopes, one fit per curve of the stack, in closed form on the
    centred tail, sum (t - t_mean)(y - y_mean) / sum (t - t_mean)^2.  A tail
    of ceil(N/4) < 8 samples, or one whose abscissa has no spread, is an
    ``EstimationError``."""
    t = np.asarray(times, dtype=float)
    n_tail = math.ceil(0.25 * t.shape[-1])
    if n_tail < 8:
        raise EstimationError(f"tail fit needs >= 8 samples, window has {n_tail}")
    t = t[..., -n_tail:]
    y = np.asarray(curve, dtype=float)[..., -n_tail:, :]
    dt = t - t.mean(axis=-1, keepdims=True)
    dy = y - y.mean(axis=-2, keepdims=True)
    spread = np.einsum("...i,...i->...", dt, dt)
    if np.any(spread == 0.0):
        raise EstimationError("tail fit abscissa has no spread: every tail sample is at one value")
    return np.einsum("...i,...ik->...k", dt, dy) / spread[..., None]


def central_derivative(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Second-order derivative estimates at interior samples of a possibly
    non-uniform grid.  Returns an array over times[1:-1]."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values)
    if t.size < 3:
        raise EstimationError("central derivative needs >= 3 samples")
    shape = (-1,) + (1,) * (y.ndim - 1)
    dm = (t[1:-1] - t[:-2]).reshape(shape)
    dp = (t[2:] - t[1:-1]).reshape(shape)
    return (dm**2 * y[2:] - dp**2 * y[:-2] + (dp**2 - dm**2) * y[1:-1]) / (
        dm * dp * (dm + dp)
    )


def monotonicity_verdict(values: np.ndarray) -> str:
    """'increasing' / 'decreasing' / 'non-monotonic' for a sampled sequence."""
    d = np.diff(np.asarray(values, dtype=float))
    if np.all(d > -_MONOTONE_SLACK):
        return "increasing"
    if np.all(d < _MONOTONE_SLACK):
        return "decreasing"
    return "non-monotonic"


def fit_loglog_slope(xs: np.ndarray, ys: np.ndarray) -> float:
    """Least-squares slope of log y against log x (convergence-order fits)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise EstimationError("slope fit needs >= 2 samples")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise EstimationError("slope fit needs positive data")
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
