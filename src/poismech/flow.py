"""Hamiltonian flow integration with per-step error estimation.

The integrator is the classical explicit 4th-order one-step scheme.  Each
nominal step of size h is taken twice — once whole, once as two half steps —
and the Richardson estimate ||y_half - y_full|| / 15 bounds the local error
of the accepted (half-stepped) state.  Both start from the same slope
k1 = f(y), which is evaluated once per step, so a step costs 11 right-hand
side evaluations rather than 12.  Steps whose estimate exceeds the
tolerance are retried from the same y (and the same k1) with h halved; h
recovers toward its nominal value afterwards.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bracket import BivectorSpec, ScalarField, hamiltonian_vector_field
from .errors import ContractViolation, DivergenceError, StiffnessError

__all__ = ["StepControl", "Trajectory", "integrate_flow"]

_MIN_H = 1e-12


@dataclass(frozen=True)
class StepControl:
    """Nominal step size, per-step error tolerance, and an optional
    constraint-restoration hook applied to each accepted state."""

    h: float
    tol: float
    poststep: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.h <= 0:
            raise ContractViolation("step size must be positive")
        if self.tol <= 0:
            raise ContractViolation("tolerance must be positive")


@dataclass
class Trajectory:
    """Sampled curve: times, points (row per sample), and the per-step error
    estimates of the run that produced it.  Also reused as a plain curve
    carrier (zero step_stats) by projection and model utilities."""

    times: np.ndarray
    points: np.ndarray
    step_stats: np.ndarray = field(default=None)  # type: ignore[assignment]
    h_drift: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.step_stats is None:
            self.step_stats = np.zeros(max(0, len(self.times) - 1))
        self.step_stats = np.asarray(self.step_stats, dtype=float)
        if self.points.shape[0] != self.times.size:
            raise ContractViolation("times and points disagree in sample count")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ContractViolation("sample times must be strictly increasing")
        if self.step_stats.size != max(0, self.times.size - 1):
            raise ContractViolation("step_stats must have one entry per step")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _rk4_step(
    f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, h: float, k1: np.ndarray
) -> np.ndarray:
    """One RK4 step of size h from y, given the slope k1 = f(y)."""
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(
    biv: BivectorSpec,
    H: ScalarField,
    x0: np.ndarray,
    t_end: float,
    step: StepControl,
) -> Trajectory:
    """Integrate xdot = {H, x} from x0 over [0, t_end].

    The hamiltonian drift max_t |H(x(t)) - H(x0)| is checked against
    10 * tol * |t_end| and reported on the returned trajectory; violations
    warn but do not raise.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (biv.dim,):
        raise ContractViolation(f"x0 shape {x0.shape} does not match chart dim {biv.dim}")
    if t_end <= 0:
        raise ContractViolation("t_end must be positive")

    def rhs(y: np.ndarray) -> np.ndarray:
        return hamiltonian_vector_field(biv, H, y)

    times = [0.0]
    points = [x0.copy()]
    stats = []
    t = 0.0
    y = x0.copy()
    h = step.h
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(h, t_end - t)
        # absorb a sliver remainder into this step rather than emitting a
        # degenerate final interval (which would poison finite differences
        # over the sample times)
        if t_end - t - h < 0.1 * h:
            h = t_end - t
        k1 = rhs(y)
        while True:
            y_full = _rk4_step(rhs, y, h, k1)
            y_mid = _rk4_step(rhs, y, 0.5 * h, k1)
            y_half = _rk4_step(rhs, y_mid, 0.5 * h, rhs(y_mid))
            if not (np.all(np.isfinite(y_full)) and np.all(np.isfinite(y_half))):
                raise DivergenceError(
                    f"state left the finite range near t = {t:.6g}", last_good_time=t
                )
            est = float(np.max(np.abs(y_half - y_full))) / 15.0
            if est <= step.tol:
                break
            h *= 0.5
            if h < _MIN_H:
                raise StiffnessError(
                    f"step size underflow at t = {t:.6g}: flow too stiff for tol = {step.tol}"
                )
        y = y_half
        if step.poststep is not None:
            y = np.asarray(step.poststep(y), dtype=float)
        t += h
        times.append(t)
        points.append(y.copy())
        stats.append(est)
        if est < step.tol / 50.0:
            h = min(2.0 * h, step.h)

    traj = Trajectory(np.array(times), np.array(points), np.array(stats))
    h_vals = np.array([H(p) for p in traj.points])
    traj.h_drift = float(np.max(np.abs(h_vals - h_vals[0])))
    bound = 10.0 * step.tol * abs(t_end)
    if traj.h_drift > bound:
        warnings.warn(
            f"hamiltonian drift {traj.h_drift:.3e} exceeds {bound:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return traj
