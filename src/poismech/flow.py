"""Hamiltonian flow integration with per-step error estimation.

Each step is one Runge-Kutta-Fehlberg 4(5) step (Fehlberg 1969, NASA TR
R-315; Hairer-Norsett-Wanner, *Solving ODEs I*, section II.4).  Its six
stages give an embedded pair of solutions, of orders 4 and 5.  The fourth-
order solution is the one propagated, and the difference of the two,
``h * max|sum_i (b5 - b4)_i k_i|``, estimates the local error of that
accepted state.  A step costs 6 right-hand side evaluations.  Steps whose
estimate exceeds the tolerance are retried from the same y, and the same
first slope k1 = f(y), with h halved, so a retry costs 5; h recovers toward
its nominal value afterwards, which it never exceeds.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .bracket import BivectorSpec, ScalarField, hamiltonian_vector_field
from .errors import ContractViolation, DivergenceError, StiffnessError

__all__ = ["StepControl", "Trajectory", "integrate_flow"]

_MIN_H = 1e-12

# Fehlberg's 4(5) tableau.  Stage i evaluates the right-hand side at
# y + h * sum_j A[i][j] k_j; B4 weighs the stages into the fourth-order
# solution, B5 into the fifth-order one.  Exact, so the order conditions
# can be checked in rationals.
_A = tuple(tuple(map(Fraction, row)) for row in (
    (),
    ("1/4",),
    ("3/32", "9/32"),
    ("1932/2197", "-7200/2197", "7296/2197"),
    ("439/216", "-8", "3680/513", "-845/4104"),
    ("-8/27", "2", "-3544/2565", "1859/4104", "-11/40"),
))
_B4 = tuple(map(Fraction, ("25/216", "0", "1408/2565", "2197/4104", "-1/5", "0")))
_B5 = tuple(map(Fraction, ("16/135", "0", "6656/12825", "28561/56430", "-9/50", "2/55")))

# float forms: one weight row per stage, and the update and error weights
_STAGE_ROWS = tuple(np.array(row, dtype=float) for row in _A)
_B4_F = np.array(_B4, dtype=float)
_ERR_F = np.array([b5 - b4 for b4, b5 in zip(_B4, _B5)], dtype=float)


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
    """Sampled curve: times, points (row per sample), and ``step_stats``, the
    local error estimate of each accepted step of the run that produced it
    (the embedded 4(5) difference that the step met against the tolerance).
    Also reused as a plain curve carrier (zero step_stats) by projection and
    model utilities."""

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


def integrate_flow(
    biv: BivectorSpec,
    H: ScalarField,
    x0: np.ndarray,
    t_end: float,
    step: StepControl,
) -> Trajectory:
    """Integrate xdot = {H, x} from x0 over [0, t_end].

    The hamiltonian drift max_t |H(x(t)) - H(x0)| is checked against the
    larger of 10 * tol * |t_end| and 2 u |H(x0)| per sample (u = 2^-53), and
    reported on the returned trajectory; violations warn but do not raise.
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
    k = np.empty((len(_STAGE_ROWS), y.size))  # the stage slopes, one row each
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(h, t_end - t)
        # absorb a sliver remainder into this step rather than emitting a
        # degenerate final interval (which would poison finite differences
        # over the sample times)
        if t_end - t - h < 0.1 * h:
            h = t_end - t
        k[0] = rhs(y)
        while True:
            for i in range(1, len(_STAGE_ROWS)):
                k[i] = rhs(y + h * (_STAGE_ROWS[i] @ k[:i]))
            y_new = y + h * (_B4_F @ k)
            est = h * float(np.abs(_ERR_F @ k).max())
            if not (np.isfinite(y_new).all() and math.isfinite(est)):
                raise DivergenceError(
                    f"state left the finite range near t = {t:.6g}", last_good_time=t
                )
            if est <= step.tol:
                break
            h *= 0.5
            if h < _MIN_H:
                raise StiffnessError(
                    f"step size underflow at t = {t:.6g}: flow too stiff for tol = {step.tol}"
                )
        y = y_new
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
    # rounding the state moves H by about u |H| a step at any step size (su2
    # flows at H 5e5 to 5e17 drift at most 0.31 u |H| a step), so the bound
    # never falls below 2u = 2^-52 of |H(x0)| per sample
    bound = max(10.0 * step.tol * abs(t_end), 2.0**-52 * abs(h_vals[0]) * h_vals.size)
    if traj.h_drift > bound:
        warnings.warn(
            f"hamiltonian drift {traj.h_drift:.3e} exceeds {bound:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return traj
