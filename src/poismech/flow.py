"""Hamiltonian flow integration under a tolerance, sampled on a fixed grid.

Each step is one Dormand-Prince 5(4) step (Dormand & Prince 1980;
Hairer-Norsett-Wanner, *Solving ODEs I*, section II.5).  Its seven stages
give an embedded pair of solutions, of orders 5 and 4.  The fifth-order
solution is the one propagated, and it is also the seventh stage's state, so
the last slope of a step is the first of the next (FSAL) and a step costs 6
right-hand side evaluations.  The difference of the two solutions,
``h * max|sum_i (b5 - b4)_i k_i|``, estimates the local error of the
fourth-order one; a step is accepted when it is at most ``tol``, and the
next step is scaled by ``0.9 (tol / est)^(1/5)``, within [1/5, 5].  The
first trial step comes from ``tol`` too, by the starting rule of section
II.4, which costs one more evaluation, so the tolerance alone sets every
step.

The samples do not follow the steps: they lie on the grid ``t += h`` of the
sample spacing ``StepControl.h``, and each one inside a step is read from the
pair's fourth-order continuous extension (section II.6), which costs no
right-hand side evaluation.  A step's samples are read, and restored by the
constraint hook, as one stack: the hook runs at most twice a step.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .bracket import BivectorSpec, ScalarField, hamiltonian_vector_field
from .errors import ContractViolation, DivergenceError, StiffnessError

__all__ = ["StepControl", "Trajectory", "integrate_flow"]

_MIN_H = 1e-12
# the sample grid ends once t is within _END_SLACK max(1, t_end) of t_end
_END_SLACK = 1e-15
# step scaling: a safety factor on the step the estimate predicts, within
# [_SHRINK, _GROW] of the last step (no growth right after a rejection)
_SAFETY, _SHRINK, _GROW = 0.9, 0.2, 5.0

# Dormand and Prince's 5(4) tableau.  Stage i evaluates the right-hand side
# at y + h * sum_j A[i][j] k_j.  The last row is B5, the weights of the
# fifth-order solution (FSAL); B4 weighs the stages into the fourth-order
# one.  Exact, so the order conditions can be checked in rationals.
_A = tuple(tuple(map(Fraction, row)) for row in (
    (),
    ("1/5",),
    ("3/40", "9/40"),
    ("44/45", "-56/15", "32/9"),
    ("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
    ("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
    ("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84"),
))
_B5 = _A[-1] + (Fraction(0),)
_B4 = tuple(map(Fraction, ("5179/57600", "0", "7571/16695", "393/640", "-92097/339200",
                           "187/2100", "1/40")))
# The continuous extension y(t + theta h) = y + h sum_i w_i(theta) k_i
# (Hairer-Norsett-Wanner's dense output for this pair): the quartic that
# matches y and k1 at theta = 0, the new state and k7 at theta = 1, plus
# theta^2 (1 - theta)^2 times Shampine's combination D of the stages.
# _W[p][i] is the coefficient of theta^(p + 1) in w_i.
_D = tuple(map(Fraction, ("-12715105075/11282082432", "0", "87487479700/32700410799",
                          "-10690763975/1880347072", "701980252875/199316789632",
                          "-1453857185/822651844", "69997945/29380423")))
_E1, _E7 = (1, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 1)
_W = tuple(zip(*((e1, 3 * b - 2 * e1 - e7 + d, -2 * b + e1 + e7 - 2 * d, d)
                 for b, d, e1, e7 in zip(_B5, _D, _E1, _E7))))

# float forms: one weight row per stage, the error weights and the extension
_STAGE_ROWS = tuple(np.array(row, dtype=float) for row in _A)
_ERR_F = np.array([b5 - b4 for b4, b5 in zip(_B4, _B5)], dtype=float)
_W_F = np.array(_W, dtype=float)


@dataclass(frozen=True)
class StepControl:
    """Sample spacing ``h``, per-step error tolerance ``tol``, which alone
    sets the steps, and an optional constraint-restoration hook.  The hook
    takes one state, shape ``(n,)``, or a stack of them, ``(m, n)``, and
    returns the same shape: it runs on each accepted state and, once per
    step, on the stack of that step's samples.  A state it returns as the
    same object counts as unmoved."""

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
    """Sampled curve: times and points (row per sample).  ``integrate_flow``
    sets ``h_drift``; projections and model utilities reuse it as a plain
    curve carrier."""

    times: np.ndarray
    points: np.ndarray
    h_drift: float | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.asarray(self.points, dtype=float)
        if self.points.shape[0] != self.times.size:
            raise ContractViolation("times and points disagree in sample count")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ContractViolation("sample times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _sample_times(t_end: float, h: float) -> np.ndarray:
    """The grid ``t += h`` from 0 to ``t_end``.  A remainder under a tenth of
    ``h`` joins the last interval rather than leaving a degenerate one (which
    would poison finite differences over the sample times)."""
    stop = t_end - _END_SLACK * max(1.0, t_end)
    # the regular part, one cumulative sum: numpy accumulates in sequence, so
    # these are the additions t += h of the scalar rule below.  It runs while
    # a full step leaves at least h/10 before t_end (a condition monotone in
    # t, so the grid's regular points are a prefix of the sum).
    grid = np.concatenate(([0.0], np.cumsum(np.full(int(t_end / h), h))))
    regular = (grid < stop) & (t_end - grid - h >= 0.1 * h)
    k = min(int(np.count_nonzero(regular)), grid.size - 1)
    tail = []
    t = float(grid[k])
    while t < stop:
        dt = min(h, t_end - t)
        if t_end - t - dt < 0.1 * dt:
            dt = t_end - t
        t += dt
        tail.append(t)
    return np.concatenate((grid[:k + 1], tail))


def _scale(tol: float, est: float) -> float:
    """The factor by which an estimate ``est`` asks the next step to grow or
    shrink, within [_SHRINK, _GROW]."""
    return _GROW if est == 0.0 else min(_GROW, max(_SHRINK, _SAFETY * (tol / est) ** 0.2))


def _dp_step(rhs, y: np.ndarray, h: float, k: np.ndarray) -> tuple[np.ndarray, float]:
    """One Dormand-Prince attempt from ``y`` over ``h``, with ``k[0] =
    rhs(y)`` given: fills the stage slopes ``k[1:]`` and returns the
    fifth-order state and the error estimate of the embedded pair."""
    for i in range(1, len(_STAGE_ROWS)):
        k[i] = rhs(y + h * (_STAGE_ROWS[i] @ k[:i]))
    # the last stage's state is the fifth-order solution
    y_new = y + h * (_STAGE_ROWS[-1] @ k[:-1])
    return y_new, h * float(np.abs(_ERR_F @ k).max())


def _first_step(rhs, y: np.ndarray, f: np.ndarray, tol: float) -> float:
    """The first trial step from the tolerance, by Hairer-Norsett-Wanner's
    starting rule (section II.4) in the max norm against the absolute
    ``tol``: an explicit Euler guess ``h0 = 0.01 |y| / |f|``, one probe
    evaluation there for the size of the second derivative ``d2``, then
    ``min(100 h0, (0.01 tol / max(|f|, d2))^(1/5))``.  ``f = rhs(y)`` is
    given; the probe is one more evaluation."""
    d0, d1 = float(np.abs(y).max()), float(np.abs(f).max())
    h0 = 1e-6 if d0 < 1e-5 * tol or d1 < 1e-5 * tol else 0.01 * d0 / d1
    probe = rhs(y + h0 * f)
    if not np.isfinite(probe).all():
        raise DivergenceError("the starting step's probe left the finite range at t = 0",
                              last_good_time=0.0)
    d2 = float(np.abs(probe - f).max()) / h0
    scale = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if scale == 0.0 else (0.01 * tol / scale) ** 0.2
    h = min(100.0 * h0, h1)
    if not 0.0 < h < math.inf:
        raise DivergenceError(f"no finite positive starting step (got {h!r})", last_good_time=0.0)
    return h


def integrate_flow(
    biv: BivectorSpec,
    H: ScalarField,
    x0: np.ndarray,
    t_end: float,
    step: StepControl,
) -> Trajectory:
    """Integrate xdot = {H, x} from x0 over [0, t_end], sampled every
    ``step.h``.

    The hamiltonian drift max_t |H(x(t)) - H(x0)| is checked against the
    larger of 10 * tol * |t_end| and 2 u |H(x0)| per sample or step,
    whichever are more (u = 2^-53), and reported on the returned trajectory;
    violations warn but do not raise.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (biv.dim,):
        raise ContractViolation(f"x0 shape {x0.shape} does not match chart dim {biv.dim}")
    if t_end <= 0:
        raise ContractViolation("t_end must be positive")

    def rhs(y: np.ndarray) -> np.ndarray:
        return hamiltonian_vector_field(biv, H, y)

    def restore(y: np.ndarray) -> np.ndarray:
        return y if step.poststep is None else np.asarray(step.poststep(y), dtype=float)

    times = _sample_times(t_end, step.h)
    t_last = float(times[-1])  # t_end, or the grid's rounding of it
    points = np.empty((times.size, x0.size))
    points[0] = x0
    n_done = 1  # samples filled
    t, y = 0.0, x0.copy()
    k = np.empty((len(_STAGE_ROWS), y.size))  # the stage slopes, one row each
    k[0] = rhs(y)
    h = _first_step(rhs, y, k[0], step.tol)
    n_steps = 0
    while t < t_last:
        grow = _GROW
        while True:
            last = t + 1.01 * h >= t_last
            if last:
                h = t_last - t
            y_new, est = _dp_step(rhs, y, h, k)
            if not (np.isfinite(y_new).all() and math.isfinite(est)):
                raise DivergenceError(
                    f"state left the finite range near t = {t:.6g}", last_good_time=t
                )
            if est <= step.tol:
                break
            h *= _scale(step.tol, est)
            grow = 1.0
            if h < _MIN_H:
                raise StiffnessError(
                    f"step size underflow at t = {t:.6g}: flow too stiff for tol = {step.tol}"
                )
        t_new = t_last if last else t + h
        # the samples inside the step, from the continuous extension; one at
        # the step's end is its state
        end = int(np.searchsorted(times, t_new, side="right"))
        inner = end - (times[end - 1] == t_new)
        if inner > n_done:
            theta = ((times[n_done:inner] - t) / h)[:, None]
            weights = theta * (_W_F[0] + theta * (_W_F[1] + theta * (_W_F[2] + theta * _W_F[3])))
            dense = y + h * (weights @ k)
            points[n_done:inner] = restore(dense)
        y_post = restore(y_new)
        if inner < end:
            points[inner] = y_post
        n_done = end
        # FSAL: the next first slope is this step's last, unless the hook
        # moved the state
        k[0] = k[-1] if y_post is y_new else rhs(y_post)
        t, y = t_new, y_post
        n_steps += 1
        h *= min(grow, _scale(step.tol, est))

    traj = Trajectory(times, points)
    h_vals = np.array([H(p) for p in traj.points])
    traj.h_drift = float(np.max(np.abs(h_vals - h_vals[0])))
    # rounding the state moves H by about u |H| a step at any step size (su2
    # flows at H 5e5 to 5e15 drift at most 0.51 u |H| a step), and each
    # sample carries its own, so the bound never falls below 2u = 2^-52 of
    # |H(x0)| per step or per sample, whichever are more
    bound = max(10.0 * step.tol * abs(t_end),
                2.0**-52 * abs(h_vals[0]) * max(h_vals.size, n_steps + 1))
    if traj.h_drift > bound:
        warnings.warn(
            f"hamiltonian drift {traj.h_drift:.3e} exceeds {bound:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return traj
