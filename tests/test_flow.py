"""Adaptive Dormand-Prince 5(4) flow integration sampled on a fixed grid:
accuracy, order, cost, the tableau and its continuous extension, the error
estimate, and failure modes."""
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poismech import flow
from poismech.bracket import ScalarField, hamiltonian_vector_field
from poismech.errors import ContractViolation, DivergenceError, StiffnessError
from poismech.flow import _A, _B4, _B5, _W, StepControl, Trajectory, integrate_flow
from poismech.groupoid import canonical_bivector

OSC = ScalarField(fn=lambda s: 0.5 * (s[0] ** 2 + s[1] ** 2), grad=lambda s: s.copy())


# H = -p e^x drives xdot = e^x: from x(0) = 0 the solution -log(1 - t)
# leaves every compact set as t -> 1, and e^x overflows past x = 709.8.
EXP_BLOWUP = ScalarField(fn=lambda s: -s[1] * np.exp(s[0]),
                         grad=lambda s: np.array([-s[1] * np.exp(s[0]), -np.exp(s[0])]))


def rotation_exact(y0, t):
    # xdot = {H, x} = -p, pdot = x  for H = (x^2 + p^2)/2
    c, s = np.cos(t), np.sin(t)
    return np.array([c * y0[0] - s * y0[1], s * y0[0] + c * y0[1]])


def test_oscillator_endpoint_accuracy():
    can = canonical_bivector(1)
    y0 = np.array([1.0, 0.25])
    traj = integrate_flow(can, OSC, y0, 7.0, StepControl(h=1e-2, tol=1e-10))
    np.testing.assert_allclose(traj.points[-1], rotation_exact(y0, 7.0), atol=1e-8)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(7.0, abs=1e-12)
    assert max(abs(OSC.fn(p) - OSC.fn(traj.points[0])) for p in traj.points) < 1e-9


def _one_step(y, h):
    """One attempt of the integrator's own step on the oscillator: the
    fifth-order state, the embedded fourth-order one, the estimate, and the
    continuous extension at theta = 1/2."""
    can = canonical_bivector(1)

    def rhs(x):
        return hamiltonian_vector_field(can, OSC, x)

    k = np.empty((7, 2))
    k[0] = rhs(y)
    y5, est = flow._dp_step(rhs, y, h, k)
    y4 = y + h * (np.array(_B4, dtype=float) @ k)
    half = y + h * (np.array([sum(c / 2 ** (p + 1) for p, c in enumerate(col))
                              for col in zip(*_W)], dtype=float) @ k)
    return y5, y4, est, half


def test_fourth_order_convergence():
    """Halving one step cuts the local error of the embedded fourth-order
    solution and of the continuous extension by ~2^5 and that of the
    propagated fifth-order solution by ~2^6."""
    y0 = np.array([1.0, 0.25])
    errs = []
    for h in (0.2, 0.1):
        y5, y4, _, half = _one_step(y0, h)
        exact = rotation_exact(y0, h)
        errs.append([np.max(np.abs(y5 - exact)), np.max(np.abs(y4 - exact)),
                     np.max(np.abs(half - rotation_exact(y0, h / 2)))])
    r5, r4, r_half = np.array(errs[0]) / np.array(errs[1])
    assert 64.0 * 0.7 < r5 < 64.0 * 1.3
    assert 32.0 * 0.7 < r4 < 32.0 * 1.3
    assert 32.0 * 0.7 < r_half < 32.0 * 1.3


def _counting(field):
    """``field`` with a gradient that counts its calls; every right-hand
    side evaluation of the flow takes exactly one gradient."""
    calls = [0]

    def grad(s):
        calls[0] += 1
        return field.grad(s)

    return ScalarField(fn=field.fn, grad=grad), calls


def _spy_on_steps(monkeypatch):
    """Record (y, h, new state, estimate, stage slopes) of every attempt the
    integrator makes."""
    attempts = []
    step = flow._dp_step

    def spy(rhs, y, h, k):
        y_new, est = step(rhs, y, h, k)
        attempts.append((y.copy(), h, y_new.copy(), est, k.copy()))
        return y_new, est

    monkeypatch.setattr(flow, "_dp_step", spy)
    return attempts


# Two oscillators on the canonical 4-chart (x1, x2, p1, p2), of frequencies
# 1 and 100.  From FAST_START the fast one has amplitude 1e-4: its second
# derivative, 1, is no larger than the slow one's, so the starting rule's
# probe does not see it, but its fifth derivative, 1e6, is what sets the step.
FAST_W = np.array([1.0, 100.0, 1.0, 100.0])
FAST = ScalarField(fn=lambda s: 0.5 * float(FAST_W @ (s * s)), grad=lambda s: FAST_W * s)
FAST_START = np.array([0.0, 0.0, 1.0, 1e-4])


def fast_exact(y0, t):
    # each pair (x_i, p_i) turns at its own frequency
    c, s = np.cos(FAST_W[:2] * t), np.sin(FAST_W[:2] * t)
    return np.concatenate([c * y0[:2] - s * y0[2:], s * y0[:2] + c * y0[2:]])


def test_adaptive_halving_recovers_accuracy(monkeypatch):
    """The starting rule reads the first two derivatives only, so on a fast
    mode of small amplitude its step is too long for the tolerance: the
    control rejects it and shrinks the step from the same state, each
    attempt costing 6 evaluations after the first slope and the starting
    probe, and every accepted step meets tol; the samples stay on the grid
    of the sample spacing, which is far coarser than the steps."""
    can = canonical_bivector(2)
    H, calls = _counting(FAST)
    attempts = _spy_on_steps(monkeypatch)
    traj = integrate_flow(can, H, FAST_START, 3.0, StepControl(h=0.5, tol=1e-12))
    assert calls[0] == 2 + 6 * len(attempts)
    # a mean step under a quarter of the sample spacing
    assert len(attempts) > 4 * 6
    assert attempts[0][3] > 1e-12  # the starting step is rejected
    assert np.array_equal(attempts[1][0], FAST_START) and attempts[1][1] < attempts[0][1]
    assert all(est <= 1e-12 for _, _, _, est, _ in attempts[2:])
    assert np.array_equal(traj.times, np.arange(7) * 0.5)
    np.testing.assert_allclose(traj.points[-1], fast_exact(FAST_START, 3.0), atol=1e-9)


# The tableau of Dormand and Prince written out stage by stage, with the
# coefficients as literals, and the continuous extension in Hairer,
# Norsett and Wanner's form (their contd5).
def _dopri(f, y, h, k1):
    k2 = f(y + h * (k1 / 5))
    k3 = f(y + h * (3 / 40 * k1 + 9 / 40 * k2))
    k4 = f(y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
    k5 = f(y + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                    - 212 / 729 * k4))
    k6 = f(y + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                    - 5103 / 18656 * k5))
    y5 = y + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5
                  + 11 / 84 * k6)
    k7 = f(y5)
    err = (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4 - 17253 / 339200 * k5
           + 22 / 525 * k6 - k7 / 40)
    r2 = y5 - y
    r3 = h * k1 - r2
    r4 = r2 - h * k7 - r3
    r5 = h * (-12715105075 / 11282082432 * k1 + 87487479700 / 32700410799 * k3
              - 10690763975 / 1880347072 * k4 + 701980252875 / 199316789632 * k5
              - 1453857185 / 822651844 * k6 + 69997945 / 29380423 * k7)

    def dense(theta):
        return y + theta * (r2 + (1 - theta) * (r3 + theta * (r4 + (1 - theta) * r5)))

    return y5, k7, h * float(np.max(np.abs(err))), dense


def _grid(t_end, h):
    """The samples of the capped loop that stepped by h: t += h, a remainder
    under h / 10 absorbed into the last interval."""
    times, t = [0.0], 0.0
    while t < t_end - 1e-15 * max(1.0, t_end):
        dt = min(h, t_end - t)
        if t_end - t - dt < 0.1 * dt:
            dt = t_end - t
        t += dt
        times.append(t)
    return np.array(times)


def _reference_start(f, y0, k1, tol):
    """Hairer, Norsett and Wanner's starting step (their hinit) in the max
    norm with the absolute tolerance tol, for a method of order 5."""
    d0, d1 = np.max(np.abs(y0)), np.max(np.abs(k1))
    if d0 < 1e-5 * tol or d1 < 1e-5 * tol:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    d2 = np.max(np.abs(f(y0 + h0 * k1) - k1)) / h0
    if max(d1, d2) == 0.0:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 * tol / max(d1, d2)) ** (1 / 5)
    return float(min(100 * h0, h1))


def _reference_flow(biv, H, y0, t_end, h_nom, tol):
    """The same controller around the stage-by-stage step: the first trial
    step from the starting rule, then an accepted step scales h by 0.9
    (tol / est)^(1/5) within [1/5, 5] (at most 1 right after a rejection), a
    rejected one by the same factor within [1/5, 1), and a step within 1% of
    the end is stretched onto it; the samples lie every h_nom.  Returns the
    grid, the samples, the number of attempts and the number of
    rejections."""

    def f(y):
        return hamiltonian_vector_field(biv, H, y)

    times = _grid(t_end, h_nom)
    end = times[-1]
    points = [y0.copy()]
    t, y, k1 = 0.0, y0.copy(), f(y0)
    h = _reference_start(f, y0, k1, tol)
    attempts = rejected = 0
    while t < end:
        grow = 5.0
        while True:
            last = t + 1.01 * h >= end
            if last:
                h = end - t
            y5, k7, est, dense = _dopri(f, y, h, k1)
            attempts += 1
            if est <= tol:
                break
            rejected += 1
            grow = 1.0
            h *= max(0.2, 0.9 * (tol / est) ** 0.2)
        t_new = end if last else t + h
        for s in times[len(points):]:
            if s > t_new:
                break
            points.append(y5.copy() if s == t_new else dense((s - t) / h))
        t, y, k1 = t_new, y5, k7
        h *= min(grow, max(0.2, 0.9 * (tol / est) ** 0.2))
    return times, np.array(points), attempts, rejected


def test_step_costs_six_rhs_evaluations(monkeypatch):
    """The first slope and the starting rule's probe, then six stages per
    attempt, is the whole cost of a run: the last stage of a step is the
    next step's first.  The samples, every 0.05, outnumber the steps."""
    H, calls = _counting(OSC)
    attempts = _spy_on_steps(monkeypatch)
    traj = integrate_flow(canonical_bivector(1), H, np.array([1.0, 0.25]), 2.0,
                          StepControl(h=0.05, tol=1e-8))
    np.testing.assert_allclose(np.diff(traj.times), 0.05, rtol=1e-12)
    assert len(traj.times) - 1 == 40
    assert all(a[3] <= 1e-8 for a in attempts)  # no rejection
    assert len(attempts) < 40
    assert calls[0] == 2 + 6 * len(attempts)


@pytest.mark.parametrize("h, tol, H, y0, t_end, rejects", [
    pytest.param(0.05, 1e-8, OSC, np.array([1.0, 0.25]), 3.0, False, id="0.05-1e-08"),
    pytest.param(0.5, 1e-12, OSC, np.array([1.0, 0.25]), 3.0, False, id="0.5-1e-12"),
    # xdot = e^x nears its blow-up at t = 1: the derivatives grow faster
    # than the control predicts, and it rejects steps on the way
    pytest.param(0.05, 1e-8, EXP_BLOWUP, np.array([0.0, 1.0]), 0.9, True, id="blowup-0.05-1e-08"),
])
def test_trajectory_matches_the_stage_by_stage_dormand_prince_stepper(h, tol, H, y0, t_end, rejects):
    """The tableau and extension held as module data compute the textbook
    step, and the starting rule the textbook start: the same grid, samples
    equal to rounding, and the same number of attempts, each of 6
    evaluations after the first slope and the starting probe."""
    can = canonical_bivector(1)
    counted, calls = _counting(H)
    traj = integrate_flow(can, counted, y0, t_end, StepControl(h=h, tol=tol))
    times, points, attempts, rejected = _reference_flow(can, H, y0, t_end, h, tol)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.points - points)) <= 1e-15 * np.max(np.abs(points))
    assert calls[0] == 2 + 6 * attempts
    assert (rejected > 0) == rejects


def _rooted_trees(order):
    """Every rooted tree of ``order`` nodes, a tree being the sorted tuple of
    its root's subtrees: a leaf grafted onto each node of each tree of one
    node fewer, duplicates merged."""
    if order == 1:
        return {()}

    def grafts(tree):
        yield tuple(sorted(tree + ((),)))
        for i, sub in enumerate(tree):
            for g in grafts(sub):
                yield tuple(sorted(tree[:i] + (g,) + tree[i + 1:]))

    return {g for tree in _rooted_trees(order - 1) for g in grafts(tree)}


def _density(tree):
    """gamma(t) and the size of ``tree``: gamma is the size times the
    gammas of the root's subtrees."""
    gamma, size = 1, 1
    for sub in tree:
        g, n = _density(sub)
        gamma, size = gamma * g, size + n
    return gamma * size, size


def _stage_weights(tree):
    """Phi_i(t) of each stage i: the product over the root's subtrees s of
    sum_j a_ij Phi_j(s); 1 for the one-node tree."""
    phi = [Fraction(1)] * len(_A)
    for sub in tree:
        inner = _stage_weights(sub)
        phi = [p * sum((a * w for a, w in zip(row, inner)), Fraction(0))
               for p, row in zip(phi, _A)]
    return phi


def test_dormand_prince_tableau_meets_the_order_conditions_exactly():
    """Butcher's conditions sum_i b_i Phi_i(t) = theta^|t| / gamma(t), in
    exact rationals: on every rooted tree of up to 5 nodes for the
    propagated weights B5 (theta = 1), up to 4 for B4, which misses an
    order-5 condition so that the difference of the two estimates B4's own
    local error, and up to 4 for the continuous extension at theta = 1/4,
    1/2, 3/4 and 1, where it is B5.  The last stage evaluates at the
    B5 state (FSAL)."""
    assert [len(_rooted_trees(n)) for n in range(1, 6)] == [1, 1, 2, 4, 9]
    assert [len(row) for row in _A] == list(range(7))  # explicit stages
    assert _A[-1] + (0,) == _B5 and len(_B4) == len(_B5) == 7

    def residual(b, tree, theta=Fraction(1)):
        total = sum((bi * p for bi, p in zip(b, _stage_weights(tree))), Fraction(0))
        density, size = _density(tree)
        return total - theta**size / density

    def extension(theta):
        return [sum((c * theta ** (p + 1) for p, c in enumerate(col)), Fraction(0))
                for col in zip(*_W)]

    for order in range(1, 6):
        for tree in _rooted_trees(order):
            assert residual(_B5, tree) == 0
            if order <= 4:
                assert residual(_B4, tree) == 0
                for theta in map(Fraction, ("1/4", "1/2", "3/4", "1")):
                    assert residual(extension(theta), tree, theta) == 0
    assert any(residual(_B4, tree) != 0 for tree in _rooted_trees(5))
    assert extension(Fraction(1)) == list(_B5)


def test_error_estimate_tracks_the_true_local_error(monkeypatch):
    """The exact flow of the oscillator from each state a step starts at is
    known, so the true local error of the embedded fourth-order solution of
    every accepted step can be set beside the estimate the step was accepted
    on, and the propagated fifth-order solution is the more accurate."""
    can = canonical_bivector(1)
    attempts = _spy_on_steps(monkeypatch)
    integrate_flow(can, OSC, np.array([1.0, 0.25]), 6.0, StepControl(h=0.2, tol=1e-7))
    b4 = np.array(_B4, dtype=float)
    accepted = [a for a in attempts if a[3] <= 1e-7]
    assert len(accepted) >= 5
    for y, h, y5, est, k in accepted:
        exact = rotation_exact(y, h)
        ratio = np.max(np.abs(y + h * (b4 @ k) - exact)) / est
        assert 0.5 <= ratio <= 2.0, ratio
        assert np.max(np.abs(y5 - exact)) <= est


# H = x^2 p drives xdot = -x^2: from x(0) = -1 the solution -1/(1 - t)
# leaves every compact set as t -> 1.
BLOWUP = ScalarField(fn=lambda s: s[0] ** 2 * s[1],
                     grad=lambda s: np.array([2.0 * s[0] * s[1], s[0] ** 2]))


def test_finite_time_blowup_stiffness():
    can = canonical_bivector(1)
    with pytest.raises(StiffnessError):
        integrate_flow(can, BLOWUP, np.array([-1.0, 1.0]), 2.0,
                       StepControl(h=1e-2, tol=1e-8))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_reports_last_good_time():
    can = canonical_bivector(1)
    with pytest.raises(DivergenceError) as info:
        # tol so loose that nothing is rejected: from the starting rule's
        # floor of 1e-4 each step grows fivefold, until the one from
        # t = 0.39 reaches past the blow-up and overflows in its stages
        integrate_flow(can, EXP_BLOWUP, np.array([0.0, 1.0]), 2.0,
                       StepControl(h=0.5, tol=1e30))
    assert 0.0 < info.value.last_good_time < 1.0


# BLOWUP from x(0) = -S with S^2 = 0.995 DBL_MAX: the start's velocity -S^2
# is finite, but the starting rule's probe, 1% of |x| further out, squares to
# 1.015 DBL_MAX.
EDGE_OF_RANGE = np.array([-math.sqrt(0.995 * np.finfo(float).max), 1.0])


def _flip(x):
    # a speed of 1e308 at x <= 0 and of -1e308 past it
    return 1e308 if x <= 0.0 else -1e308


# H = -p g(x) drives xdot = g(x): from x = p = 0 the starting rule's probe
# lands past the flip, and the difference of the two slopes overflows.
FLIP = ScalarField(fn=lambda s: -s[1] * _flip(s[0]), grad=lambda s: np.array([0.0, -_flip(s[0])]))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("H, y0", [(BLOWUP, EDGE_OF_RANGE), (FLIP, np.zeros(2))],
                         ids=["probe-overflows", "no-finite-start"])
def test_starting_rule_that_finds_no_step_is_a_divergence_at_t_0(H, y0):
    """A probe that leaves the finite range, or a start that is not a
    positive finite step, ends the run at t = 0 rather than stepping by 0 or
    NaN, which would never advance t."""
    with pytest.raises(DivergenceError) as info:
        integrate_flow(canonical_bivector(1), H, y0, 1.0, StepControl(h=0.1, tol=1e-8))
    assert info.value.last_good_time == 0.0


def test_steps_do_not_depend_on_the_sample_spacing(monkeypatch):
    """The first trial step comes from the tolerance, so at every sample
    spacing that divides t_end the run takes the same accepted steps to the
    same step-end states; only the samples read between them differ."""
    can = canonical_bivector(1)
    attempts = _spy_on_steps(monkeypatch)
    runs = []
    for h in (1e-3, 1e-2, 5e-2):
        attempts.clear()
        traj = integrate_flow(can, OSC, np.array([1.0, 0.25]), 2.0, StepControl(h=h, tol=1e-8))
        assert traj.times[-1] == 2.0
        runs.append([(a[1], a[2]) for a in attempts if a[3] <= 1e-8])
    assert len(runs[0]) > 5
    for run in runs[1:]:
        assert [h for h, _ in run] == [h for h, _ in runs[0]]
        assert all(np.array_equal(y, y_ref) for (_, y), (_, y_ref) in zip(run, runs[0]))


def test_no_degenerate_final_interval():
    """Accumulated rounding in t must not leave a ~1e-13 sliver step at the
    end of the run; such an interval wrecks finite differences over the
    sample times."""
    can = canonical_bivector(1)
    traj = integrate_flow(can, OSC, np.array([1.0, 0.0]), 2.0,
                          StepControl(h=1e-3, tol=1e-8))
    assert np.min(np.diff(traj.times)) > 5e-4
    assert traj.times[-1] == pytest.approx(2.0, abs=1e-14)


def test_poststep_hook_is_applied_each_step():
    can = canonical_bivector(1)

    def renorm(y):
        return y / np.linalg.norm(y, axis=-1, keepdims=True)

    traj = integrate_flow(can, OSC, np.array([1.0, 0.0]), 2.0,
                          StepControl(h=5e-2, tol=1e-8, poststep=renorm))
    radii = np.linalg.norm(traj.points, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-14)


def test_poststep_that_moves_the_state_costs_one_evaluation(monkeypatch):
    """The hook sees exactly the accepted states, in order.  A state it
    returns unchanged keeps the step's last slope as the next first one; a
    state it moves takes one more evaluation."""
    can = canonical_bivector(1)
    seen = []

    def keep(y):
        seen.append(y.copy())
        return y

    def move(y):
        return y * (1.0 - 1e-12)

    for hook, extra in ((keep, 0), (move, 1)):
        H, calls = _counting(OSC)
        attempts = _spy_on_steps(monkeypatch)
        integrate_flow(can, H, np.array([1.0, 0.0]), 2.0,
                       StepControl(h=5e-2, tol=1e-8, poststep=hook))
        assert all(a[3] <= 1e-8 for a in attempts)  # each attempt accepted
        assert calls[0] == 2 + (6 + extra) * len(attempts)
        if hook is keep:
            assert [y.tobytes() for y in seen] == [a[2].tobytes() for a in attempts]


def test_poststep_runs_once_per_accepted_step_on_one_state(monkeypatch):
    """One call per accepted attempt, on that attempt's state alone, shape
    ``(n,)``; rejected attempts and the samples inside a step never reach
    the hook.  What it returns is where the next step starts and what the
    step-end sample stores."""
    can = canonical_bivector(1)
    seen, returned = [], []

    def hook(y):
        seen.append(y.copy())
        returned.append(y * (1.0 - 1e-12))
        return returned[-1]

    attempts = _spy_on_steps(monkeypatch)
    traj = integrate_flow(can, OSC, np.array([1.0, 0.0]), 6.0,
                          StepControl(h=1e-2, tol=1e-6, poststep=hook))
    accepted = [a for a in attempts if a[3] <= 1e-6]
    assert all(y.shape == (2,) for y in seen)
    assert [y.tobytes() for y in seen] == [a[2].tobytes() for a in accepted]
    assert [r.tobytes() for r in returned[:-1]] == [a[0].tobytes() for a in accepted[1:]]
    assert traj.points[-1].tobytes() == returned[-1].tobytes()
    assert traj.times.size - 1 > 10 * len(accepted)  # many samples per step


def _scalar_sample_times(t_end, h):
    """The grid as a scalar loop, one addition t += h per sample: the
    reference the cumulative sum must reproduce bit for bit."""
    times = [0.0]
    t = 0.0
    while t < t_end - flow._END_SLACK * max(1.0, t_end):
        dt = min(h, t_end - t)
        if t_end - t - dt < 0.1 * dt:
            dt = t_end - t
        t += dt
        times.append(t)
    return np.array(times)


@st.composite
def _grid_ends(draw):
    """(t_end, h): h in 1e-4..1, and t_end either anywhere up to 2000 steps,
    within a few ulps of a multiple of h, or a multiple plus a remainder
    just under, at or just over h/10."""
    h = 10.0 ** draw(st.floats(-4.0, 0.0))
    n = draw(st.integers(1, 2000))
    kind = draw(st.sampled_from(["any", "ulps", "tenth"]))
    if kind == "any":
        t_end = draw(st.floats(1e-12, n * h))
    elif kind == "ulps":
        t_end, ulps = n * h, draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            t_end = np.nextafter(t_end, math.inf if ulps > 0 else 0.0)
    else:
        t_end = (n + 0.1 + draw(st.sampled_from([-1e-9, -1e-12, 0.0, 1e-12, 1e-9]))) * h
    return float(t_end), h


@settings(max_examples=600, derandomize=True, deadline=None)
@given(_grid_ends())
def test_sample_grid_is_the_scalar_loop_bit_for_bit(case):
    t_end, h = case
    expected = _scalar_sample_times(t_end, h)
    got = flow._sample_times(t_end, h)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 256])
def test_sample_grid_up_to_the_largest_float_is_finite(k):
    """At t_end = DBL_MAX and h = t_end / k the cumulative sum stops before
    a point that would pass DBL_MAX (at k = 3 it overflowed, with a warning
    that pytest makes an error): the grid is the scalar loop's, finite and
    ending at t_end."""
    t_end = sys.float_info.max
    got = flow._sample_times(t_end, t_end / k)
    assert got.tobytes() == _scalar_sample_times(t_end, t_end / k).tobytes()
    assert np.all(np.isfinite(got)) and got[-1] == t_end


def _no_value(s):
    raise AssertionError("the flow evaluated H itself")


def test_flow_reads_h_through_its_gradient_alone():
    """integrate_flow never evaluates H, only its gradient: with an ``fn``
    that raises, the run is the real field's run, bit for bit."""
    can = canonical_bivector(1)
    y0, step = np.array([1.0, 0.25]), StepControl(h=1e-2, tol=1e-10)
    real = integrate_flow(can, OSC, y0, 7.0, step)
    blind = integrate_flow(can, ScalarField(fn=_no_value, grad=OSC.grad), y0, 7.0, step)
    assert blind.times.tobytes() == real.times.tobytes()
    assert blind.points.tobytes() == real.points.tobytes()


def test_input_validation():
    can = canonical_bivector(1)
    with pytest.raises(ContractViolation):
        integrate_flow(can, OSC, np.zeros(3), 1.0, StepControl(h=1e-2, tol=1e-8))
    with pytest.raises(ContractViolation):
        integrate_flow(can, OSC, np.zeros(2), -1.0, StepControl(h=1e-2, tol=1e-8))
    with pytest.raises(ContractViolation):
        StepControl(h=0.0, tol=1e-8)
    with pytest.raises(ContractViolation):
        StepControl(h=1e-2, tol=-1e-8)
    with pytest.raises(ContractViolation):
        Trajectory(np.zeros(3), np.zeros((2, 2)))
    # NaN fails every "> 0" test, so it is named, not passed on to the grid
    # or the step control
    with pytest.raises(ContractViolation, match="^h "):
        StepControl(h=math.nan, tol=1e-8)
    with pytest.raises(ContractViolation, match="^tol "):
        StepControl(h=1e-2, tol=math.nan)
    # a non-finite t_end or start is named before any evaluation of H
    field, calls = _counting(OSC)
    step = StepControl(h=1e-2, tol=1e-8)
    for t_end in (math.nan, math.inf):
        with pytest.raises(ContractViolation, match="^t_end "):
            integrate_flow(can, field, np.zeros(2), t_end, step)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolation, match="^x0 "):
            integrate_flow(can, field, np.array([1.0, bad]), 1.0, step)
    assert calls[0] == 0
