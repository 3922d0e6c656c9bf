"""Adaptive Dormand-Prince 5(4) flow integration sampled on a fixed grid:
accuracy, order, cost, the tableau and its continuous extension, the error
estimate, and failure modes."""
from fractions import Fraction

import numpy as np
import pytest

from poismech import flow
from poismech.bracket import ScalarField, hamiltonian_vector_field
from poismech.errors import ContractViolation, DivergenceError, StiffnessError
from poismech.flow import _A, _B4, _B5, _W, StepControl, Trajectory, integrate_flow
from poismech.groupoid import canonical_bivector

OSC = ScalarField(fn=lambda s: 0.5 * (s[0] ** 2 + s[1] ** 2), grad=lambda s: s.copy())


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
    assert max(abs(OSC(p) - OSC(traj.points[0])) for p in traj.points) < 1e-9


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


def _counting_oscillator():
    """OSC with a gradient that counts its calls; every right-hand side
    evaluation of the flow takes exactly one gradient."""
    calls = [0]

    def grad(s):
        calls[0] += 1
        return s.copy()

    return ScalarField(fn=OSC.fn, grad=grad), calls


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


def test_adaptive_halving_recovers_accuracy(monkeypatch):
    """The nominal step is far too coarse for the tolerance: the control
    rejects it and shrinks the step, each attempt costing 6 evaluations
    after the first slope, and every accepted step meets tol; the samples
    stay on the nominal grid."""
    can = canonical_bivector(1)
    y0 = np.array([0.0, 1.0])
    H, calls = _counting_oscillator()
    attempts = _spy_on_steps(monkeypatch)
    traj = integrate_flow(can, H, y0, 3.0, StepControl(h=0.5, tol=1e-12))
    assert calls[0] == 1 + 6 * len(attempts)
    # a mean step under a quarter of the nominal one
    assert len(attempts) > 4 * 6
    assert attempts[0][3] > 1e-12  # the nominal first step is rejected
    assert np.array_equal(traj.times, np.arange(7) * 0.5)
    np.testing.assert_allclose(traj.points[-1], rotation_exact(y0, 3.0), atol=1e-9)


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


def _reference_flow(biv, H, y0, t_end, h_nom, tol):
    """The same controller around the stage-by-stage step: an accepted step
    scales h by 0.9 (tol / est)^(1/5) within [1/5, 5] (at most 1 right after
    a rejection), a rejected one by the same factor within [1/5, 1), and a
    step within 1% of the end is stretched onto it.  Returns the grid, the
    samples, the number of attempts and the number of rejections."""

    def f(y):
        return hamiltonian_vector_field(biv, H, y)

    times = _grid(t_end, h_nom)
    end = times[-1]
    points = [y0.copy()]
    t, y, h, k1 = 0.0, y0.copy(), h_nom, f(y0)
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
    """The first slope, then six stages per attempt, is the whole cost of a
    run: the last stage of a step is the next step's first.  The samples,
    every 0.05, outnumber the steps."""
    H, calls = _counting_oscillator()
    attempts = _spy_on_steps(monkeypatch)
    traj = integrate_flow(canonical_bivector(1), H, np.array([1.0, 0.25]), 2.0,
                          StepControl(h=0.05, tol=1e-8))
    np.testing.assert_allclose(np.diff(traj.times), 0.05, rtol=1e-12)
    assert len(traj.times) - 1 == 40
    assert all(a[3] <= 1e-8 for a in attempts)  # no rejection
    assert len(attempts) < 40
    assert calls[0] == 1 + 6 * len(attempts)


@pytest.mark.parametrize("h, tol", [(0.05, 1e-8), (0.5, 1e-12)])
def test_trajectory_matches_the_stage_by_stage_dormand_prince_stepper(h, tol):
    """The tableau and extension held as module data compute the textbook
    step: the same grid, samples equal to rounding, and the same number of
    attempts, each of 6 evaluations after the first slope."""
    can = canonical_bivector(1)
    y0 = np.array([1.0, 0.25])
    H, calls = _counting_oscillator()
    traj = integrate_flow(can, H, y0, 3.0, StepControl(h=h, tol=tol))
    times, points, attempts, rejected = _reference_flow(can, OSC, y0, 3.0, h, tol)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.points - points)) <= 1e-15 * np.max(np.abs(points))
    assert calls[0] == 1 + 6 * attempts
    if h == 0.5:
        assert rejected > 0


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


# H = -p e^x drives xdot = e^x: from x(0) = 0 the solution -log(1 - t)
# leaves every compact set as t -> 1, and e^x overflows past x = 709.8.
EXP_BLOWUP = ScalarField(fn=lambda s: -s[1] * np.exp(s[0]),
                         grad=lambda s: np.array([-s[1] * np.exp(s[0]), -np.exp(s[0])]))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_reports_last_good_time():
    can = canonical_bivector(1)
    with pytest.raises(DivergenceError) as info:
        # tol so loose that nothing is rejected: the first step, to t = 0.5,
        # is accepted, and the next one grows to the end and overflows in
        # its stages
        integrate_flow(can, EXP_BLOWUP, np.array([0.0, 1.0]), 2.0,
                       StepControl(h=0.5, tol=1e30))
    assert 0.0 < info.value.last_good_time < 1.0


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
        return y / np.linalg.norm(y)

    traj = integrate_flow(can, OSC, np.array([1.0, 0.0]), 2.0,
                          StepControl(h=5e-2, tol=1e-8, poststep=renorm))
    radii = np.linalg.norm(traj.points, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-14)


def test_poststep_that_moves_the_state_costs_one_evaluation(monkeypatch):
    """The hook runs on every accepted state and every sample.  A state it
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
        H, calls = _counting_oscillator()
        attempts = _spy_on_steps(monkeypatch)
        traj = integrate_flow(can, H, np.array([1.0, 0.0]), 2.0,
                              StepControl(h=5e-2, tol=1e-8, poststep=hook))
        assert all(a[3] <= 1e-8 for a in attempts)  # each attempt accepted
        assert calls[0] == 1 + (6 + extra) * len(attempts)
        if hook is keep:
            hooked = {tuple(y) for y in seen}
            assert all(tuple(y) in hooked for y in traj.points[1:])
            assert all(tuple(a[2]) in hooked for a in attempts)


def test_hamiltonian_drift_warns():
    """A poststep that pushes the state off the level set accumulates energy
    drift far beyond the tolerance budget, which is reported as a warning."""
    can = canonical_bivector(1)
    with pytest.warns(RuntimeWarning, match="hamiltonian drift"):
        traj = integrate_flow(can, OSC, np.array([1.0, 0.0]), 1.0,
                              StepControl(h=1e-2, tol=1e-8,
                                          poststep=lambda y: y + 1e-4))
    assert traj.h_drift > 1e-3


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
