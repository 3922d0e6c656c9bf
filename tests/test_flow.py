"""Adaptive Fehlberg 4(5) flow integration: accuracy, order, cost, the
tableau, the error estimate, and failure modes."""
from fractions import Fraction

import numpy as np
import pytest

from poismech.bracket import ScalarField, hamiltonian_vector_field
from poismech.errors import ContractViolation, DivergenceError, StiffnessError
from poismech.flow import _A, _B4, _B5, StepControl, Trajectory, integrate_flow
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


def test_fourth_order_convergence():
    """Halving a fixed step cuts the endpoint error by ~2^4: the propagated
    solution is the fourth-order one; tol is set huge so no step is ever
    rejected and h stays nominal."""
    can = canonical_bivector(1)
    y0 = np.array([1.0, 0.0])
    errs = []
    for h in (0.1, 0.05):
        traj = integrate_flow(can, OSC, y0, 2.0, StepControl(h=h, tol=1e30))
        errs.append(np.max(np.abs(traj.points[-1] - rotation_exact(y0, 2.0))))
    ratio = errs[0] / errs[1]
    assert 16.0 * 0.7 < ratio < 16.0 * 1.3


def test_adaptive_halving_recovers_accuracy():
    can = canonical_bivector(1)
    y0 = np.array([0.0, 1.0])
    traj = integrate_flow(can, OSC, y0, 3.0, StepControl(h=0.5, tol=1e-12))
    # the nominal step is far too coarse for this tolerance, so the
    # controller must have halved its way down
    assert np.min(np.diff(traj.times)) < 0.5 / 4
    assert np.all(traj.step_stats <= 1e-12)
    np.testing.assert_allclose(traj.points[-1], rotation_exact(y0, 3.0), atol=1e-9)


def _counting_oscillator():
    """OSC with a gradient that counts its calls; every right-hand side
    evaluation of the flow takes exactly one gradient."""
    calls = [0]

    def grad(s):
        calls[0] += 1
        return s.copy()

    return ScalarField(fn=OSC.fn, grad=grad), calls


def _reference_flow(biv, H, y0, t_end, h_nom, tol):
    """The same controller around Fehlberg's step written out stage by
    stage, with the coefficients as literals.  Returns times, points, error
    estimates and the number of rejected attempts."""

    def f(y):
        return hamiltonian_vector_field(biv, H, y)

    def fehlberg(y, h):
        k1 = f(y)
        k2 = f(y + h * (k1 / 4))
        k3 = f(y + h * (3 / 32 * k1 + 9 / 32 * k2))
        k4 = f(y + h * (1932 / 2197 * k1 - 7200 / 2197 * k2 + 7296 / 2197 * k3))
        k5 = f(y + h * (439 / 216 * k1 - 8 * k2 + 3680 / 513 * k3 - 845 / 4104 * k4))
        k6 = f(y + h * (-8 / 27 * k1 + 2 * k2 - 3544 / 2565 * k3 + 1859 / 4104 * k4
                        - 11 / 40 * k5))
        y4 = y + h * (25 / 216 * k1 + 1408 / 2565 * k3 + 2197 / 4104 * k4 - k5 / 5)
        err = 1 / 360 * k1 - 128 / 4275 * k3 - 2197 / 75240 * k4 + k5 / 50 + 2 / 55 * k6
        return y4, h * float(np.max(np.abs(err)))

    times, points, stats, rejected = [0.0], [y0.copy()], [], 0
    t, y, h = 0.0, y0.copy(), h_nom
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(h, t_end - t)
        if t_end - t - h < 0.1 * h:
            h = t_end - t
        while True:
            y_new, est = fehlberg(y, h)
            if est <= tol:
                break
            h *= 0.5
            rejected += 1
        y = y_new
        t += h
        times.append(t)
        points.append(y.copy())
        stats.append(est)
        if est < tol / 50.0:
            h = min(2.0 * h, h_nom)
    return np.array(times), np.array(points), np.array(stats), rejected


def test_step_costs_six_rhs_evaluations():
    """Fehlberg's six stages are the whole cost of an accepted step."""
    H, calls = _counting_oscillator()
    traj = integrate_flow(canonical_bivector(1), H, np.array([1.0, 0.25]), 2.0,
                          StepControl(h=0.05, tol=1e-8))
    n_steps = len(traj.times) - 1
    # no rejection: every interval is the nominal step
    np.testing.assert_allclose(np.diff(traj.times), 0.05, rtol=1e-12)
    assert n_steps == 40
    assert calls[0] == 6 * n_steps


@pytest.mark.parametrize("h, tol", [(0.05, 1e-8), (0.5, 1e-12)])
def test_trajectory_matches_the_stage_by_stage_fehlberg_stepper(h, tol):
    """The tableau held as module data computes the textbook step: the same
    times and rejections as the stage-by-stage stepper, points equal to
    rounding, and a retry from the same y (and k1) costs 5 evaluations."""
    can = canonical_bivector(1)
    y0 = np.array([1.0, 0.25])
    H, calls = _counting_oscillator()
    traj = integrate_flow(can, H, y0, 3.0, StepControl(h=h, tol=tol))
    times, points, stats, rejected = _reference_flow(can, OSC, y0, 3.0, h, tol)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.points - points)) <= 1e-15 * np.max(np.abs(points))
    np.testing.assert_allclose(traj.step_stats, stats, rtol=1e-6, atol=1e-6 * tol)
    assert calls[0] == 6 * (len(times) - 1) + 5 * rejected
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


def test_fehlberg_tableau_meets_the_order_conditions_exactly():
    """Butcher's conditions sum_i b_i Phi_i(t) = 1 / gamma(t), in exact
    rationals: on every rooted tree of up to 4 nodes for the propagated
    weights B4, and up to 5 for B5.  B4 misses an order-5 condition, so the
    difference of the two solutions estimates B4's own local error."""
    assert [len(_rooted_trees(n)) for n in range(1, 6)] == [1, 1, 2, 4, 9]
    assert [len(row) for row in _A] == list(range(6))  # explicit stages

    def residual(b, tree):
        total = sum((bi * p for bi, p in zip(b, _stage_weights(tree))), Fraction(0))
        return total - Fraction(1, _density(tree)[0])

    for order in range(1, 6):
        for tree in _rooted_trees(order):
            assert residual(_B5, tree) == 0
            if order <= 4:
                assert residual(_B4, tree) == 0
    assert any(residual(_B4, tree) != 0 for tree in _rooted_trees(5))


def test_error_estimate_tracks_the_true_local_error():
    """The exact flow of the oscillator from each accepted state is known,
    so the true local error of every step (the new state against the exact
    flow over the step from the previous one) can be set beside the
    estimate the step was accepted on."""
    can = canonical_bivector(1)
    traj = integrate_flow(can, OSC, np.array([1.0, 0.25]), 6.0, StepControl(h=0.2, tol=1e-7))
    exact = np.array([rotation_exact(y, h) for y, h in zip(traj.points[:-1], np.diff(traj.times))])
    ratio = np.max(np.abs(traj.points[1:] - exact), axis=1) / traj.step_stats
    assert np.all((0.5 <= ratio) & (ratio <= 2.0)), (ratio.min(), ratio.max())


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
        # tol so loose that nothing is rejected before the state overflows
        integrate_flow(can, BLOWUP, np.array([-1.0, 1.0]), 2.0,
                       StepControl(h=0.5, tol=1e30))
    assert 0.0 < info.value.last_good_time < 2.0


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
