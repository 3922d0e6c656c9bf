"""Adaptive RK4 flow integration: accuracy, order, and failure modes."""
import numpy as np
import pytest

from poismech.bracket import ScalarField, hamiltonian_vector_field
from poismech.errors import ContractViolation, DivergenceError, StiffnessError
from poismech.flow import StepControl, Trajectory, integrate_flow
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
    """Halving a fixed step cuts the endpoint error by ~2^4 (the embedded
    Richardson estimate uses the same ratio); tol is set huge so no step is
    ever rejected and h stays nominal."""
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
    """The same step-doubling controller with k1 evaluated afresh in every
    RK4 step (12 evaluations per accepted step).  Returns times, points,
    error estimates and the number of rejected attempts."""

    def f(y):
        return hamiltonian_vector_field(biv, H, y)

    def rk4(y, h):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    times, points, stats, rejected = [0.0], [y0.copy()], [], 0
    t, y, h = 0.0, y0.copy(), h_nom
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(h, t_end - t)
        if t_end - t - h < 0.1 * h:
            h = t_end - t
        while True:
            y_full = rk4(y, h)
            y_half = rk4(rk4(y, 0.5 * h), 0.5 * h)
            est = float(np.max(np.abs(y_half - y_full))) / 15.0
            if est <= tol:
                break
            h *= 0.5
            rejected += 1
        y = y_half
        t += h
        times.append(t)
        points.append(y.copy())
        stats.append(est)
        if est < tol / 50.0:
            h = min(2.0 * h, h_nom)
    return np.array(times), np.array(points), np.array(stats), rejected


def test_double_step_costs_eleven_rhs_evaluations():
    """k1 = f(y) is shared by the whole step and the first half step."""
    H, calls = _counting_oscillator()
    traj = integrate_flow(canonical_bivector(1), H, np.array([1.0, 0.25]), 2.0,
                          StepControl(h=0.05, tol=1e-8))
    n_steps = len(traj.times) - 1
    # no rejection: every interval is the nominal step
    np.testing.assert_allclose(np.diff(traj.times), 0.05, rtol=1e-12)
    assert n_steps == 40
    assert calls[0] == 11 * n_steps


@pytest.mark.parametrize("h, tol", [(0.05, 1e-8), (0.5, 1e-12)])
def test_trajectory_matches_twelve_evaluation_stepper_bit_for_bit(h, tol):
    """Sharing k1 changes the cost, not the arithmetic: the trajectory is
    identical to the 12-evaluation stepper's, rejections included, and a
    retry from the same y costs 10 evaluations."""
    can = canonical_bivector(1)
    y0 = np.array([1.0, 0.25])
    H, calls = _counting_oscillator()
    traj = integrate_flow(can, H, y0, 3.0, StepControl(h=h, tol=tol))
    times, points, stats, rejected = _reference_flow(can, OSC, y0, 3.0, h, tol)
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.points, points)
    assert np.array_equal(traj.step_stats, stats)
    assert calls[0] == 11 * (len(times) - 1) + 10 * rejected
    if h == 0.5:
        assert rejected > 0


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
