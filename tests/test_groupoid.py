"""Cotangent-bundle projections, shifted brackets, and what the projected
free motion actually looks like."""
import numpy as np
import pytest
from scipy.linalg import expm

from poismech.bracket import ScalarField, add_bivectors, coordinate_field, eval_bracket, pushforward_bivector
from poismech.errors import ContractViolation
from poismech.fitting import collinearity_residual
from poismech.flow import StepControl, Trajectory, integrate_flow
from poismech.generators import AbelianRSpec, scaling, translation
from poismech.groupoid import (
    canonical_bivector,
    cotangent_wedge,
    groupoid_projection,
    project_trajectory,
)
from poismech.kappa import KappaSpec, free_shell_trajectory, kappa_rspec
from poismech.minkowski2d import Minkowski2DSpec, minkowski2d_rspec

EPS = 0.2
R_SCALING = AbelianRSpec(EPS, scaling([0], 2), scaling([1], 2))


def moment_pair(r, x, p):
    """The canonical moments <p, X(x)> of both generators at one state."""
    return float(p @ r.X1.value(x)), float(p @ r.X2.value(x))


def fit_axis_hyperbola(points):
    """Fit (q0 - c0)(q1 - c1) = K to planar samples.

    The model is linear in (c0, c1, c0*c1 - K):
        q0 q1 - c0 q1 - c1 q0 + (c0 c1 - K) = 0,
    so an ordinary least-squares solve recovers the centers and the shape
    constant exactly on noiseless hyperbola data.  Returns (c0, c1, K).
    """
    A = np.column_stack([points[:, 1], points[:, 0], -np.ones(len(points))])
    (c0, c1, D), *_ = np.linalg.lstsq(A, points[:, 0] * points[:, 1], rcond=None)
    return c0, c1, c0 * c1 - D


def windowed_shape_constants(points, n_windows=5):
    """Fitted K of overlapping half-curve windows along a planar curve;
    a constant-product curve gives a flat sequence."""
    w = len(points) // 2
    starts = np.linspace(0, len(points) - w, n_windows).astype(int)
    return np.array([fit_axis_hyperbola(points[s:s + w])[2] for s in starts])


def test_canonical_bivector_pairing():
    can = canonical_bivector(2)
    x = np.zeros(4)
    # {x_i, p_j} = delta_ij, {x_i, x_j} = {p_i, p_j} = 0
    M = can.matrix(x)
    np.testing.assert_array_equal(M[:2, 2:], np.eye(2))
    np.testing.assert_array_equal(M[:2, :2], np.zeros((2, 2)))
    np.testing.assert_array_equal(M[2:, 2:], np.zeros((2, 2)))
    # one constant, read-only and exactly antisymmetric matrix at every point
    assert can.matrix(np.arange(4.0)) is M and not M.flags.writeable
    np.testing.assert_array_equal(M, -M.T)
    assert not np.signbit(M[M == 0.0]).any()


def test_projection_against_exponential_oracle():
    """Left projection composes the generator flows for times set by the
    opposite moments.  For two coordinate scalings at x=(1,1), p=(1,-1),
    eps=0.2 both flow times are 0.1, so each coordinate picks up e^0.1."""
    x = np.array([1.0, 1.0])
    p = np.array([1.0, -1.0])
    assert moment_pair(R_SCALING, x, p) == (1.0, -1.0)
    left = groupoid_projection(R_SCALING, x, p, "left")
    np.testing.assert_allclose(left, np.exp(0.1), rtol=0, atol=0)

    # independent route: matrix exponentials of the two scaling generators
    J1, J2 = moment_pair(R_SCALING, x, p)
    t1, t2 = -0.5 * EPS * J2, 0.5 * EPS * J1
    oracle = expm(t1 * np.diag([1.0, 0.0])) @ expm(t2 * np.diag([0.0, 1.0])) @ x
    np.testing.assert_allclose(left, oracle, atol=1e-15)


def test_left_right_related_by_sign_flip():
    rng = np.random.default_rng(11)
    flipped = AbelianRSpec(-EPS, R_SCALING.X1, R_SCALING.X2)
    for _ in range(10):
        x = rng.uniform(0.3, 2.0, 2)
        p = rng.uniform(-1.0, 1.0, 2)
        right = groupoid_projection(R_SCALING, x, p, "right")
        np.testing.assert_array_equal(groupoid_projection(flipped, x, p, "left"), right)
    with pytest.raises(ContractViolation):
        groupoid_projection(R_SCALING, x, p, "middle")
    with pytest.raises(ContractViolation):
        project_trajectory(R_SCALING, Trajectory(np.array([0.0, 1.0]), np.ones((2, 4))), "middle")


def test_pushforward_of_canonical_is_deformed_product_bracket():
    """Pushing the canonical bivector through the left projection lands on
    {q+, q-} = eps q+ q- at the image point (complex-step Jacobian, so
    agreement is to rounding)."""
    state = np.array([1.0, 1.0, 0.35, -0.8])
    can = canonical_bivector(2)

    def phi(s):
        return groupoid_projection(R_SCALING, s[..., :2], s[..., 2:], "left")

    P = pushforward_bivector(can, phi, state)
    q = phi(state)
    assert abs(P[0, 1] - EPS * q[0] * q[1]) < 1e-15


def test_shifted_bracket_matrix():
    state = np.array([1.4, 0.7, 0.5, -0.3])
    r_part = cotangent_wedge(EPS, R_SCALING.X1, R_SCALING.X2)
    M = add_bivectors(canonical_bivector(2), r_part).matrix(state)
    # position block picks up the product deformation ...
    assert M[0, 1] == pytest.approx(EPS * state[0] * state[1], abs=1e-15)
    # ... the momentum block its mirror image ...
    assert M[2, 3] == pytest.approx(EPS * state[2] * state[3], abs=1e-15)
    # ... the diagonal pairing entries stay canonical ...
    assert M[0, 2] == 1.0 and M[1, 3] == 1.0
    # ... and the shear sits in the mixed pairs
    assert M[0, 3] == pytest.approx(-EPS * state[0] * state[3], abs=1e-15)
    assert M[1, 2] == pytest.approx(EPS * state[1] * state[2], abs=1e-15)
    # eps = 0 reduces to the canonical matrix exactly
    flat = cotangent_wedge(0.0, R_SCALING.X1, R_SCALING.X2)
    np.testing.assert_array_equal(add_bivectors(canonical_bivector(2), flat).matrix(state),
                                  canonical_bivector(2).matrix(state))


def test_project_trajectory_carries_times():
    can = canonical_bivector(2)
    H = ScalarField(fn=lambda s: s[2] * s[3],
                    grad=lambda s: np.array([0.0, 0.0, s[3], s[2]]))
    traj = integrate_flow(can, H, np.array([1.0, 1.0, 0.35, -0.8]), 1.0,
                          StepControl(h=0.05, tol=1e-8))
    proj = project_trajectory(R_SCALING, traj, "left")
    np.testing.assert_array_equal(proj.times, traj.times)
    assert proj.points.shape == (len(traj.times), 2)


# --- what the projected free motion looks like -----------------------------

FREE_H = ScalarField(fn=lambda s: s[2] * s[3],
                     grad=lambda s: np.array([0.0, 0.0, s[3], s[2]]))
MOMENT_H = ScalarField(fn=lambda s: s[2] * s[0] - s[3] * s[1],
                       grad=lambda s: np.array([s[2], -s[3], s[0], -s[1]]))
START = np.array([1.0, 1.0, 0.35, -0.8])


def _per_point_projection(r, traj, side):
    """Reference: one point at a time, moments as p @ X(x), then the flows."""
    n = r.dim
    sgn = -1.0 if side == "left" else +1.0
    out = np.empty((len(traj.times), n))
    for i, row in enumerate(traj.points):
        x, p = row[:n], row[n:]
        J1, J2 = float(p @ r.X1.value(x)), float(p @ r.X2.value(x))
        t1, t2 = sgn * 0.5 * r.epsilon * J2, -sgn * 0.5 * r.epsilon * J1
        out[i] = r.X1.flow(t1, r.X2.flow(t2, x))
    return out


@pytest.mark.parametrize("eps", [0.3, -0.3])
@pytest.mark.parametrize("spatial_dim", [1, 2, 3])
def test_project_trajectory_matches_per_point_loop_on_kappa_shells(spatial_dim, eps):
    spec = KappaSpec(eps, spatial_dim)
    pvec = np.zeros(spatial_dim)
    pvec[0] = 1.3
    traj = free_shell_trajectory(spec, 1.0, pvec, 3.0, 64)
    r = kappa_rspec(spec)
    for side in ("left", "right"):
        got = project_trajectory(r, traj, side)
        np.testing.assert_array_equal(got.points, _per_point_projection(r, traj, side))
        np.testing.assert_array_equal(got.times, traj.times)


@pytest.mark.parametrize("side", ["left", "right"])
def test_project_on_a_stack_equals_it_row_by_row(side):
    """groupoid_projection of an (m, N, n) stack of states is, bit for bit,
    the stack of its (N, n) rows' projections."""
    spec = KappaSpec(-0.35, 3)
    r = kappa_rspec(spec)
    rng = np.random.default_rng(4)
    x, p = rng.normal(size=(2, 5, 33, spec.dim))
    got = groupoid_projection(r, x, p, side)
    assert got.shape == (5, 33, spec.dim)
    for i in range(5):
        np.testing.assert_array_equal(got[i], groupoid_projection(r, x[i], p[i], side))


def test_project_trajectory_matches_per_point_loop_on_minkowski2d_flow():
    traj = integrate_flow(canonical_bivector(2), MOMENT_H, START, 4.0,
                          StepControl(h=1e-2, tol=1e-8))
    r = minkowski2d_rspec(Minkowski2DSpec(0.37, 1.0))
    for side in ("left", "right"):
        got = project_trajectory(r, traj, side).points
        np.testing.assert_array_equal(got, _per_point_projection(r, traj, side))
        for row, q in zip(traj.points[::50], got[::50]):
            np.testing.assert_array_equal(groupoid_projection(r, row[:2], row[2:], side), q)


@pytest.mark.xfail(reason="the left projection of the p+p- flow is not a "
                          "constant-product curve; the fitted shape constant "
                          "drifts by ~2% across windows", strict=True)
def test_projected_free_flow_is_constant_product_curve():
    can = canonical_bivector(2)
    traj = integrate_flow(can, FREE_H, START, 6.0, StepControl(h=1e-2, tol=1e-8))
    proj = project_trajectory(R_SCALING, traj, "left")
    Ks = windowed_shape_constants(proj.points, n_windows=5)
    drift = (Ks.max() - Ks.min()) / abs(Ks.mean())
    assert drift < 1e-3


def test_projected_moment_flow_is_exact_hyperbola():
    """The moment-difference Hamiltonian J1 - J2 keeps both moments constant,
    so its left projection rides a single product level set q+ q- = const."""
    can = canonical_bivector(2)
    # tol sets the accuracy, not the sample spacing h
    traj = integrate_flow(can, MOMENT_H, START, 6.0, StepControl(h=1e-2, tol=1e-11))
    proj = project_trajectory(R_SCALING, traj, "left")
    prod = proj.points[:, 0] * proj.points[:, 1]
    assert prod.max() - prod.min() < 1e-10
    c0, c1, K = fit_axis_hyperbola(proj.points)
    assert abs(c0) < 1e-6 and abs(c1) < 1e-6  # centered at the origin
    assert K == pytest.approx(prod.mean(), rel=1e-8)


def test_translation_projections_stay_affine():
    """With translation generators the moments are momentum components, the
    projection is a state-independent shift, and free straight lines project
    to straight lines."""
    r = AbelianRSpec(0.3, translation([1.0, 0.0]), translation([0.0, 1.0]))
    can = canonical_bivector(2)
    H = ScalarField(fn=lambda s: s[2] ** 2 + s[3] ** 2,
                    grad=lambda s: np.array([0.0, 0.0, 2.0 * s[2], 2.0 * s[3]]))
    traj = integrate_flow(can, H, np.array([0.3, -0.2, 0.7, 0.4]), 4.0,
                          StepControl(h=1e-2, tol=1e-8))
    for side in ("left", "right"):
        proj = project_trajectory(r, traj, side)
        assert collinearity_residual(proj.points) < 1e-9


def test_momenta_central_for_translation_shift():
    """For commuting translations the shifted bracket keeps every momentum
    function central with respect to kinetic hamiltonians."""
    r_part = cotangent_wedge(0.3, translation([1.0, 0.0]), translation([0.0, 1.0]))
    shifted = add_bivectors(canonical_bivector(2), r_part)
    H = ScalarField(fn=lambda s: s[2] ** 2 + s[3] ** 2,
                    grad=lambda s: np.array([0.0, 0.0, 2.0 * s[2], 2.0 * s[3]]))
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        s = rng.uniform(-1.0, 1.0, 4)
        for k in (2, 3):
            worst = max(worst, abs(eval_bracket(shifted, H, coordinate_field(k, 4), s)))
    assert worst < 1e-7