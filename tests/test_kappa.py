"""Scaling-deformed (3+1)-dimensional model: shell trajectories and the two
projected velocity laws."""
import numpy as np
import pytest

from poismech.errors import ContractViolation
from poismech import kappa
from poismech.fitting import monotonicity_verdict
from poismech.groupoid import project_trajectory
from poismech.kappa import (
    KappaSpec,
    classical_limit_deviation,
    closed_form_speeds,
    free_shell_trajectory,
    kappa_bivector,
    kappa_rspec,
    velocity_momentum_profile,
)

SPEC = KappaSpec(0.5)


def test_bivector_components():
    biv = kappa_bivector(SPEC)
    x = np.array([0.3, 1.2, -0.7, 0.4])
    # {x0, xk} = eps xk; spatial positions commute among themselves
    assert biv.matrix(x)[0, 1] == pytest.approx(0.5 * 1.2, abs=1e-16)
    assert biv.matrix(x)[0, 2] == pytest.approx(0.5 * (-0.7), abs=1e-16)
    assert biv.matrix(x)[1, 2] == 0.0


def test_shell_trajectory_is_affine_with_constant_momenta():
    pvec = np.array([0.8, -0.3, 0.1])
    traj = free_shell_trajectory(SPEC, 1.0, pvec, 2.0, 16)
    p0 = np.sqrt(1.0 + pvec @ pvec)
    # momenta ride along unchanged
    shell = np.broadcast_to(np.r_[p0, pvec], (len(traj.times), 4))
    np.testing.assert_allclose(traj.points[:, 4:], shell, atol=1e-15)
    # base point moves with xdot = (-2 p0, 2 pvec)
    dt = np.diff(traj.times)[:, None]
    vel = np.diff(traj.points[:, :4], axis=0) / dt
    want = np.broadcast_to(np.r_[-2.0 * p0, 2.0 * pvec], vel.shape)
    np.testing.assert_allclose(vel, want, atol=1e-12)


def test_closed_form_speeds_match_projected_measurement():
    for p in (0.5, 1.5, 3.0):
        vl, vr = closed_form_speeds(SPEC, 1.0, p)
        grid = np.array([p])
        ml = velocity_momentum_profile(SPEC, 1.0, "left", grid)["v"][0]
        mr = velocity_momentum_profile(SPEC, 1.0, "right", grid)["v"][0]
        assert abs(vl - ml) < 1e-12
        assert abs(vr - mr) < 1e-12


def test_projected_speeds_bracket_the_ordinary_one():
    for p in (0.5, 1.5):
        vl, vr = closed_form_speeds(SPEC, 1.0, p)
        v0 = p / np.hypot(1.0, p)
        assert vr < v0 < vl


def test_projected_speeds_cross_the_light_cone():
    """At large momentum both projected speeds exceed 1 even though the
    unprojected shell speed never does."""
    vl, vr = closed_form_speeds(SPEC, 1.0, 3.0)
    assert vl > 1.0 and vr > 1.0
    assert 3.0 / np.hypot(1.0, 3.0) < 1.0


def test_right_speed_pole_is_guarded():
    # the right denominator p0 - (eps/2) p^2 vanishes near p = 4.12 here
    with pytest.raises(ContractViolation):
        closed_form_speeds(SPEC, 1.0, 4.5)
    with pytest.raises(ContractViolation):
        closed_form_speeds(SPEC, 1.0, -1.0)


def test_left_speed_pole_is_guarded():
    # at eps < 0 the left denominator p0 + (eps/2) p^2 vanishes instead;
    # at eps = -0.5 that happens near p = 4.12, mirroring the right pole
    neg = KappaSpec(-0.5)
    with pytest.raises(ContractViolation, match="left projection"):
        closed_form_speeds(neg, 1.0, 5.0)
    with pytest.raises(ContractViolation, match="left projection"):
        closed_form_speeds(KappaSpec(-3.0), 1.0, 1.5)
    # below the pole both speeds are positive, and left at -eps is right at eps
    vl, vr = closed_form_speeds(neg, 1.0, 1.5)
    vl_pos, vr_pos = closed_form_speeds(SPEC, 1.0, 1.5)
    assert vl > 0.0 and vr > 0.0
    assert vl == pytest.approx(vr_pos, rel=1e-15) and vr == pytest.approx(vl_pos, rel=1e-15)


@pytest.mark.parametrize("epsilon", [0.5, -0.5, 0.0])
def test_speeds_of_an_array_of_momenta_are_each_momentum_alone(epsilon):
    """closed_form_speeds of an array of momenta gives, bit for bit, the
    speeds of each momentum alone, and a pole error names the first momentum
    of the array at or past the pole (near p = 4.12 at |eps| = 0.5)."""
    spec = KappaSpec(epsilon)
    grid = np.linspace(0.2, 4.0, 40)
    vl, vr = closed_form_speeds(spec, 1.0, grid)
    for k, p in enumerate(grid):
        assert (vl[k], vr[k]) == closed_form_speeds(spec, 1.0, float(p))
    if epsilon:
        side = "right" if epsilon > 0 else "left"
        with pytest.raises(ContractViolation, match=f"^{side} projection degenerates at p = 4.5 "):
            closed_form_speeds(spec, 1.0, [1.0, 4.5, 5.0, 4.2])


def test_profiles_are_increasing_below_the_pole():
    grid = np.linspace(0.3, 3.0, 12)
    for proj in ("ordinary", "left", "right"):
        prof = velocity_momentum_profile(SPEC, 1.0, proj, grid)
        assert prof["verdict"] == "increasing"
        assert monotonicity_verdict(prof["v"]) == "increasing"
    with pytest.raises(ContractViolation):
        velocity_momentum_profile(SPEC, 1.0, "sideways", grid)


def test_symmetric_mean_restores_second_order_limit():
    """Either projected speed deviates from p/sqrt(p^2+m^2) at first order in
    the deformation strength, but their mean closes at second order."""
    grid = np.linspace(0.2, 2.0, 6)
    one_sided = []
    for eps in (0.01, 0.02):
        spec = KappaSpec(eps)
        vl = np.array([closed_form_speeds(spec, 1.0, p)[0] for p in grid])
        v0 = grid / np.sqrt(grid**2 + 1.0)
        one_sided.append(np.max(np.abs(vl - v0)))
    assert one_sided[1] / one_sided[0] == pytest.approx(2.0, rel=0.05)

    d1 = classical_limit_deviation(0.01)
    d2 = classical_limit_deviation(0.02)
    assert d2 / d1 == pytest.approx(4.0, rel=0.05)


def test_spec_validation():
    with pytest.raises(ContractViolation):
        KappaSpec(0.1, spatial_dim=0)
    with pytest.raises(ContractViolation):
        closed_form_speeds(SPEC, 0.0, 1.0)
    with pytest.raises(ContractViolation):
        free_shell_trajectory(SPEC, 1.0, np.zeros(2), 1.0, 8)


def _per_momentum_profile(spec, mass, projection, p_grid, t_span, n_samples):
    """Reference: one shell per momentum, projected as a trajectory, each
    base curve fitted on its own by lstsq over its trailing quarter."""
    vs = []
    for p in p_grid:
        pvec = np.zeros(spec.spatial_dim)
        pvec[0] = p
        traj = free_shell_trajectory(spec, mass, pvec, t_span, n_samples)
        if projection == "ordinary":
            base = traj.points[:, :spec.dim]
        else:
            base = project_trajectory(kappa_rspec(spec), traj, projection).points
        n_tail = int(np.ceil(0.25 * n_samples))
        A = np.column_stack([base[-n_tail:, 0], np.ones(n_tail)])
        slopes = np.linalg.lstsq(A, base[-n_tail:, 1:], rcond=None)[0][0]
        vs.append(np.linalg.norm(slopes))
    return np.array(vs)


@pytest.mark.parametrize("eps", [0.4, -0.4])
@pytest.mark.parametrize("spatial_dim", [1, 3, 7])
@pytest.mark.parametrize("projection", ["ordinary", "left", "right"])
def test_stacked_profile_matches_the_per_momentum_reference(projection, spatial_dim, eps):
    spec = KappaSpec(eps, spatial_dim)
    grid = np.linspace(0.2, 2.0, 10)
    prof = velocity_momentum_profile(spec, 1.1, projection, grid, t_span=2.5, n_samples=48)
    want = _per_momentum_profile(spec, 1.1, projection, grid, 2.5, 48)
    np.testing.assert_array_equal(prof["p"], grid)
    np.testing.assert_allclose(prof["v"], want, rtol=1e-14, atol=0.0)


def test_profile_in_chunks_equals_one_chunk(monkeypatch):
    """Forced into chunks of three shells, the profile gives the values of
    one stacked pass, and no stack it builds holds more floats than a chunk."""
    spec = KappaSpec(0.3, 2)
    grid = np.linspace(0.2, 2.0, 10)
    whole = {side: velocity_momentum_profile(spec, 1.0, side, grid)["v"]
             for side in ("ordinary", "left", "right")}
    sizes = []
    shells = kappa._shells

    def recording(*args):
        ts, pts = shells(*args)
        sizes.append(pts.size)
        return ts, pts

    monkeypatch.setattr(kappa, "_shells", recording)
    monkeypatch.setattr(kappa, "_CHUNK_FLOATS", 3 * 64 * 2 * spec.dim)
    for side, v in whole.items():
        sizes.clear()
        np.testing.assert_array_equal(velocity_momentum_profile(spec, 1.0, side, grid)["v"], v)
        assert sizes == [3 * 64 * 2 * spec.dim] * 3 + [64 * 2 * spec.dim]
