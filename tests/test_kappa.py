"""Scaling-deformed (3+1)-dimensional model: shell trajectories and the two
projected velocity laws."""
import numpy as np
import pytest

from poismech.errors import ContractViolation
from poismech import cli, groupoid, kappa
from poismech.fitting import monotonicity_verdict
from poismech.groupoid import groupoid_projection, project_trajectory
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
        prof = velocity_momentum_profile(SPEC, 1.0, np.array([p]))
        ml, mr = prof["left"]["v"][0], prof["right"]["v"][0]
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
    profiles = velocity_momentum_profile(SPEC, 1.0, grid)
    assert sorted(profiles) == ["left", "ordinary", "right"]
    for prof in profiles.values():
        np.testing.assert_array_equal(prof["p"], grid)
        assert prof["verdict"] == "increasing"
        assert monotonicity_verdict(prof["v"]) == "increasing"


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
    prof = velocity_momentum_profile(spec, 1.1, grid, t_span=2.5)[projection]
    want = _per_momentum_profile(spec, 1.1, projection, grid, 2.5, 48)
    np.testing.assert_array_equal(prof["p"], grid)
    np.testing.assert_allclose(prof["v"], want, rtol=1e-14, atol=0.0)


def test_profile_in_chunks_equals_one_chunk(monkeypatch):
    """Forced into chunks of three momenta, the profile gives the values of
    one stacked pass, and its largest array, the three stacked base curves,
    holds at most _CHUNK_FLOATS floats."""
    spec = KappaSpec(0.3, 2)
    grid = np.linspace(0.2, 2.0, 10)
    whole = velocity_momentum_profile(spec, 1.0, grid)
    n_ends = 2  # a chord reads each curve at t = 0 and t_span
    sizes = []
    shells = kappa._shells

    def recording(*args):
        pts = shells(*args)
        sizes.append(pts.size)
        return pts

    monkeypatch.setattr(kappa, "_shells", recording)
    monkeypatch.setattr(kappa, "_CHUNK_FLOATS", 3 * n_ends * spec.dim * 3 + 1)
    chunked = velocity_momentum_profile(spec, 1.0, grid)
    for kind, prof in whole.items():
        np.testing.assert_array_equal(chunked[kind]["v"], prof["v"])
    assert sizes == [3 * n_ends * 2 * spec.dim] * 3 + [n_ends * 2 * spec.dim]
    # per momentum the base curves hold 3 n_ends d floats, the shells 2 n_ends d
    assert 3 * 3 * n_ends * spec.dim <= kappa._CHUNK_FLOATS


def _full_curve_chords(spec, mass, p_grid, t_span, n_samples):
    """Reference: the chord of every family's full-length curves, all
    n_samples rows of the shells built and projected, one family at a time."""
    d = spec.dim
    pvec = np.zeros((len(p_grid), spec.spatial_dim))
    pvec[:, 0] = np.sort(p_grid)
    shells = kappa._shells(spec, mass, pvec, np.linspace(0.0, t_span, n_samples))
    x, p = shells[..., :d], shells[..., d:]
    r = kappa_rspec(spec)
    bases = {"ordinary": x, "left": groupoid_projection(r, x, p, "left"),
             "right": groupoid_projection(r, x, p, "right")}
    return {kind: kappa._chord_speed(b) for kind, b in bases.items()}


@pytest.mark.parametrize("chunk_floats", [None, 200])
@pytest.mark.parametrize("eps", [0.4, -0.4])
@pytest.mark.parametrize("spatial_dim", [1, 3, 7, 31])
def test_tail_profile_is_the_full_curve_fit_bit_for_bit(monkeypatch, spatial_dim, eps, chunk_floats):
    """Shells built at t = 0 and t_span alone, projected and read in one
    stack of the three families, give the chords of the full-length curves
    read one family at a time, bit for bit, in one chunk or in chunks of
    one momentum."""
    if chunk_floats is not None:
        monkeypatch.setattr(kappa, "_CHUNK_FLOATS", chunk_floats)
    grid = np.linspace(0.2, 2.0, 10)[::-1]
    prof = velocity_momentum_profile(KappaSpec(eps, spatial_dim), 1.1, grid, 2.5)
    for n_samples in (2, 29, 64):
        want = _full_curve_chords(KappaSpec(eps, spatial_dim), 1.1, grid, 2.5, n_samples)
        for kind, v in want.items():
            np.testing.assert_array_equal(prof[kind]["v"], v, err_msg=f"{kind}, {n_samples} samples")


@pytest.mark.parametrize("eps", [0.4, -0.4, 0.1, 1.0])
@pytest.mark.parametrize("spatial_dim", [1, 3, 31])
def test_profile_speeds_are_their_closed_forms_to_rounding(spatial_dim, eps):
    """Each profile speed is the chord of an exactly affine curve, so it is
    within 8 u (u = 2^-53) of its closed form, relative: p / sqrt(m^2 + p^2)
    for the ordinary shell, closed_form_speeds for the projections."""
    spec = KappaSpec(eps, spatial_dim)
    grid = np.linspace(0.2, 2.0, 10)
    prof = velocity_momentum_profile(spec, 1.1, grid, 2.5)
    closed = {"ordinary": grid / np.hypot(1.1, grid)}
    closed["left"], closed["right"] = closed_form_speeds(spec, 1.1, grid)
    for kind, v in closed.items():
        np.testing.assert_allclose(prof[kind]["v"], v, rtol=8 * 2.0**-53, atol=0.0, err_msg=kind)


def test_speeds_below_sqrt_dbl_min_are_their_closed_forms_to_rounding():
    """A chord's speed vector is scaled by a power of two before its norm,
    so speeds near 1e-160, whose squares are subnormal, keep every bit of
    precision: each v_ordinary of the profile and the trajectory's
    speed_ordinary are within 4 u of p / sqrt(m^2 + p^2), relative (an
    unscaled norm read them 5.6e-6 low)."""
    config = cli.validate_config({"model": "kappa", "params": {
        "epsilon": 0.5, "p": 1e-160, "p_min": 1e-160, "p_max": 1e-159}})
    profile = kappa.MODEL.artifacts["profile"](config.params)
    grid = profile.columns["p"]
    np.testing.assert_allclose(profile.columns["v_ordinary"], grid / np.hypot(1.0, grid),
                               rtol=4 * 2.0**-53, atol=0.0)
    speed = kappa.MODEL.artifacts["trajectory"](config.params).summary["speed_ordinary"]
    assert abs(speed - 1e-160 / np.hypot(1.0, 1e-160)) <= 4 * 2.0**-53 * 1e-160


@pytest.mark.parametrize("chunk_floats", [None, 3 * 2 * SPEC.dim * 32])
def test_profile_projects_only_the_tail_and_builds_shells_once_per_chunk(monkeypatch, chunk_floats):
    """A profile of n_p momenta projects 2 n_p points per side, the two ends
    of each shell that its chords read, and builds its shells once per chunk
    of momenta (one chunk, or chunks of 32), not once per family."""
    if chunk_floats is not None:
        monkeypatch.setattr(kappa, "_CHUNK_FLOATS", chunk_floats)
    projected = {"left": 0, "right": 0}
    shell_stacks = []
    project, shells = kappa.groupoid_projection, kappa._shells

    def counting_projection(r, x, p, side):
        projected[side] += int(np.prod(x.shape[:-1]))
        return project(r, x, p, side)

    def counting_shells(*args):
        pts = shells(*args)
        shell_stacks.append(pts.shape[:2])
        return pts

    monkeypatch.setattr(kappa, "groupoid_projection", counting_projection)
    monkeypatch.setattr(kappa, "_shells", counting_shells)
    velocity_momentum_profile(SPEC, 1.0, np.linspace(0.2, 2.0, 80))
    assert projected == {"left": 160, "right": 160}
    assert shell_stacks == ([(80, 2)] if chunk_floats is None else [(32, 2), (32, 2), (16, 2)])


def test_a_bent_projection_fails_the_speed_check(monkeypatch):
    """A chord is a speed only on an affine curve, so the speed check must
    see a bend: with 1e-6 (x^0)^2 added to x^1 of every projected point,
    projected_speed_closed_form FAILs and the projection summary's
    collinearity_left rises far above rounding.  On the genuine projection
    the check PASSes and the curve is straight to rounding."""
    p = cli.validate_config({"model": "kappa", "params": {"epsilon": 0.3}}).params

    def read():
        checks = {c.name: c for c in cli.certify("kappa", 0.3, 0, 2)}
        summary = kappa.MODEL.artifacts["projection"](p).summary
        return checks["projected_speed_closed_form"], summary["collinearity_left"]

    genuine, straight = read()
    assert genuine.passed and genuine.value < 1e-14
    assert straight < 1e-13

    def bent(r, x, p, side):
        base = groupoid_projection(r, x, p, side)
        base[..., 1] += 1e-6 * base[..., 0] ** 2
        return base

    monkeypatch.setattr(kappa, "groupoid_projection", bent)
    monkeypatch.setattr(groupoid, "groupoid_projection", bent)
    check, residual = read()
    assert not check.passed and check.value > 1e3 * check.threshold
    assert residual > 1e-7
