"""Two-dimensional deformed spacetime model: shape laws and scattering."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poismech import cli, minkowski2d
from poismech.errors import ConfigError, ContractViolation
from poismech.fitting import collinearity_residual
from poismech.minkowski2d import (
    Minkowski2DSpec,
    classical_limit_deviation,
    hyperbola_curve,
    hyperbola_residual,
    parametric_trajectory_2d,
    scattering_data,
    scattering_limits_numeric,
)

SPEC = Minkowski2DSpec(0.2, 1.0)
CURVE = (0.3, 2.0)  # (alpha, beta)


def test_bivector_is_product_deformation():
    biv = minkowski2d.MODEL.brackets["base"].build({**cli._DEFAULTS["minkowski2d"], "epsilon": 0.2})
    x = np.array([1.5, -0.4])
    assert biv.matrix(x)[0, 1] == pytest.approx(0.2 * 1.5 * (-0.4), abs=1e-16)


def test_hyperbola_curve_satisfies_invariant():
    grid = 1.0 + np.linspace(0.2, 3.0, 40)
    pts = hyperbola_curve(SPEC, 1.0, -1.0, grid)
    assert hyperbola_residual(SPEC, 1.0, -1.0, pts) < 1e-12
    # shape constant of the branch: (q+ - c+)(q- - c-) = -1/(eps m)^2
    K = (pts[:, 0] - 1.0) * (pts[:, 1] + 1.0)
    np.testing.assert_allclose(K, -25.0, rtol=1e-13)


def test_hyperbola_curve_validation():
    grid = np.array([1.5, 2.0])
    with pytest.raises(ContractViolation):
        hyperbola_curve(Minkowski2DSpec(0.0, 1.0), 1.0, -1.0, grid)
    with pytest.raises(ContractViolation):
        hyperbola_curve(SPEC, 1.0, 2.0, grid)  # centers on the same side
    with pytest.raises(ContractViolation):
        hyperbola_curve(SPEC, 1.0, -1.0, np.array([0.5, 1.0, 1.5]))  # crosses c+


def test_parametric_curve_flattens_at_zero_deformation():
    grid = np.linspace(-3.0, 3.0, 31)
    rows = parametric_trajectory_2d(Minkowski2DSpec(0.0, 1.0), *CURVE, grid)
    assert collinearity_residual(rows[:, 1:]) < 1e-12


def test_velocity_ratio_tails_and_waist():
    """The ratio (q+ - q-)/(q+ + q-) is subluminal only in the far tails;
    near the waist of the curve the denominator changes sign and the ratio
    sweeps through the cone."""
    curve = (0.0, 2.0)
    _, qp, qm = parametric_trajectory_2d(SPEC, *curve, np.array([-200.0, 200.0, 0.4, 0.7])).T
    v = (qp - qm) / (qp + qm)
    tails, near_waist = v[:2], v[2:]
    assert all(abs(v) < 1.0 for v in tails)
    assert any(abs(v) > 1.0 for v in near_waist)
    # tail values approach the closed-form limits from the matching side
    v_in, v_out = scattering_data(SPEC, *curve)
    assert tails[0] == pytest.approx(v_in, abs=1e-3)
    assert tails[1] == pytest.approx(v_out, abs=1e-3)


def test_scattering_closed_form_matches_numeric_limits():
    closed = scattering_data(SPEC, *CURVE)
    numeric = scattering_limits_numeric(SPEC, *CURVE)
    assert abs(closed[0] - numeric[0]) < 1e-10
    assert abs(closed[1] - numeric[1]) < 1e-10


@pytest.mark.parametrize("eps", [-0.2, -3.0])
def test_scattering_closed_form_is_even_in_epsilon_like_the_curve(eps):
    """q+- are even in eps, so at eps < 0 the curve, and its limits at the
    incoming end p -> -infinity, are those at |eps|; the closed form was
    tanh(alpha -+ eps beta / 4), and at eps -0.3 certify FAILed
    scattering_match at 0.298."""
    spec, flipped = Minkowski2DSpec(eps, 1.0), Minkowski2DSpec(-eps, 1.0)
    p = np.linspace(-3.0, 3.0, 13)
    np.testing.assert_array_equal(parametric_trajectory_2d(spec, *CURVE, p),
                                  parametric_trajectory_2d(flipped, *CURVE, p))
    np.testing.assert_array_equal(scattering_data(spec, *CURVE), scattering_data(flipped, *CURVE))
    np.testing.assert_allclose(scattering_limits_numeric(spec, *CURVE), scattering_data(spec, *CURVE),
                               rtol=0.0, atol=1e-14)


def test_scattering_values_at_zero_impact():
    # with beta = 0 no deformation shift survives: both speeds are tanh(alpha)
    v_in, v_out = scattering_data(SPEC, 0.05, 0.0)
    assert v_in == pytest.approx(0.04995837495787997, abs=1e-16)
    assert v_out == v_in


def test_velocity_shift_is_odd_in_impact_parameter():
    for beta in (0.5, 1.3, 2.0):
        vp = scattering_data(SPEC, 0.3, beta)
        vm = scattering_data(SPEC, 0.3, -beta)
        assert (vp[1] - vp[0]) == pytest.approx(-(vm[1] - vm[0]), abs=1e-15)


def test_classical_limit_is_second_order():
    d1 = classical_limit_deviation(0.01)
    d2 = classical_limit_deviation(0.02)
    assert d2 / d1 == pytest.approx(4.0, rel=0.05)
    assert classical_limit_deviation(0.0) == 0.0


@pytest.mark.parametrize("eps", [0.0, 0.2, -1.3])
def test_scattering_artifact_equals_per_sample_evaluation(eps):
    """The artifact evaluates the whole momentum grid in one call; every row
    is bit for bit the curve evaluated at that one momentum."""
    params = {name: p.default for name, p in minkowski2d.PARAMS.items()}
    params.update(epsilon=eps, alpha=-0.45, beta=1.7, p_min=-4.0, p_max=2.5, n_samples=61)
    cols = minkowski2d.MODEL.artifacts["scattering"](params).columns
    spec, curve = Minkowski2DSpec(eps, params["mass"]), (-0.45, 1.7)
    for i, pv in enumerate(np.linspace(-4.0, 2.5, 61)):
        p, qp, qm = parametric_trajectory_2d(spec, *curve, np.array([pv]))[0]
        v = (qp - qm) / (qp + qm) if qp + qm != 0 else math.nan
        got = [cols[k][i] for k in ("p", "q_plus", "q_minus", "v")]
        np.testing.assert_array_equal(got, [p, qp, qm, v])


def test_numeric_limit_past_both_waists_matches_the_closed_form():
    """At alpha = 0 and beta = 80 / eps the q- waist lies at p = 80 / eps.
    A reading at p = 40 / eps sat inside it, where q+ + q- = 0 and the
    outgoing limit read NaN; read 40 / eps past both waists, both limits are
    the closed form to the last bit."""
    spec, curve = Minkowski2DSpec(1.0, 1.0), (0.0, 80.0)
    np.testing.assert_array_equal(scattering_limits_numeric(spec, *curve), scattering_data(spec, *curve))


def test_velocity_where_the_denominator_vanishes_is_nan():
    """q+ + q- = 0 gives NaN, as in the scattering artifact's v column, not
    an infinity."""
    v = minkowski2d._velocity(np.array([[0.4, 1.5, -1.5], [1.0, 3.0, 1.0]]))
    assert math.isnan(v[0])
    assert v[1] == 0.5


def _per_curve_reference(spec, alphas, betas):
    """The per-curve loop that the grid evaluation replaced: one closed form
    and two numeric limits (at beta and at -beta) per (alpha, beta) curve."""
    match, odd = [], []
    for alpha in alphas:
        for beta in betas:
            closed = scattering_data(spec, alpha, beta)
            numeric = scattering_limits_numeric(spec, alpha, beta)
            flip = scattering_limits_numeric(spec, alpha, -beta)
            match += [abs(closed[0] - numeric[0]), abs(closed[1] - numeric[1])]
            odd.append(abs((numeric[1] - numeric[0]) + (flip[1] - flip[0])))
    return float(np.max(match, initial=0.0)), float(np.max(odd, initial=0.0))


_SHIPPED_GRID = (np.linspace(-0.6, 0.6, 5), np.linspace(-2.0, 2.0, 5))
# -beta is in neither beta row, so the flipped grid is not a reordering of it
_ASYMMETRIC_GRID = (np.array([-0.45, 0.1, 0.9]), np.array([-1.3, 0.2, 0.7, 2.9]))


@pytest.mark.parametrize("grid", [_SHIPPED_GRID, _ASYMMETRIC_GRID], ids=["shipped", "asymmetric"])
@pytest.mark.parametrize("eps, mass", [
    (0.2, 1.0), (-0.7, 1.7), (3.0, 0.5), (1e-150, 1.0), (-2e-150, 0.5), (0.0, 1.3),
])
def test_scattering_grid_equals_per_curve_reference_bit_for_bit(eps, mass, grid):
    spec = Minkowski2DSpec(eps, mass)
    got = minkowski2d.scattering_check(spec, *grid)
    np.testing.assert_array_equal(got, _per_curve_reference(spec, *grid))


def test_nan_in_one_grid_curve_fails_both_scattering_checks(monkeypatch):
    """One NaN velocity, on one curve of the grid at +beta, reaches both the
    closed-vs-numeric match and the odd defect, and FAILs both."""
    velocity, calls = minkowski2d._velocity, []

    def one_nan(q):
        v = velocity(q)
        if not calls:
            v[1, 3, 0] = math.nan
        calls.append(v.shape)
        return v

    monkeypatch.setattr(minkowski2d, "_velocity", one_nan)
    checks = {c.name: c for c in cli.minkowski2d_certificate(0.3, 0, 4)}
    assert calls[0] == (5, 5, 2)
    for name in ("scattering_match", "scattering_odd"):
        assert math.isnan(checks[name].value) and not checks[name].passed
    assert checks["hyperbola_shape"].passed


@pytest.mark.parametrize("eps", [10.0, 100.0, 300.0, -100.0])
def test_scattering_limits_match_at_large_epsilon_beta(eps):
    """Read at p = -+40 / eps, the outgoing limit sat before the q- waist at
    p = beta once eps beta passed 40: at eps 100 it read -1 for the closed
    form's +1.  Read 40 / eps past both waists it matches to rounding."""
    match, odd = minkowski2d.scattering_check(Minkowski2DSpec(eps, 1.0), *_SHIPPED_GRID)
    assert match <= 2.3e-16
    assert odd == 0.0


_CERT_EPS_MAX = minkowski2d._EPS_BETA_MAX / minkowski2d._CERT_BETA


def test_certificate_epsilon_bound_is_sharp_to_one_float():
    """At |eps| = _EPS_BETA_MAX / 2 the grid's sinh arguments reach
    ln(DBL_MAX) and both scattering checks pass without a warning; one float
    further is a ConfigError naming epsilon."""
    assert 340.0 < _CERT_EPS_MAX < 350.0
    for eps in (_CERT_EPS_MAX, -_CERT_EPS_MAX):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            checks = {c.name: c for c in cli.minkowski2d_certificate(eps, 0, 1)}
        assert checks["scattering_match"].value < 1e-15
        assert checks["scattering_odd"].value == 0.0
    for eps in (math.nextafter(_CERT_EPS_MAX, math.inf), math.nextafter(-_CERT_EPS_MAX, -math.inf)):
        with pytest.raises(ConfigError, match=r"^epsilon: "):
            cli.minkowski2d_certificate(eps, 0, 1)


# every epsilon certify accepts at mass 1, with 10 <= |eps| <= 300 drawn on its own
_CERT_EPSILONS = st.one_of(
    st.floats(10.0, 300.0),
    st.floats(-300.0, -10.0),
    st.floats(-_CERT_EPS_MAX, _CERT_EPS_MAX).filter(lambda e: e == 0.0 or abs(e) >= 1e-150),
)


@settings(max_examples=150, deadline=None)
@given(eps=_CERT_EPSILONS)
def test_scattering_checks_pass_across_the_certificate_domain(eps):
    checks = {c.name: c for c in cli.minkowski2d_certificate(eps, 0, 1)}
    assert checks["scattering_match"].value < 1e-6
    assert checks["scattering_odd"].value < 1e-12
