"""Two-dimensional deformed spacetime model: shape laws and scattering."""
import math

import numpy as np
import pytest

from poismech import minkowski2d
from poismech.errors import ContractViolation
from poismech.fitting import collinearity_residual
from poismech.minkowski2d import (
    Minkowski2DSpec,
    ScatteringCurveSpec,
    classical_limit_deviation,
    hyperbola_curve,
    hyperbola_residual,
    minkowski2d_bivector,
    parametric_trajectory_2d,
    scattering_data,
    scattering_limits_numeric,
)

SPEC = Minkowski2DSpec(0.2, 1.0)
CURVE = ScatteringCurveSpec(0.3, 2.0)


def test_bivector_is_product_deformation():
    biv = minkowski2d_bivector(SPEC)
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
    rows = parametric_trajectory_2d(Minkowski2DSpec(0.0, 1.0), CURVE, grid)
    assert collinearity_residual(rows[:, 1:]) < 1e-12


def test_velocity_ratio_tails_and_waist():
    """The ratio (q+ - q-)/(q+ + q-) is subluminal only in the far tails;
    near the waist of the curve the denominator changes sign and the ratio
    sweeps through the cone."""
    curve = ScatteringCurveSpec(0.0, 2.0)
    _, qp, qm = parametric_trajectory_2d(SPEC, curve, np.array([-200.0, 200.0, 0.4, 0.7])).T
    v = (qp - qm) / (qp + qm)
    tails, near_waist = v[:2], v[2:]
    assert all(abs(v) < 1.0 for v in tails)
    assert any(abs(v) > 1.0 for v in near_waist)
    # tail values approach the closed-form limits from the matching side
    v_in, v_out = scattering_data(SPEC, curve)
    assert tails[0] == pytest.approx(v_in, abs=1e-3)
    assert tails[1] == pytest.approx(v_out, abs=1e-3)


def test_scattering_closed_form_matches_numeric_limits():
    closed = scattering_data(SPEC, CURVE)
    numeric = scattering_limits_numeric(SPEC, CURVE)
    assert abs(closed[0] - numeric[0]) < 1e-10
    assert abs(closed[1] - numeric[1]) < 1e-10


def test_scattering_values_at_zero_impact():
    # with beta = 0 no deformation shift survives: both speeds are tanh(alpha)
    v_in, v_out = scattering_data(SPEC, ScatteringCurveSpec(0.05, 0.0))
    assert v_in == pytest.approx(0.04995837495787997, abs=1e-16)
    assert v_out == v_in


def test_velocity_shift_is_odd_in_impact_parameter():
    for beta in (0.5, 1.3, 2.0):
        vp = scattering_data(SPEC, ScatteringCurveSpec(0.3, beta))
        vm = scattering_data(SPEC, ScatteringCurveSpec(0.3, -beta))
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
    spec, curve = Minkowski2DSpec(eps, params["mass"]), ScatteringCurveSpec(-0.45, 1.7)
    for i, pv in enumerate(np.linspace(-4.0, 2.5, 61)):
        p, qp, qm = parametric_trajectory_2d(spec, curve, np.array([pv]))[0]
        v = (qp - qm) / (qp + qm) if qp + qm != 0 else math.nan
        got = [cols[k][i] for k in ("p", "q_plus", "q_minus", "v")]
        np.testing.assert_array_equal(got, [p, qp, qm, v])


def test_numeric_limit_where_the_velocity_denominator_vanishes_is_nan():
    """At alpha = 0 and beta = 80 / eps the curve has q+ + q- = 0 exactly at
    p = 40 / eps, where the outgoing limit is read: NaN, as in the
    scattering artifact's v column, not an infinity."""
    v_in, v_out = scattering_limits_numeric(Minkowski2DSpec(1.0, 1.0), ScatteringCurveSpec(0.0, 80.0))
    assert v_in == -1.0
    assert math.isnan(v_out)
