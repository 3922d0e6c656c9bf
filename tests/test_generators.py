"""Vector-field generators, their exact flows, wedges, and cotangent lifts."""
import numpy as np
import pytest
from scipy.linalg import expm

from poismech.errors import ContractViolation
from poismech.generators import (
    AbelianRSpec,
    GeneratorField,
    cotangent_lift,
    scaling,
    translation,
    wedge_bivector,
)


def _check_stacks(X: GeneratorField) -> None:
    """value and flow on a (4, n) stack, with one time or a time per row,
    equal the same calls made row by row, bit for bit."""
    rng = np.random.default_rng(3)
    xs = rng.uniform(-2.0, 2.0, (4, X.dim))
    ts = rng.uniform(-1.0, 1.0, 4)
    np.testing.assert_array_equal(X.value(xs), [X.value(x) for x in xs])
    np.testing.assert_array_equal(X.flow(ts, xs), [X.flow(t, x) for t, x in zip(ts, xs)])
    np.testing.assert_array_equal(X.flow(0.7, xs), [X.flow(0.7, x) for x in xs])
    assert X.flow(ts, xs).shape == xs.shape


def test_translation_flow():
    X = translation([1.0, -2.0])
    x = np.array([0.5, 0.5])
    np.testing.assert_allclose(X.flow(0.3, x), [0.8, -0.1], atol=1e-15)
    np.testing.assert_allclose(X.value(x), [1.0, -2.0], atol=0)
    _check_stacks(X)


def test_scaling_flow_hits_subset_only():
    X = scaling([1], 3)
    x = np.array([2.0, 3.0, 4.0])
    got = X.flow(0.1, x)
    np.testing.assert_allclose(got, [2.0, 3.0 * np.exp(0.1), 4.0], atol=1e-14)
    np.testing.assert_allclose(X.value(x), [0.0, 3.0, 0.0], atol=0)
    # a coordinate at rate 0 keeps its value exactly, inf included, and its
    # field value is +0.0 whatever the coordinate's sign
    edge = np.array([-np.inf, 3.0, -2.0])
    np.testing.assert_array_equal(X.flow(0.1, edge)[[0, 2]], [-np.inf, -2.0])
    assert not np.signbit(X.value(edge)).any()
    _check_stacks(X)
    _check_stacks(scaling([0, 2], 3))


def test_commutation_defect():
    """The flows of two scalings commute; a scaling's and a translation's
    along the scaled axis do not."""
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1.0, 1.0, (16, 2))
    s, t = rng.uniform(-0.8, 0.8, (2, 16))

    def defect(X1, X2):
        return np.max(np.abs(X2.flow(t, X1.flow(s, xs)) - X1.flow(s, X2.flow(t, xs))))

    assert defect(scaling([0], 2), scaling([1], 2)) < 1e-12
    assert defect(scaling([0], 2), translation([1.0, 0.0])) > 1e-3


def test_rspec_requires_same_chart():
    with pytest.raises(ContractViolation):
        AbelianRSpec(0.1, translation([1.0]), translation([1.0, 0.0]))
    spec = AbelianRSpec(0.2, scaling([0], 2), scaling([1], 2))
    assert spec.dim == 2


def test_wedge_bivector_structure():
    """eps (v1 wedge v2) has matrix eps (v1 v2^T - v2 v1^T)."""
    X1 = translation([1.0, 0.0, 0.0])
    X2 = translation([0.0, 2.0, 0.0])
    biv = wedge_bivector(0.5, X1, X2, ("a", "b", "c"))
    x = np.array([0.3, 0.1, -0.9])
    M = biv.matrix(x)
    want = 0.5 * (np.outer([1, 0, 0], [0, 2, 0]) - np.outer([0, 2, 0], [1, 0, 0]))
    np.testing.assert_allclose(M, want, atol=1e-15)


def test_cotangent_lift_translation():
    X = cotangent_lift(translation([1.0, -1.0]), 2)
    s = np.array([0.2, 0.3, 0.5, 0.7])  # (x, p)
    np.testing.assert_allclose(X.value(s), [1.0, -1.0, 0.0, 0.0], atol=0)
    np.testing.assert_allclose(X.flow(0.4, s), [0.6, -0.1, 0.5, 0.7], atol=1e-15)


def test_cotangent_lift_linear_preserves_pairing():
    """The lift of the scaling x -> e^{tL} x, L = diag(1, 0), is the scaling
    with rates (1, 0, -1, 0): it flows x by e^{tL} and p by e^{-tL^T}, so
    <p, x> is invariant."""
    L = np.diag([1.0, 0.0])
    X = cotangent_lift(scaling([0], 2), 2)
    np.testing.assert_array_equal(X.rates, [1.0, 0.0, -1.0, 0.0])
    s = np.array([1.0, 2.0, -0.5, 0.25])
    for t in (0.7, -1.1):
        out = X.flow(t, s)
        np.testing.assert_allclose(out[:2], expm(t * L) @ s[:2], atol=1e-13)
        np.testing.assert_allclose(out[2:], expm(-t * L.T) @ s[2:], atol=1e-13)
        assert out[:2] @ out[2:] == pytest.approx(s[:2] @ s[2:], abs=1e-13)
    _check_stacks(X)


def test_factory_validation():
    with pytest.raises(ContractViolation):
        scaling([5], 3)
    with pytest.raises(ContractViolation):
        scaling([], 3)
