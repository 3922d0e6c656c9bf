"""Bracket engine: evaluation, antisymmetry, Leibniz, Jacobi residuals."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poismech import bracket, generators, groupoid, kappa, minkowski2d, su2
from poismech.bracket import (
    _FD_SCALE,
    _FD_SCALE_NESTED,
    BivectorSpec,
    ScalarField,
    add_bivectors,
    coordinate_field,
    eval_bracket,
    hamiltonian_vector_field,
    jacobi_certificate,
    pushforward_bivector,
)
from poismech.errors import ContractViolation


def jacobiator(biv, x, triple):
    """J^{ijk} at x, read from the tensor that jacobi_certificate folds."""
    return float(bracket._cyclic(bracket._jacobi_terms(biv, np.asarray(x, dtype=float)), *triple))


def quadratic_biv():
    # {x1,x2} = x1*x2, {x1,x3} = x3, {x2,x3} = 0 on a 3-chart
    return BivectorSpec(
        3,
        ("x1", "x2", "x3"),
        {(0, 1): lambda x: x[0] * x[1], (0, 2): lambda x: x[2]},
    )


def so3_biv():
    # rotation-algebra structure: {x,y} = z, {x,z} = -y, {y,z} = x
    return BivectorSpec(
        3,
        ("x", "y", "z"),
        {
            (0, 1): lambda q: q[2],
            (0, 2): lambda q: -q[1],
            (1, 2): lambda q: q[0],
        },
    )


def test_component_sign_convention():
    biv = quadratic_biv()
    x = np.array([2.0, 3.0, 5.0])
    M = biv.matrix(x)
    assert M[0, 1] == 6.0
    assert M[1, 0] == -6.0
    assert M[1, 1] == 0.0
    assert M[1, 2] == 0.0  # missing pair is zero
    assert np.array_equal(M, -M.T)


def test_spec_validation():
    with pytest.raises(ContractViolation):
        BivectorSpec(2, ("a",), {})
    with pytest.raises(ContractViolation):
        BivectorSpec(2, ("a", "a"), {})
    with pytest.raises(ContractViolation):
        BivectorSpec(2, ("a", "b"), {(1, 0): lambda x: 1.0})
    with pytest.raises(ContractViolation):
        BivectorSpec(2, ("a", "b"), {(0, 1): lambda x: 1.0},
                     dense=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(ContractViolation):
        coordinate_field(3, 3)


def test_coordinate_bracket_matches_component():
    biv = quadratic_biv()
    x = np.array([0.7, -1.2, 0.4])
    f = coordinate_field(0, 3)
    g = coordinate_field(1, 3)
    assert eval_bracket(biv, f, g, x) == biv.matrix(x)[0, 1]


@given(st.integers(0, 2), st.integers(0, 2),
       st.tuples(*[st.floats(-2, 2) for _ in range(3)]))
@settings(max_examples=50, deadline=None)
def test_antisymmetry_is_exact(i, j, pt):
    """Swapping arguments negates the identical floating-point sum."""
    biv = so3_biv()
    x = np.array(pt)
    f = coordinate_field(i, 3)
    g = coordinate_field(j, 3)
    assert eval_bracket(biv, f, g, x) == -eval_bracket(biv, g, f, x)


@given(st.tuples(*[st.floats(-1.5, 1.5) for _ in range(3)]))
@settings(max_examples=25, deadline=None)
def test_leibniz_rule(pt):
    x = np.array(pt)
    biv = so3_biv()
    f = ScalarField(fn=lambda q: q[0] + 0.3 * q[2], grad=lambda q: np.array([1.0, 0.0, 0.3]))
    g = ScalarField(fn=lambda q: q[1] ** 2, grad=lambda q: np.array([0.0, 2.0 * q[1], 0.0]))
    h = ScalarField(fn=lambda q: q[0] * q[2],
                    grad=lambda q: np.array([q[2], 0.0, q[0]]))
    gh = ScalarField(fn=lambda q: g.fn(q) * h.fn(q),
                     grad=lambda q: g.fn(q) * h.grad(q) + h.fn(q) * g.grad(q))
    lhs = eval_bracket(biv, f, gh, x)
    rhs = g(x) * eval_bracket(biv, f, h, x) + h(x) * eval_bracket(biv, f, g, x)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_fd_gradient_close_to_analytic():
    """Central differences at the pushforward's step scale agree with the
    analytic gradient to the step's truncation error."""
    x = np.array([0.6, -1.1])
    fd = bracket._central_differences(lambda q: np.sin(q[0]) * q[1], x, _FD_SCALE)
    np.testing.assert_allclose(fd, [np.cos(0.6) * -1.1, np.sin(0.6)], rtol=0, atol=1e-9)


def test_hamiltonian_field_sign():
    """xdot = {H, x} on the chart with {x1, x2} = 0.1 x1 x2 and H = x1.

    At (2, 3) the only flowing coordinate is x2, with rate {x1, x2} = 0.6.
    """
    biv = BivectorSpec(2, ("xp", "xm"), {(0, 1): lambda x: 0.1 * x[0] * x[1]})
    v = hamiltonian_vector_field(biv, coordinate_field(0, 2), np.array([2.0, 3.0]))
    np.testing.assert_allclose(v, [0.0, 0.6], rtol=0, atol=1e-15)
    # componentwise route through eval_bracket agrees
    H = coordinate_field(0, 2)
    for k in range(2):
        b = eval_bracket(biv, H, coordinate_field(k, 2), np.array([2.0, 3.0]))
        assert abs(v[k] - b) < 1e-14


def test_jacobi_detects_non_poisson_structure():
    """pi12 = x3, pi13 = x1, pi23 = 0 violates Jacobi: the cyclic sum equals
    x3 identically, so the residual at (1,1,1) is 1 and at (1,1,2.5) is 2.5
    (up to the finite-difference error of dP)."""
    bad = BivectorSpec(3, ("x1", "x2", "x3"),
                       {(0, 1): lambda x: x[2], (0, 2): lambda x: x[0]})
    r1 = jacobiator(bad, [1.0, 1.0, 1.0], (0, 1, 2))
    r2 = jacobiator(bad, [1.0, 1.0, 2.5], (0, 1, 2))
    assert abs(r1 - 1.0) < 1e-9
    assert abs(r2 - 2.5) < 1e-9
    cert = jacobi_certificate(bad, n_points=10, seed=4, box=(0.5, 1.5))
    assert not cert.passed and not cert.vacuous


@pytest.mark.parametrize("bad_value", [np.nan, np.inf])
def test_jacobi_certificate_fails_on_non_finite_residual(bad_value):
    """A bivector that evaluates to NaN (or inf) must not certify: the
    non-finite residual is the certificate's max_residual."""
    bad = BivectorSpec(3, ("x0", "x1", "x2"),
                       {(0, 1): lambda x: bad_value, (1, 2): lambda x: x[0]})
    with np.errstate(invalid="ignore"):  # inf - inf in the difference of P
        cert = jacobi_certificate(bad, n_points=5, seed=0)
    assert not cert.vacuous
    assert not np.isfinite(cert.max_residual)
    assert not cert.passed


def _witness_4d(coeff, a, b, c):
    """coeff * (x_a d_a ^ d_b + d_c ^ d_a) on a 4-chart: its Jacobiator is
    coeff**2 on (a, b, c) and zero on every triple holding the fourth index."""
    comps = {}

    def put(i, j, fn):
        if i < j:
            comps[(i, j)] = fn
        else:
            comps[(j, i)] = lambda x: -fn(x)

    put(a, b, lambda x: coeff * x[a])
    put(c, a, lambda x: coeff)
    return BivectorSpec(4, ("w", "x", "y", "z"), comps)


@pytest.mark.parametrize("a, b, c", [(0, 1, 2), (2, 0, 3), (3, 1, 0)])
def test_jacobi_tensor_on_4d_witness(a, b, c):
    coeff = 0.7
    biv = _witness_4d(coeff, a, b, c)
    (d,) = set(range(4)) - {a, b, c}
    for x in (np.array([0.3, -1.2, 0.8, 2.5]), np.array([1.5, 0.4, -0.6, 0.1])):
        assert jacobiator(biv, x, (a, b, c)) == pytest.approx(coeff**2, abs=1e-9)
        assert jacobiator(biv, x, (b, a, c)) == pytest.approx(-coeff**2, abs=1e-9)
        for t in ((a, b, d), (d, c, a), (b, d, c)):
            assert abs(jacobiator(biv, x, t)) <= 1e-9
    cert = jacobi_certificate(biv, n_points=5, seed=3)
    assert cert.n_triples == 4
    assert not cert.passed
    assert cert.max_residual == pytest.approx(coeff**2, abs=1e-9)


def test_jacobi_tensor_matches_nested_brackets():
    """Reference: the cyclic sum of brackets of brackets, the inner bracket
    differentiated by central differences at the same step, on a random
    quadratic (non-Poisson) bivector whose residuals are O(1)."""
    C = np.random.default_rng(5).normal(size=(5, 5, 5, 5))
    C = C - C.transpose(1, 0, 2, 3)
    biv = BivectorSpec(5, ("a", "b", "c", "d", "e"), dense=lambda y: C @ y @ y)
    x = np.array([0.4, -0.9, 1.3, 0.2, -0.6])
    coords = [coordinate_field(m, 5) for m in range(5)]

    def nested(a, b, c):
        def fn(y):
            return eval_bracket(biv, coords[b], coords[c], y)

        inner = ScalarField(fn=fn, grad=lambda y: bracket._central_differences(fn, y, _FD_SCALE_NESTED))
        return eval_bracket(biv, coords[a], inner, x)

    for i, j, k in itertools.combinations(range(5), 3):
        ref = nested(i, j, k) + nested(j, k, i) + nested(k, i, j)
        assert abs(ref) > 1e-2
        assert jacobiator(biv, x, (i, j, k)) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_jacobi_certificate_on_rotation_algebra():
    cert = jacobi_certificate(so3_biv(), n_points=40, seed=1)
    assert cert.passed and not cert.vacuous
    assert cert.n_triples == 1
    assert cert.max_residual < 1e-6


def test_jacobi_certificate_vacuous_below_3d():
    biv = BivectorSpec(2, ("a", "b"), {(0, 1): lambda x: 1.0})
    cert = jacobi_certificate(biv)
    assert cert.vacuous and cert.passed and cert.n_triples == 0


def test_add_bivectors_pointwise():
    a = so3_biv()
    b = BivectorSpec(3, ("x", "y", "z"), {(0, 1): lambda q: 1.0})
    s = add_bivectors(a, b)
    x = np.array([0.2, 0.4, 0.8])
    np.testing.assert_allclose(s.matrix(x), a.matrix(x) + b.matrix(x), atol=1e-15)
    with pytest.raises(ContractViolation):
        add_bivectors(a, BivectorSpec(2, ("u", "v"), {}))


def test_pushforward_through_linear_map():
    """For linear phi the pushforward is exactly J Pi J^T; the fd Jacobian
    of a linear map is exact up to rounding."""
    biv = so3_biv()
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    x = np.array([0.3, -0.5, 0.9])
    got = pushforward_bivector(biv, lambda q: A @ q, x)
    want = A @ biv.matrix(x) @ A.T
    np.testing.assert_allclose(got, want, atol=1e-9)
    with pytest.raises(ContractViolation):
        pushforward_bivector(biv, lambda q: A[:, :2] @ q, x[:2])


def test_constant_field_bracket_vanishes():
    biv = so3_biv()
    c = ScalarField(fn=lambda x: 4.2, grad=lambda x: np.zeros(3))
    f = coordinate_field(1, 3)
    assert eval_bracket(biv, c, f, np.array([1.0, 2.0, 3.0])) == 0.0


def _shipped_structures():
    yield "sl2c", su2.sl2c_bivector(0.2)
    yield "su2_momentum", su2.momentum_bivector(0.2)
    yield "su2_linear", su2.linear_momentum_bivector()
    for d in (1, 2, 3, 7):
        spec = kappa.KappaSpec(0.3, d)
        yield f"kappa_{d}", kappa.kappa_bivector(spec)
        r = kappa.kappa_rspec(spec)
        yield f"kappa_shifted_{d}", add_bivectors(groupoid.canonical_bivector(spec.dim),
                                                  groupoid.cotangent_wedge(0.3, r.X1, r.X2))
    mink = minkowski2d.Minkowski2DSpec(0.3, 1.0)
    yield "minkowski2d", minkowski2d.minkowski2d_bivector(mink)
    X1, X2 = generators.scaling([0], 2), generators.scaling([1], 2)
    yield "minkowski2d_shifted", add_bivectors(groupoid.canonical_bivector(2),
                                               groupoid.cotangent_wedge(0.3, X1, X2))


SHIPPED = dict(_shipped_structures())


@pytest.mark.parametrize("name", list(SHIPPED))
def test_jacobi_terms_contraction_matches_loop_bit_for_bit(name):
    """The contraction T[a,b,c] = sum_l P[a,l] dP[l,b,c] equals, bit for bit,
    the sum accumulated one l at a time in ascending order, at seeded
    points of the certificate's box."""
    biv = SHIPPED[name]
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, size=biv.dim)
        P = biv.matrix(x)
        dP = bracket._central_differences(biv.matrix, x, _FD_SCALE_NESTED)
        T = np.zeros((biv.dim,) * 3)
        for l in range(biv.dim):
            T += P[:, l, None, None] * dP[l]
        np.testing.assert_array_equal(bracket._jacobi_terms(biv, x), T)
