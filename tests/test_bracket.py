"""Bracket engine: evaluation, antisymmetry, Leibniz, Jacobi residuals."""
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poismech import bracket, cli, generators, groupoid, kappa, su2
from poismech import model as model_module
from poismech.bracket import (
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
from poismech.model import Bracket


def central_difference(fn, x, h):
    """Test-local reference derivative, independent of the complex step:
    stacked (fn(x + h e_l) - fn(x - h e_l)) / (2 h) for l = 0..n-1."""
    return np.array([(np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2.0 * h)
                     for e in h * np.eye(x.size)])


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
    rhs = g.fn(x) * eval_bracket(biv, f, h, x) + h.fn(x) * eval_bracket(biv, f, g, x)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_complex_step_gradient_matches_analytic():
    """The complex-step derivative subtracts nothing, so it agrees with the
    analytic gradient to rounding."""
    x = np.array([0.6, -1.1])
    cs = bracket._complex_step(lambda q: np.sin(q[..., 0]) * q[..., 1], x)
    np.testing.assert_allclose(cs, [np.cos(0.6) * -1.1, np.sin(0.6)], rtol=1e-15, atol=0)


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
    (to rounding: the complex-step dP is exact on this linear bivector)."""
    bad = BivectorSpec(3, ("x1", "x2", "x3"),
                       {(0, 1): lambda x: x[2], (0, 2): lambda x: x[0]})
    r1 = jacobiator(bad, [1.0, 1.0, 1.0], (0, 1, 2))
    r2 = jacobiator(bad, [1.0, 1.0, 2.5], (0, 1, 2))
    assert abs(r1 - 1.0) < 1e-15
    assert abs(r2 - 2.5) < 1e-15
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
    return _components_witness(("w", "x", "y", "z"), coeff, a, b, c)


def _components_witness(names, coeff, a, b, c):
    """coeff * (x_a d_a ^ d_b + d_c ^ d_a) in the components form, built the
    way the benchmark's non-Poisson witnesses are: one-point lambdas."""
    comps = {}

    def put(i, j, fn):
        if i < j:
            comps[(i, j)] = fn
        else:
            comps[(j, i)] = lambda x: -fn(x)

    put(a, b, lambda x: coeff * x[a])
    put(c, a, lambda x: coeff)
    return BivectorSpec(len(names), names, comps)


# Every bracket a model declares, as (model, Jacobi check name): read from
# the records, so a bracket declared later gets a witness with no edit here.
DECLARED = [pytest.param(model, f"jacobi_{name}", id=f"poismech.{model}-jacobi_{name}")
            for model, record in sorted(cli.MODELS.items()) for name in record.brackets]


def _certify_with_witness(monkeypatch, model, target):
    """The model's checks at eps 0.3, seed 0 and 10 points, with the witness
    coeff 0.7 (x_0 d_0^d_1 + d_2^d_0) added to the P of the declared bracket
    whose check is ``target`` alone, by replacing the builder of its entry
    in the record's brackets and keeping its declared data (none when
    ``target`` is None); the checks by name."""
    record = cli.MODELS[model]
    brackets = dict(record.brackets)
    for name, entry in record.brackets.items():
        if f"jacobi_{name}" == target:
            brackets[name] = entry._replace(build=lambda p, build=entry.build: add_bivectors(
                build(p), _components_witness(build(p).coord_names, 0.7, 0, 1, 2)))
    monkeypatch.setitem(cli.MODELS, model, record._replace(brackets=brackets))
    return {c.name: c for c in cli.certify(model, 0.3, 0, 10)}


@pytest.mark.parametrize("model, name", DECLARED)
def test_jacobi_check_fails_under_a_witness(monkeypatch, model, name):
    """Under the witness only its bracket's check FAILs: a bracket declared
    with its data still proves that data Poisson, and its P no longer equals
    pi_r; a sampled bracket's Jacobiator sees the witness.  A bracket on a
    chart below dim 3 holds no triple, so its check is vacuous and says so."""
    genuine = _certify_with_witness(monkeypatch, model, None)[name]
    entry = cli.MODELS[model].brackets[name.removeprefix("jacobi_")]
    params = {**cli._DEFAULTS[model], "epsilon": 0.3}
    if genuine.note == "vacuous below dim 3":
        assert genuine.passed and entry.build(params).dim < 3
        return
    assert genuine.passed and genuine.note == ("" if entry.r is None else f"proved: {entry.r(params).proof}")
    witnessed = _certify_with_witness(monkeypatch, model, name)
    assert not witnessed[name].passed and witnessed[name].value > witnessed[name].threshold
    assert witnessed[name].note == genuine.note
    # only the named check sees the witness
    assert all(c.passed for n, c in witnessed.items() if n != name)


@pytest.mark.parametrize("model", sorted(cli.MODELS))
def test_certify_opens_with_each_declared_brackets_jacobi_at_its_seed(model):
    """The certificate opens with jacobi_<name> of each declared bracket in
    declaration order, the k-th read at seed + k.  A bracket declared with
    its data r names r's proof, which holds exactly, and reads bit for bit
    the largest gap between P and r's pi_r over pi_r's term sizes plus
    DBL_MIN, at the points jacobi_certificate draws (vacuous below dim 3);
    a bracket without data reads jacobi_certificate bit for bit.  The
    model's own checks follow."""
    record = cli.MODELS[model]
    params = {**cli._DEFAULTS[model], "epsilon": 0.3}
    checks = cli.certify(model, 0.3, 5, 8)
    assert [c.name for c in checks[:len(record.brackets)]] == [f"jacobi_{n}" for n in record.brackets]
    for k, (check, entry) in enumerate(zip(checks, record.brackets.values())):
        biv = entry.build(params)
        if entry.r is None:
            cert = jacobi_certificate(biv, 8, 5 + k)
            want, threshold, note = cert.max_residual, cert.threshold, ""
        elif biv.dim < 3:
            want, threshold, note = 0.0, model_module._DECLARED_TOL, "vacuous below dim 3"
        else:
            r = entry.r(params)
            assert r.jacobi_defect() == 0.0
            x = np.random.default_rng(5 + k).uniform(0.0, 1.0, size=(8, biv.dim))
            pi, terms = r.pi_r(x)
            want = np.max(np.abs(biv.matrix(x) - pi) / (terms + sys.float_info.min))
            threshold, note = model_module._DECLARED_TOL, f"proved: {r.proof}"
        assert float(check.value).hex() == float(want).hex()
        assert (check.threshold, check.note) == (threshold, note)
    assert [c.name for c in checks[len(record.brackets):]] == [
        c.name for c in record.certificate(params, 5, 8)]


def _polarized(r):
    """The quadratic bracket pi_r of su2 declared data r as a BivectorSpec
    that takes complex points too, so jacobi_certificate can read it: its
    coefficients come from pi_r at the unit vectors and at their pairwise
    sums, exactly for dyadic r."""
    e = np.eye(8)
    at_e, at_sums = r.pi_r(e)[0], r.pi_r(e[:, None] + e[None])[0]
    coeff = 0.5 * (at_sums - at_e[:, None] - at_e[None])
    return BivectorSpec(8, su2.GROUP_COORD_NAMES,
                        dense=lambda x: np.einsum("...p,...q,pqij->...ij", x, x, coeff))


def test_a_perturbed_r_fails_the_group_proof_that_the_sampled_jacobi_misses(monkeypatch):
    """r + 2^-20 su2_0 ^ sb2_0 is not Poisson: its Schouten square is not
    ad-invariant, so jacobi_group FAILs it through cli.certify, with P built
    from that r.  jacobi_certificate reads its bivector below 1e-6 at 100
    points and PASSes it: the gap the proof closes."""
    X = su2._SU2.copy()
    X[0] = X[0] * (1.0 + 2.0**-20)

    def witness(p):
        return su2.ManinR(p["epsilon"], X, su2._SB2)

    x = np.random.default_rng(0).uniform(0.0, 1.0, size=(5, 8))
    np.testing.assert_allclose(_polarized(witness({"epsilon": 0.3})).matrix(x),
                               witness({"epsilon": 0.3}).pi_r(x)[0], rtol=0, atol=1e-15)
    record = cli.MODELS["su2"]
    brackets = {**record.brackets, "group": Bracket(lambda p: _polarized(witness(p)), r=witness)}
    monkeypatch.setitem(cli.MODELS, "su2", record._replace(brackets=brackets))
    checks = {c.name: c for c in cli.certify("su2", 0.3, 0, 100)}
    group = checks.pop("jacobi_group")
    assert not group.passed and math.isnan(group.value)
    assert group.note == f"proof failed: {su2.ManinR.proof} (off by 7.63e-06)"
    assert all(c.passed for c in checks.values())
    sampled = jacobi_certificate(_polarized(witness({"epsilon": 0.3})), n_points=100, seed=0)
    assert sampled.passed and 1e-7 < sampled.max_residual < sampled.threshold


@pytest.mark.parametrize("vector, poisson", [((0.0, 1.0, 0.0, 0.0), True), ((1.0, 1.0, 0.0, 0.0), False)])
def test_a_non_commuting_generator_pair_fails_both_kappa_proofs(monkeypatch, vector, poisson):
    """kappa's brackets declared with a translation along the scaled x1 in
    place of the time translation: [X1, X2] = d_1, so jacobi_base and
    jacobi_shifted FAIL, whatever P reads.  The proofs ask for commuting
    generators, a sufficient condition: along x1 alone [X1, X2] is parallel
    to X1, the bracket is Poisson and the sampled Jacobi PASSes it; along
    x0 + x1 it is not, and the sampled Jacobi FAILs it too."""
    X1, X2 = generators.translation(vector), kappa._generators(4)[1]

    def r(p):
        return generators.AbelianRSpec(p["epsilon"], X1, X2)

    brackets = {"base": Bracket(lambda p: generators.wedge_bivector(p["epsilon"], X1, X2, tuple("wxyz")), r=r),
                "shifted": Bracket(lambda p: groupoid.shifted_bivector(r(p)),
                                   r=lambda p: groupoid.ShiftedRSpec(r(p)))}
    monkeypatch.setitem(cli.MODELS, "kappa", cli.MODELS["kappa"]._replace(brackets=brackets))
    checks = {c.name: c for c in cli.certify("kappa", 0.3, 0, 10)}
    for name, proof in (("jacobi_base", generators.AbelianRSpec.proof),
                        ("jacobi_shifted", groupoid.ShiftedRSpec.proof)):
        assert not checks[name].passed and math.isnan(checks[name].value)
        assert checks[name].note == f"proof failed: {proof} (off by 1)"
    assert checks["projected_speed_closed_form"].passed
    params = {**cli._DEFAULTS["kappa"], "epsilon": 0.3}
    for entry in brackets.values():
        assert jacobi_certificate(entry.build(params), n_points=10, seed=0).passed == poisson


def test_minkowski2d_base_jacobi_check_is_vacuous_on_its_plane():
    """The plane's chart has dimension 2, which holds no triple of distinct
    coordinates, so no witness can fail its Jacobi check; the check says so."""
    base = {c.name: c for c in cli.certify("minkowski2d", 0.3, 0, 10)}["jacobi_base"]
    assert base.passed and base.note == "vacuous below dim 3"


@pytest.mark.parametrize("a, b, c", [(0, 1, 2), (2, 0, 3), (3, 1, 0)])
def test_jacobi_tensor_on_4d_witness(a, b, c):
    coeff = 0.7
    biv = _witness_4d(coeff, a, b, c)
    (d,) = set(range(4)) - {a, b, c}
    for x in (np.array([0.3, -1.2, 0.8, 2.5]), np.array([1.5, 0.4, -0.6, 0.1])):
        assert jacobiator(biv, x, (a, b, c)) == pytest.approx(coeff**2, abs=1e-15)
        assert jacobiator(biv, x, (b, a, c)) == pytest.approx(-coeff**2, abs=1e-15)
        for t in ((a, b, d), (d, c, a), (b, d, c)):
            assert abs(jacobiator(biv, x, t)) <= 1e-15
    cert = jacobi_certificate(biv, n_points=5, seed=3)
    assert cert.n_triples == 4
    assert not cert.passed
    assert cert.max_residual == pytest.approx(coeff**2, abs=1e-15)


def test_jacobi_tensor_matches_nested_brackets():
    """Reference: the cyclic sum of brackets of brackets, the inner bracket
    differentiated by a test-local central difference, on a random quadratic
    (non-Poisson) bivector whose residuals are O(1).  The inner bracket is
    quadratic, so its central difference has no truncation error and the
    coarse step keeps its cancellation small."""
    C = np.random.default_rng(5).normal(size=(5, 5, 5, 5))
    C = C - C.transpose(1, 0, 2, 3)
    biv = BivectorSpec(5, ("a", "b", "c", "d", "e"),
                       dense=lambda y: np.einsum("abcd,...c,...d->...ab", C, y, y))
    x = np.array([0.4, -0.9, 1.3, 0.2, -0.6])
    coords = [coordinate_field(m, 5) for m in range(5)]

    def nested(a, b, c):
        def fn(y):
            return eval_bracket(biv, coords[b], coords[c], y)

        inner = ScalarField(fn=fn, grad=lambda y: central_difference(fn, y, 1e-2))
        return eval_bracket(biv, coords[a], inner, x)

    for i, j, k in itertools.combinations(range(5), 3):
        ref = nested(i, j, k) + nested(j, k, i) + nested(k, i, j)
        assert abs(ref) > 1e-2
        assert jacobiator(biv, x, (i, j, k)) == pytest.approx(ref, rel=1e-12, abs=0)


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
    """For linear phi the pushforward is exactly J Pi J^T; the complex-step
    Jacobian of a linear map is exact up to rounding."""
    biv = so3_biv()
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    x = np.array([0.3, -0.5, 0.9])
    got = pushforward_bivector(biv, lambda q: q @ A.T, x)
    want = A @ biv.matrix(x) @ A.T
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    with pytest.raises(ContractViolation):
        pushforward_bivector(biv, lambda q: q @ A[:, :2].T, x[:2])


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
        yield f"kappa_shifted_{d}", groupoid.shifted_bivector(kappa.kappa_rspec(spec))
    brackets, params = cli.MODELS["minkowski2d"].brackets, {**cli._DEFAULTS["minkowski2d"], "epsilon": 0.3}
    yield "minkowski2d", brackets["base"].build(params)
    yield "minkowski2d_shifted", brackets["shifted"].build(params)


SHIPPED = dict(_shipped_structures())


@pytest.mark.parametrize("name", list(SHIPPED))
def test_jacobi_terms_contraction_matches_loop_bit_for_bit(name):
    """The contraction T[a,b,c] = sum_l P[a,l] dP[l,b,c] equals, bit for bit,
    the sum accumulated one l at a time in ascending order, at seeded
    points of the certificate's box."""
    biv = SHIPPED[name]
    rng = np.random.default_rng(11)
    stack, loops = [], []
    for _ in range(20):
        x = rng.uniform(0.0, 1.0, size=biv.dim)
        P = biv.matrix(x)
        dP = bracket._complex_step(biv.matrix, x)
        T = np.zeros((biv.dim,) * 3)
        for l in range(biv.dim):
            T += P[:, l, None, None] * dP[l]
        np.testing.assert_array_equal(bracket._jacobi_terms(biv, x), T)
        stack.append(x)
        loops.append(T)
    # the same points as one stack give each point's tensor
    _assert_same_bits(bracket._jacobi_terms(biv, np.array(stack)), np.array(loops))


@pytest.mark.parametrize("name", list(SHIPPED))
def test_complex_step_dP_matches_central_difference(name):
    """A cast that dropped the imaginary part on the way would make the
    complex-step dP zero and every Jacobi certificate pass vacuously; on
    each shipped structure it matches a test-local central difference to
    the latter's accuracy, at seeded points of the certificate's box."""
    biv = SHIPPED[name]
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, size=biv.dim)
        np.testing.assert_allclose(bracket._complex_step(biv.matrix, x),
                                   central_difference(biv.matrix, x, 1e-5), rtol=0, atol=1e-9)


# Every shipped structure, and each perturbed by a benchmark-style witness in
# the components form (so the sum mixes a dense and a components operand).
WITNESSED = {
    **SHIPPED,
    **{f"{name}+witness": add_bivectors(biv, _components_witness(biv.coord_names, 0.7, 2, 0, 1))
       for name, biv in SHIPPED.items() if biv.dim >= 3},
}


def _bits(a):
    """The raw bits of a real or complex array, so -0.0 differs from +0.0."""
    a = np.asarray(a)
    return np.stack([a.real.view(np.uint64), np.imag(a).view(np.uint64)])


def _assert_same_bits(stacked, alone):
    """Bit for bit, sign bits included."""
    np.testing.assert_array_equal(_bits(stacked), _bits(alone))


@pytest.mark.parametrize("name", list(WITNESSED))
def test_matrix_of_a_stack_is_each_points_matrix(name):
    """P of a stack (..., n) is (..., n, n), and slice k is P at point k
    alone, at real points and at the complex-step points that a
    certificate's dP reads: bit for bit."""
    biv = WITNESSED[name]
    n = biv.dim
    X = np.random.default_rng(17).uniform(-1.0, 1.0, size=(64, n))
    Z = X[:, None, :] + 1j * bracket._CS_STEP * np.eye(n)
    PX, PZ = biv.matrix(X), biv.matrix(Z)
    assert PX.shape == (64, n, n) and PZ.shape == (64, n, n, n)
    assert np.iscomplexobj(PZ) or not np.any(np.imag(PZ))
    for k in range(64):
        _assert_same_bits(PX[k], biv.matrix(X[k]))
        for l in range(n):
            _assert_same_bits(PZ[k, l], biv.matrix(Z[k, l]))


def _stack_map(q):
    """An analytic map of (..., n) stacks onto three coordinates."""
    return np.stack([np.sin(q[..., 0]) * q[..., -1], q[..., 1] * q[..., 1], np.exp(q[..., -1])],
                    axis=-1)


@pytest.mark.parametrize("name", list(SHIPPED))
def test_stacked_vector_field_and_pushforward_are_each_points_alone(name):
    """hamiltonian_vector_field and pushforward_bivector of a stack (..., n)
    are, bit for bit, each point's value alone; at one point the vector
    field keeps the bits of the plain contraction -P @ grad H."""
    biv = SHIPPED[name]
    H = ScalarField(fn=lambda x: np.sum(np.cos(x), axis=-1), grad=lambda x: -np.sin(x))
    X = np.random.default_rng(23).uniform(-1.0, 1.0, size=(4, 8, biv.dim))
    field = hamiltonian_vector_field(biv, H, X)
    push = pushforward_bivector(biv, _stack_map, X)
    assert field.shape == X.shape and push.shape == (4, 8, 3, 3)
    for k in np.ndindex(X.shape[:-1]):
        alone = hamiltonian_vector_field(biv, H, X[k])
        _assert_same_bits(alone, -biv.matrix(X[k]) @ H.gradient(X[k]))
        _assert_same_bits(field[k], alone)
        _assert_same_bits(push[k], pushforward_bivector(biv, _stack_map, X[k]))


def _one_point_components(biv, x):
    """A components bivector at one point, filled pair by pair from each
    callable at x itself."""
    P = np.zeros((biv.dim, biv.dim), dtype=np.result_type(x, float))
    for (i, j), fn in biv.components.items():
        P[i, j] = fn(x)
        P[j, i] = -fn(x)
    return P


def _one_point_rotation(epsilon, x):
    """su2's rotation brackets at one point, filled pair by pair from the
    component formulas {x0, x1} = x2, {x0, x2} = -x1 and {x1, x2} = x0
    sinhc(2 eps x0) at x itself."""
    P = np.zeros((3, 3), dtype=np.result_type(x, float))
    for (i, j), v in (((0, 1), x[2]), ((0, 2), -x[1]), ((1, 2), x[0] * su2._sinhc(2.0 * epsilon * x[0]))):
        P[i, j] = v
        P[j, i] = -v
    return P


def _one_point_wedge(epsilon, X1, X2, x):
    return epsilon * (np.outer(X1.value(x), X2.value(x)) - np.outer(X2.value(x), X1.value(x)))


def _one_point_sl2c(epsilon, x):
    """The group bracket at one point as upper - upper^T, upper from the
    strict upper triangle of the cached coefficients."""
    upper_rows = np.triu(np.ones((8, 8), bool), 1).ravel()
    coeff = np.where(upper_rows[:, None], su2._sl2c_coefficients(), 0.0)
    upper = epsilon * (coeff @ (x[:, None] * x).ravel()).reshape(8, 8)
    return upper - upper.T


@pytest.mark.parametrize("epsilon", [0.2, -0.7])
def test_each_form_at_one_point_keeps_its_one_point_formula(epsilon):
    """At one point every form returns the bits of its plain one-point
    formula: components, and su2's rotation brackets, filled pair by pair
    from their formulas at x itself, a wedge from np.outer, the group
    bracket as upper - upper^T."""
    rng = np.random.default_rng(19)
    spec = kappa.KappaSpec(epsilon, 3)
    r = kappa.kappa_rspec(spec)
    lifts = [generators.cotangent_lift(g, spec.dim) for g in (r.X1, r.X2)]
    for _ in range(10):
        x3, x4, x8 = (rng.uniform(-1.0, 1.0, size=n) for n in (3, 4, 8))
        np.testing.assert_array_equal(_bits(su2.momentum_bivector(epsilon).matrix(x3)),
                                      _bits(_one_point_rotation(epsilon, x3)))
        np.testing.assert_array_equal(_bits(su2.linear_momentum_bivector().matrix(x3)),
                                      _bits(_one_point_rotation(0.0, x3)))
        witness = _witness_4d(0.7, 2, 0, 3)
        np.testing.assert_array_equal(_bits(witness.matrix(x4)), _bits(_one_point_components(witness, x4)))
        np.testing.assert_array_equal(_bits(kappa.kappa_bivector(spec).matrix(x4)),
                                      _bits(_one_point_wedge(epsilon, r.X1, r.X2, x4)))
        np.testing.assert_array_equal(
            _bits(groupoid.cotangent_wedge(epsilon, r.X1, r.X2).matrix(x8)),
            _bits(_one_point_wedge(epsilon, *lifts, x8)))
        np.testing.assert_array_equal(_bits(su2.sl2c_bivector(epsilon).matrix(x8)),
                                      _bits(_one_point_sl2c(epsilon, x8)))


def test_one_point_dense_is_a_contract_violation_on_a_stack():
    """A dense form written for one point reads only point 0 of a stack and
    returns one (n, n) matrix, which would broadcast over the chunk; matrix
    rejects that shape, so a certificate raises instead of judging point 0."""
    A = np.triu(np.ones((3, 3)), 1)
    biv = BivectorSpec(3, ("a", "b", "c"), dense=lambda x: (A - A.T) * x[0])
    assert biv.matrix(np.array([0.5, 0.2, 0.1])).shape == (3, 3)
    with pytest.raises(ContractViolation, match="dense returned shape"):
        biv.matrix(np.zeros((4, 3)))
    with pytest.raises(ContractViolation, match="dense returned shape"):
        jacobi_certificate(biv, n_points=5, seed=0)


def test_canonical_bivector_on_a_stack_is_a_read_only_broadcast():
    can = groupoid.canonical_bivector(2)
    P = can.matrix(np.zeros(4))
    S = can.matrix(np.zeros((3, 2, 4)))
    assert S.shape == (3, 2, 4, 4) and not S.flags.writeable
    np.testing.assert_array_equal(S, np.broadcast_to(P, S.shape))


def _per_point_certificate(biv, n_points, seed, box=(0.0, 1.0)):
    """Test-local reference: the Jacobi residual one point at a time, each
    point drawn alone, its dP from one-point matrix calls, its Jacobiator
    summed over itertools' triples."""
    rng = np.random.default_rng(seed)
    triples = np.array(list(itertools.combinations(range(biv.dim), 3))).T
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(*box, size=biv.dim)
        T = np.einsum("al,lbc->abc", biv.matrix(x), bracket._complex_step(biv.matrix, x))
        worst = max(worst, float(np.max(np.abs(bracket._cyclic(T, *triples)))))
    return worst


PER_POINT_CASES = {
    **{name: biv for name, biv in WITNESSED.items() if biv.dim >= 3},
    **{f"witness_4d_{t}": _witness_4d(0.7, *t) for t in [(0, 1, 2), (2, 0, 3), (3, 1, 0)]},
}


@pytest.mark.parametrize("name", list(PER_POINT_CASES))
def test_certificate_matches_a_per_point_reference(name):
    """The chunked certificate draws the same points as one draw per point,
    and gives the per-point verdict and worst residual.  100 points at dim
    16 span two chunks."""
    biv = PER_POINT_CASES[name]
    cert = jacobi_certificate(biv, n_points=100, seed=23)
    ref = _per_point_certificate(biv, 100, 23)
    assert cert.max_residual == pytest.approx(ref, rel=1e-14, abs=1e-300)
    assert cert.passed == (ref < cert.threshold)
    assert cert.passed == ("witness" not in name)


def test_certificate_memory_is_bounded_by_its_chunk():
    """At dim 32 a chunk is 8 points; 20 points take three chunks.  A chunk
    holds at most two complex arrays the size of its dP at once (the two
    outer products of a wedge, or the two terms of a bivector sum), and the
    rest, at half that size or less, stays below a third; unchunked, the 20
    points would need about 20 MiB."""
    import tracemalloc

    spec = kappa.KappaSpec(0.3, 15)
    biv = groupoid.shifted_bivector(kappa.kappa_rspec(spec))
    assert biv.dim == 32 and bracket._CHUNK_BYTES // (16 * 32**3) < 20
    jacobi_certificate(biv, n_points=1, seed=29)
    tracemalloc.start()
    try:
        cert = jacobi_certificate(biv, n_points=20, seed=29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.passed and cert.n_points == 20
    assert peak < 3 * bracket._CHUNK_BYTES
