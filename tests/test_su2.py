"""Group-chart model: factorization, the r-matrix bracket against the entry
tables, free flow, and the two momentum charts."""
import cmath
import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm, logm

from poismech import bracket
from poismech.bracket import BivectorSpec, ScalarField, hamiltonian_vector_field, jacobi_certificate
from poismech.errors import ConfigError, ContractViolation, NumericDomainError
from poismech.flow import StepControl, Trajectory
from poismech import cli, flow, su2
from poismech.model import CERT_POINTS
from poismech.su2 import (
    SB2Element,
    SL2CElement,
    SU2Element,
    casimir_radius_squared,
    closed_form_flow,
    energy_relations,
    flow_diagnostics,
    flow_rhs,
    free_energy,
    free_flow,
    free_hamiltonian_field,
    iwasawa,
    linear_momentum_bivector,
    matrix_from_real8,
    momentum_bivector,
    momentum_isomorphism,
    real8_from_matrix,
    sample_unimodular,
    sl2c_bivector,
)

EPS = 0.3
B0 = SB2Element(1.4, 0.3 + 0.2j)
G0 = SL2CElement.from_matrix(B0.matrix)


def _random_su2(rng):
    """Test-local copy of the per-point sampler that the stacked
    :func:`sample_unimodular` replaced: a normalized Gaussian 4-vector."""
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))


def _random_sb2(rng):
    rho = math.exp(su2._SAMPLE_SPREAD * rng.normal())
    return SB2Element(rho, complex(su2._SAMPLE_SPREAD * rng.normal(),
                                   su2._SAMPLE_SPREAD * rng.normal()))


def _random_sl2c(rng):
    return SL2CElement.from_matrix(_random_su2(rng).matrix @ _random_sb2(rng).matrix)


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_stacked_sample_is_the_per_point_chain_bit_for_bit(n):
    """One (n, 7) draw gives, row by row, the bits of n points drawn one at a
    time on one generator, at every seed tried."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        want = np.array([_random_sl2c(rng).matrix for _ in range(n)])
        got = sample_unimodular(n, seed)
        assert got.shape == (n, 2, 2) and got.dtype == complex
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# --- elements and factorization -------------------------------------------

def test_unimodular_constraint_enforced():
    with pytest.raises(ContractViolation):
        SL2CElement(1.0, 0.0, 0.0, 1.1)
    g = SL2CElement(2.0, 0.0, 0.0, 0.5)
    assert g.matrix[0, 0] == 2.0
    with pytest.raises(ContractViolation):
        SB2Element(-1.0, 0.0)


@pytest.mark.parametrize("make", [
    lambda: SL2CElement(math.nan, 0.0, 0.0, 1.0),
    lambda: SU2Element(math.nan, 0.0),
    lambda: SB2Element(1.0, math.nan),
    lambda: SB2Element(1.0, complex(0.0, math.inf)),
], ids=["sl2c_nan", "su2_nan", "sb2_nan_n", "sb2_inf_n"])
def test_element_contracts_reject_nan(make):
    """A NaN entry fails each constructor's contract instead of passing the
    tolerance test that every comparison with NaN fails."""
    with pytest.raises(ContractViolation):
        make()


def test_iwasawa_factorization_roundtrip():
    """One call splits a stack: 20 random unimodular matrices and one with
    c = 0, which is triangular up to the phase of its diagonal."""
    rng = np.random.default_rng(5)
    stack = np.array([_random_sl2c(rng).matrix for _ in range(20)]
                     + [[[1.4j, 0.3 - 0.2j], [0.0, -1j / 1.4]]])
    alpha, gamma, rho, n = iwasawa(stack)
    assert alpha.shape == gamma.shape == rho.shape == n.shape == (21,)
    u = np.array([SU2Element(a, c).matrix for a, c in zip(alpha, gamma)])
    b = np.array([SB2Element(r, m).matrix for r, m in zip(rho, n)])
    np.testing.assert_allclose(u @ b, stack, atol=1e-13)
    # unitary factor is unitary, triangular factor has positive diagonal
    u_uh = u @ np.conj(np.swapaxes(u, 1, 2))
    np.testing.assert_allclose(u_uh, np.tile(np.eye(2), (len(u), 1, 1)), atol=1e-13)
    assert np.all(rho > 0)
    # one vanishing first column anywhere in the stack has no triangular factor
    stack[7, :, 0] = 0.0
    with pytest.raises(NumericDomainError):
        iwasawa(stack)


def test_real8_roundtrip():
    x = real8_from_matrix(G0.matrix)
    np.testing.assert_array_equal(real8_from_matrix(matrix_from_real8(x)), x)


def test_chart_conversions_take_stacks_and_match_single_points():
    """(..., 8) <-> (..., 2, 2) round-trips a stack, and each row of a stacked
    conversion equals the one-point conversion bit for bit."""
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(3, 5, 8))
    mats = matrix_from_real8(xs)
    assert mats.shape == (3, 5, 2, 2)
    back = real8_from_matrix(mats)
    np.testing.assert_array_equal(back, xs)
    for i in range(3):
        for j in range(5):
            assert matrix_from_real8(xs[i, j]).tobytes() == mats[i, j].tobytes()
            assert real8_from_matrix(mats[i, j]).tobytes() == back[i, j].tobytes()
    with pytest.raises(ContractViolation):
        matrix_from_real8(np.zeros((4, 7)))


# --- the r-matrix bracket against the paper's entry tables ----------------

def _uv_tables(a, b, c, d):
    """The paper's entry brackets at ``[[a, b], [c, d]]``, the oracle the
    r-matrix bracket is checked against: holomorphic ``u = {z_k, z_l}`` and
    mixed ``v = {z_k, conj z_l}`` over ``i eps``, letters (a, b, c, d) ->
    0..3.  Everything else follows by antisymmetry and by ``{conj f, conj
    g} = conj {f, g}``."""
    ac, bc_, cc, dc = np.conj(a), np.conj(b), np.conj(c), np.conj(d)
    u = {
        (0, 1): -a * b,
        (0, 2): a * c,
        (0, 3): 0.0,
        (1, 2): 2.0 * a * d,
        (1, 3): b * d,
        (2, 3): -c * d,
    }
    v = {
        (0, 0): -(abs(a) ** 2 + 2.0 * abs(c) ** 2),
        (0, 1): -2.0 * c * dc,
        (0, 2): 0.0,
        (0, 3): a * dc,
        (1, 0): -2.0 * cc * d,
        (1, 1): -(abs(b) ** 2 + 2.0 * abs(a) ** 2 + 2.0 * abs(d) ** 2),
        (1, 2): b * cc,
        (1, 3): -2.0 * a * cc,
        (2, 0): 0.0,
        (2, 1): bc_ * c,
        (2, 2): -(abs(c) ** 2),
        (2, 3): 0.0,
        (3, 0): ac * d,
        (3, 1): -2.0 * ac * c,
        (3, 2): 0.0,
        (3, 3): -(abs(d) ** 2 + 2.0 * abs(c) ** 2),
    }
    return u, v


def _table_upper(x):
    """Strict upper triangle of the real 8x8 bracket matrix at ``eps = 1``
    and chart point ``x``, straight from the entry tables (zeros elsewhere).
    With ``U = {z_k, z_l}`` and ``V = {z_k, conj z_l}``, the brackets among
    (re_k, im_k, re_l, im_l) are combinations of these two values."""
    a, b, c, d = (x[0::2] + 1j * x[1::2]).tolist()
    u, v = _uv_tables(a, b, c, d)
    p = np.zeros((8, 8))
    for k in range(4):
        # {re_k, im_k} = -(1/2) Im {z_k, conj z_k}
        p[2 * k, 2 * k + 1] = -0.5 * (1j * v[(k, k)]).imag
        for l in range(k + 1, 4):
            U, V = 1j * u[(k, l)], 1j * v[(k, l)]
            p[2 * k, 2 * l] = 0.5 * (U.real + V.real)
            p[2 * k, 2 * l + 1] = 0.5 * (U.imag - V.imag)
            p[2 * k + 1, 2 * l] = 0.5 * (U.imag + V.imag)
            p[2 * k + 1, 2 * l + 1] = 0.5 * (V.real - U.real)
    return p


def _polarized_table():
    """The 64x64 coefficients of the entry tables' quadratic form: the
    polarization ``(U(e_p + e_q) - U(e_p - e_q)) / 4`` of the upper triangle
    ``U``, minus itself with its two output indices swapped."""
    eye = np.eye(8)
    coeff = np.zeros((8, 8, 8, 8))
    for p in range(8):
        for q in range(8):
            plus, minus = _table_upper(eye[p] + eye[q]), _table_upper(eye[p] - eye[q])
            coeff[:, :, p, q] = 0.25 * (plus - minus)
    return (coeff - coeff.transpose(1, 0, 2, 3)).reshape(64, 64)


def sl2c_bracket_table(g, epsilon):
    """All pairwise brackets among entries and conjugate entries at ``g``,
    from the entry tables ``u = {z_k, z_l}`` and ``v = {z_k, conj z_l}``
    (over ``i eps``).  Keys are pairs of labels from ``a, b, c, d, a*, b*,
    c*, d*`` (star marks conjugation), ordered as listed."""
    letters = ("a", "b", "c", "d")
    u, v = _uv_tables(g.a, g.b, g.c, g.d)
    ie = 1j * epsilon
    out = {}
    for k in range(4):
        for l in range(k + 1, 4):
            hol = ie * u[(k, l)]
            out[(letters[k], letters[l])] = hol
            out[(letters[k] + "*", letters[l] + "*")] = np.conj(hol)
        for l in range(4):
            out[(letters[k], letters[l] + "*")] = ie * v[(k, l)]
    return out


def _entry_brackets(g, epsilon):
    """The same brackets, keyed as :func:`sl2c_bracket_table`, read from the
    r-matrix bracket ``sl2c_bivector(epsilon)``'s real matrix at ``g``: with
    ``z_k = re_k + i im_k``, ``{z_k, z_l}`` and ``{z_k, conj z_l}`` are
    combinations of the four real brackets among (re_k, im_k, re_l, im_l)."""
    P = sl2c_bivector(epsilon).matrix(real8_from_matrix(g.matrix))
    letters = ("a", "b", "c", "d")
    out = {}
    for k in range(4):
        for l in range(4):
            rr, ri = P[2 * k, 2 * l], P[2 * k, 2 * l + 1]
            ir, ii = P[2 * k + 1, 2 * l], P[2 * k + 1, 2 * l + 1]
            hol = complex(rr - ii, ri + ir)
            if k < l:
                out[(letters[k], letters[l])] = hol
                out[(letters[k] + "*", letters[l] + "*")] = np.conj(hol)
            out[(letters[k], letters[l] + "*")] = complex(rr + ii, ir - ri)
    return out


def test_entry_brackets_at_identity():
    """At the identity the r-matrix bracket's entry brackets are the entry
    table's, and the table's values are the paper's."""
    g = SL2CElement(1, 0, 0, 1)
    got, tab = _entry_brackets(g, EPS), sl2c_bracket_table(g, EPS)
    assert got.keys() == tab.keys()
    for key, want in tab.items():
        assert got[key] == pytest.approx(want, abs=1e-16), key
    assert got[("b", "c")] == pytest.approx(2j * EPS, abs=1e-16)
    assert got[("a", "a*")] == pytest.approx(-1j * EPS, abs=1e-16)
    assert got[("b", "b*")] == pytest.approx(-4j * EPS, abs=1e-16)
    assert got[("a", "d")] == 0.0
    assert got[("a", "c*")] == 0.0


def test_entry_brackets_scale_linearly_in_epsilon():
    """At a random group point the r-matrix bracket's entry brackets scale
    linearly in eps and match the entry table's at both eps."""
    g = _random_sl2c(np.random.default_rng(2))
    t1, t2 = _entry_brackets(g, 0.1), _entry_brackets(g, 0.2)
    for key, v in t1.items():
        assert t2[key] == pytest.approx(2.0 * v, abs=1e-15)
    for epsilon, got in ((0.1, t1), (0.2, t2)):
        for key, want in sl2c_bracket_table(g, epsilon).items():
            assert got[key] == pytest.approx(want, abs=1e-15), key


def _realified_table(g, epsilon):
    """Rebuild the real 8x8 bracket matrix from the complex entry tables with
    the change-of-variables re = (z + z*)/2, im = (z - z*)/(2i)."""
    tab = sl2c_bracket_table(g, epsilon)
    names = ("a", "b", "c", "d")
    Pz = np.zeros((8, 8), dtype=complex)
    # order the complex chart as (z1..z4, z1*..z4*)
    for k, nk in enumerate(names):
        for l, nl in enumerate(names):
            if (nk, nl) in tab:
                Pz[k, l] = tab[(nk, nl)]
            elif (nl, nk) in tab:
                Pz[k, l] = -tab[(nl, nk)]
            Pz[k, l + 4] = tab[(nk, nl + "*")] if (nk, nl + "*") in tab else 0.0
    Pz[4:, :4] = -Pz[:4, 4:].T
    # {z_k*, z_l*} = conj {z_k, z_l} with both entries conjugated
    Pz[4:, 4:] = np.conj(Pz[:4, :4])
    M = np.zeros((8, 8), dtype=complex)
    for k in range(4):
        M[2 * k, k] = M[2 * k, k + 4] = 0.5
        M[2 * k + 1, k] = -0.5j
        M[2 * k + 1, k + 4] = 0.5j
    return (M @ Pz @ M.T).real


def test_realified_matrix_matches_complex_table():
    """Compare the r-matrix bracket against the realified entry tables."""
    rng = np.random.default_rng(9)
    biv = sl2c_bivector(EPS)
    for _ in range(5):
        g = _random_sl2c(rng)
        np.testing.assert_allclose(biv.matrix(real8_from_matrix(g.matrix)),
                                   _realified_table(g, EPS), atol=1e-13)


@pytest.mark.parametrize("epsilon", [EPS, -1.7, 1e-3])
def test_polarized_matrix_matches_table_and_is_exactly_antisymmetric(epsilon):
    """P(x) comes from the r-matrix's coefficient matrix; it must agree with
    the entry tables to rounding and be antisymmetric bit for bit."""
    rng = np.random.default_rng(17)
    biv = sl2c_bivector(epsilon)
    for _ in range(20):
        # a unitary times a triangular factor of spread 1, not the samplers' 0.4
        u = _random_su2(rng)
        b = su2.SB2Element(math.exp(rng.normal()), complex(rng.normal(), rng.normal()))
        g = SL2CElement.from_matrix(u.matrix @ b.matrix)
        got = biv.matrix(real8_from_matrix(g.matrix))
        want = _realified_table(g, epsilon)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got, -got.T)
    # off the unit-determinant slice, against the table formula directly
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, size=8)
        got = biv.matrix(x)
        want = epsilon * _table_upper(x)
        assert np.max(np.abs(np.triu(got, 1) - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got, -got.T)


def _im_tr(xs, ys):
    """``Im tr(x y)`` for every pair of a stack ``xs`` and a stack ``ys``."""
    return np.trace(xs[:, None] @ ys[None], axis1=-2, axis2=-1).imag


def test_manin_triple_bases_are_dual_and_isotropic():
    """The su(2) basis and the sb(2) basis are dual under Im tr, exactly,
    and each spans an isotropic subalgebra; the coefficients built from
    their r equal the polarized entry tables value for value, in C order
    and read-only."""
    assert np.array_equal(_im_tr(su2._SU2, su2._SB2), np.eye(3))
    assert np.array_equal(_im_tr(su2._SU2, su2._SU2), np.zeros((3, 3)))
    assert np.array_equal(_im_tr(su2._SB2, su2._SB2), np.zeros((3, 3)))
    # closed under the commutator: su(2) antihermitian traceless, sb(2)
    # upper triangular with a real diagonal
    for basis, inside in ((su2._SU2, lambda m: np.array_equal(m, -m.conj().T)),
                          (su2._SB2, lambda m: m[1, 0] == 0 and m[0, 0].imag == m[1, 1].imag == 0)):
        for x in basis:
            for y in basis:
                bracket = x @ y - y @ x
                assert inside(bracket) and np.trace(bracket) == 0
    coeff = su2._sl2c_coefficients()
    assert np.array_equal(coeff, _polarized_table())
    assert coeff.flags.c_contiguous and not coeff.flags.writeable


def _det_gradients(x):
    """The gradients of Re det and Im det on the group chart, shape ``(..., 8,
    2)``: ``d det = d da + a dd - c db - b dc`` with ``dz = d re + i d im``."""
    m = matrix_from_real8(x)
    a, b, c, d = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    grad = np.stack([d, 1j * d, -c, -1j * c, -b, -1j * b, a, 1j * a], axis=-1)
    return np.stack([grad.real, grad.imag], axis=-1)


@pytest.mark.parametrize("epsilon", [EPS, -1.7, 1e-3, 5.0])
def test_determinant_is_a_casimir_on_the_whole_chart(epsilon):
    """Re det and Im det are Casimirs of the group bracket on the whole
    8-dim chart, not only on the unit-determinant slice, which is why the
    exact motion stays unimodular: P grad det reads a few u of the size of
    its terms, |P| |grad det|, at 20000 points spread log-normally in
    scale (2.70 u at most, measured), and under the additive non-Poisson
    witness c (x_0 d_0 ^ d_1 + d_2 ^ d_0) it reads at least c."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=(20000, 8)) * np.exp(2.0 * rng.normal(size=(20000, 1)))
    grads = _det_gradients(x)

    def worst(biv):
        P = biv.matrix(x)
        return np.max(np.abs(P @ grads) / (np.abs(P) @ np.abs(grads)))

    assert worst(sl2c_bivector(epsilon)) <= 4 * _U
    for c in (0.7, 1e-6):
        assert worst(_plus_wedges(c)(epsilon)) >= c


def test_bracket_table_jacobi_off_shell():
    """The entry brackets define a consistent structure on the whole matrix
    chart, not only on the unit-determinant slice."""
    cert = jacobi_certificate(sl2c_bivector(EPS), n_points=10, seed=2,
                              box=(-0.8, 1.2))
    assert cert.passed and not cert.vacuous
    assert cert.n_triples == 56


# --- free dynamics ---------------------------------------------------------

def test_flow_rhs_on_diagonal_state():
    # H = |2|^2/2 + |1/2|^2/2 = 17/8; mdot = i eps (H m + Y conj(m) Y)
    m = np.diag([2.0 + 0j, 0.5 + 0j])
    got = flow_rhs(m, 1.0)
    np.testing.assert_allclose(got, np.diag([15j / 4, -15j / 16]), atol=1e-15)


def test_dual_route_dynamics_agree_on_shell():
    """The bracket route {H, -} and the direct matrix form of the equations
    of motion coincide on the unit-determinant slice..."""
    biv = sl2c_bivector(EPS)
    H = free_hamiltonian_field()
    worst = 0.0
    for g in sample_unimodular(20, seed=3):
        via_bracket = hamiltonian_vector_field(biv, H, real8_from_matrix(g))
        via_matrix = real8_from_matrix(flow_rhs(g, EPS))
        worst = max(worst, float(np.max(np.abs(via_bracket - via_matrix))))
    assert worst < 1e-12


def test_dual_route_dynamics_differ_off_shell():
    """... and genuinely differ once the state leaves the slice, so the two
    routes are independent checks rather than one computation twice."""
    g = sample_unimodular(1, seed=3)[0]
    off = real8_from_matrix(1.05 * g)  # det = 1.1025
    via_bracket = hamiltonian_vector_field(sl2c_bivector(EPS),
                                           free_hamiltonian_field(), off)
    via_matrix = real8_from_matrix(flow_rhs(matrix_from_real8(off), EPS))
    assert np.max(np.abs(via_bracket - via_matrix)) > 1e-3


def test_free_flow_conserves_its_invariants():
    # tol sets the accuracy, not the sample spacing h
    traj, n_renorm = free_flow(G0, EPS, 2.0, StepControl(h=1e-3, tol=1e-9))
    diag = flow_diagnostics(traj, EPS)
    assert diag["det_residual"] < 1e-10
    assert diag["b_factor_drift"] < 1e-10
    assert diag["omega_deviation"] < 1e-6
    assert diag["endpoint_deviation"] < 1e-9
    assert n_renorm == 0
    # the trace energy, as the flow's H reads it at each sample
    energy = 0.5 * su2._squared_norm(traj.points)
    assert np.max(np.abs(energy - energy[0])) < 1e-10


def test_trajectory_artifact_splits_each_sample_once(monkeypatch):
    """The rho/n columns split the whole trajectory in one stacked Iwasawa
    call, so the number of calls does not grow with the sample count, and
    the summary holds the determinant and field residuals."""
    calls = []

    def counting(g):
        calls.append(len(g))
        return iwasawa(g)

    monkeypatch.setattr(su2, "iwasawa", counting)
    for t_end, n_rows in ((0.1, 101), (0.2, 201)):
        params = {name: p.default for name, p in su2.PARAMS.items()}
        params.update(epsilon=0.2, t_end=t_end)
        calls.clear()
        data = su2.MODEL.artifacts["trajectory"](params)
        assert len(data.columns["t"]) == n_rows
        assert calls == [n_rows]
        assert data.summary.keys() == {"det_residual", "field_residual"}
        assert data.summary["det_residual"] == np.max(data.columns["det_residual"])


def _run_params(**kw):
    return cli.validate_config({"model": "su2", "params": {"epsilon": 0.2, **kw}}).params


def _refuse_integration(monkeypatch):
    """Make every su2 path into the integrator raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("integrated a flow")

    monkeypatch.setattr(su2, "free_flow", refuse)
    monkeypatch.setattr(su2, "integrate_flow", refuse)


def test_run_integrates_nothing(monkeypatch):
    """The run reads the exact motion: a trajectory reaches neither
    free_flow nor integrate_flow."""
    _refuse_integration(monkeypatch)
    su2.MODEL.artifacts["trajectory"](_run_params())


def test_certificate_and_sweep_row_integrate_nothing(monkeypatch):
    """The certificate and the sweep row read the exact motion too: with
    free_flow and integrate_flow raising, both finish and every check
    PASSes."""
    _refuse_integration(monkeypatch)
    assert all(c.passed for c in su2.MODEL.certify(_run_params(), 0, 1))
    assert su2.MODEL.sweep_row(_run_params()).keys() == {"classical_limit_dev", "det_residual",
                                                          "field_residual"}


@pytest.mark.parametrize("epsilon, t_end", [(0.2, 1.0), (-0.7, 1.0), (3.0, 1.0), (0.0, 1.0)])
def test_run_samples_are_the_exact_motion(epsilon, t_end):
    """Every sample against scipy's expm of t omega, with omega from the
    matrix form of the equations of motion (shares no code with the closed
    form): within 2e-15 of the sample's largest entry, at turns theta t of
    order one."""
    p = _run_params(epsilon=epsilon, t_end=t_end)
    data = su2.MODEL.artifacts["trajectory"](p)
    b = SB2Element(p["rho"], complex(p["n_re"], p["n_im"]))
    omega = _legendre_velocity(b, epsilon)
    want = np.array([expm(t * omega) @ b.matrix for t in data.columns["t"]])
    got = matrix_from_real8(np.stack([data.columns[c] for c in su2.GROUP_COORD_NAMES], axis=-1))
    assert np.array_equal(data.columns["t"], flow._sample_times(t_end, p["step"]))
    scale = np.max(np.abs(want), axis=(1, 2))[:, None, None]
    assert np.max(np.abs(got - want) / scale) <= 2e-15


_U = 2.0**-53


@pytest.mark.parametrize("rho, epsilon, t_end", [(1.4, 0.2, 1.0), (99.0, 0.2, 1.0), (1.4, 5.0, 1.0),
                                                 (1.4, -0.7, 20.0)])
def test_field_residual_reads_rounding_on_the_bracket_and_fails_a_flipped_one(
        monkeypatch, rho, epsilon, t_end):
    """Along the exact motion, the bracket's field of the trace energy meets
    the exact velocity to a few u of the size of their terms; with the
    bracket's sign flipped it reads O(1): this is the bracket checked along
    the motion, and the witness that the check can fail."""
    p = _run_params(rho=rho, epsilon=epsilon, t_end=t_end)
    assert su2.MODEL.artifacts["trajectory"](p).summary["field_residual"] <= 8 * _U
    genuine = su2.sl2c_bivector
    monkeypatch.setattr(su2, "sl2c_bivector", lambda eps: genuine(-eps))
    assert su2.MODEL.artifacts["trajectory"](p).summary["field_residual"] >= 0.5


def test_field_residual_reads_0_at_epsilon_0():
    """At epsilon 0 the field and the velocity vanish with all their terms:
    0/0 reads 0, and nothing warns."""
    summary = su2.MODEL.artifacts["trajectory"](_run_params(epsilon=0.0)).summary
    assert summary["field_residual"] == 0.0


def test_field_residual_chunks_the_bivector_stack(monkeypatch):
    """The field residual evaluates P on at most su2._FIELD_CHUNK samples at
    a time, and reads the same value as in one stack."""
    p = _run_params(t_end=5.0)
    whole = su2.MODEL.artifacts["trajectory"](p).summary["field_residual"]
    sizes = []
    genuine = su2.sl2c_bivector

    def counting(eps):
        biv = genuine(eps)
        return BivectorSpec(8, biv.coord_names, dense=lambda x: sizes.append(len(x)) or biv.matrix(x))

    monkeypatch.setattr(su2, "sl2c_bivector", counting)
    monkeypatch.setattr(su2, "_FIELD_CHUNK", 1000)
    assert su2.MODEL.artifacts["trajectory"](p).summary["field_residual"] == whole
    assert sizes == [1000] * 5 + [1]
    assert su2._FIELD_CHUNK * 64 * 8 <= bracket._CHUNK_BYTES


def test_field_terms_bound_holds_for_the_coefficients():
    """su2._FIELD_TERMS = 8 c + 2 rests on c = 5, the largest absolute row sum
    of the bracket's coefficient matrix."""
    c = np.max(np.sum(np.abs(su2._sl2c_coefficients()), axis=1))
    assert c == 5.0 and su2._FIELD_TERMS == 8 * c + 2


def _cert_params(epsilon=0.2, **start):
    return {**cli._DEFAULTS["su2"], "epsilon": epsilon, **start}


def _plus_wedges(c):
    """sl2c_bivector plus c (x_0 d_0 ^ d_1 + d_2 ^ d_0), which is not Poisson."""
    def witness(eps):
        biv = sl2c_bivector(eps)

        def dense(x):
            w = np.zeros(x.shape[:-1] + (8, 8), dtype=x.dtype)
            w[..., 0, 1], w[..., 1, 0] = x[..., 0], -x[..., 0]
            w[..., 2, 0], w[..., 0, 2] = 1.0, -1.0
            return biv.matrix(x) + c * w
        return BivectorSpec(8, biv.coord_names, dense=dense)
    return witness


def _energy_plus_x0_squared(c):
    """The trace energy plus c x_0^2 / 2."""
    genuine, e0 = free_hamiltonian_field(), np.eye(8)[0]
    return lambda: ScalarField(fn=lambda x: genuine.fn(x) + 0.5 * c * x[0] ** 2,
                               grad=lambda x: genuine.gradient(x) + c * x[..., :1] * e0)


# name -> (the su2 name it replaces, its stand-in, its relative size)
_WITNESSES = {
    "bracket_at_eps_1e-7_off": ("sl2c_bivector", lambda eps: sl2c_bivector(eps * (1 + 1e-7)), 1e-7),
    "bracket_at_eps_1e-4_off": ("sl2c_bivector", lambda eps: sl2c_bivector(eps * (1 + 1e-4)), 1e-4),
    "bracket_at_minus_eps": ("sl2c_bivector", lambda eps: sl2c_bivector(-eps), 1.0),
    "bracket_plus_1e-3_wedges": ("sl2c_bivector", _plus_wedges(1e-3), 1e-3),
    "bracket_plus_1e-6_wedges": ("sl2c_bivector", _plus_wedges(1e-6), 1e-6),
    "energy_plus_1e-4_x0_squared": ("free_hamiltonian_field", _energy_plus_x0_squared(1e-4), 1e-4),
}


@pytest.mark.parametrize("rho", [1.4, 20.0, 99.0])
@pytest.mark.parametrize("witness", sorted(_WITNESSES))
def test_field_residual_fails_every_witness_through_the_certificate(monkeypatch, witness, rho):
    """The certificate's flow_field_residual PASSes the genuine bracket and
    energy, at rounding, and FAILs each witness by orders of magnitude: the
    bracket at eps (1 + 1e-7), at eps (1 + 1e-4) and at -eps, the bracket
    plus c (x_0 d_0 ^ d_1 + d_2 ^ d_0) at c 1e-3 and 1e-6, and the energy
    plus 1e-4 x_0^2 / 2, from rho 1.4, 20 and 99 at epsilon 0.2.  Each
    reads at least a hundredth of its own relative size."""
    p = _cert_params(rho=rho)
    genuine = {c.name: c for c in su2.MODEL.certificate(p, 0, 1)}["flow_field_residual"]
    assert genuine.passed and genuine.value <= 8 * _U
    name, stand_in, size = _WITNESSES[witness]
    monkeypatch.setattr(su2, name, stand_in)
    check = {c.name: c for c in su2.MODEL.certificate(p, 0, 1)}["flow_field_residual"]
    assert not check.passed and check.value >= size / 100


@pytest.mark.parametrize("epsilon, rho", [(0.2, 20.0), (0.2, 30.0), (0.2, 50.0), (0.2, 99.0),
                                          (1e-3, 99.0)])
def test_certificate_passes_far_from_the_identity(epsilon, rho, tmp_path):
    """From rho 30 on the integrated certificate flow FAILed its absolute
    endpoint rule on the genuine bracket (2.1e-7 at rho 30, 5.5e-6 at rho
    99, against 1e-7).  On the exact motion every check PASSes, and a run of
    the trajectory to t_end 1 and 5 and the certificate exits 0 (integrated,
    rho 99 to t_end 1 took seconds)."""
    checks = su2.MODEL.certify(cli.validate_config(
        {"model": "su2", "params": {"epsilon": epsilon, "rho": rho}, "outputs": ["certificate"]}).params,
        0, CERT_POINTS)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    for t_end in (1.0, 5.0):
        path = tmp_path / f"t_end_{t_end}.yaml"
        params = {"epsilon": epsilon, "rho": rho, "t_end": t_end}
        path.write_text(yaml.safe_dump({"model": "su2", "params": params,
                                        "outputs": ["trajectory", "certificate"]}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / path.stem)]) == 0


@pytest.mark.parametrize("epsilon", [0.0, 0.3, -0.3, 3.0, -3.0, 5.0, -5.0, 10.0, -10.0, 40.0, 100.0,
                                     150.0, 170.0])
def test_certificate_passes_at_the_default_start(epsilon):
    """certify su2 PASSes every check at epsilon 0, +-0.3, +-3, +-5, +-10,
    40, 100, 150 and 170 (the sampling cube's bound is 170.7), with eight
    checks: three Jacobi, the field residual, the energy pipeline, the
    dual-path dynamics and the momentum isomorphism's two."""
    checks = cli.su2_certificate(epsilon, 0, CERT_POINTS)
    assert [c.name for c in checks] == [
        "jacobi_group", "jacobi_momentum", "jacobi_linear", "flow_field_residual", "energy_pipeline",
        "dual_path_dynamics", "isomorphism_volume", "isomorphism_casimir"]
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]


def _isomorphism_checks(epsilon):
    """The momentum isomorphism's two checks of cli.su2_certificate at seed 0."""
    checks = {c.name: c for c in cli.su2_certificate(epsilon, 0, CERT_POINTS)}
    return checks["isomorphism_volume"], checks["isomorphism_casimir"]


@pytest.mark.parametrize("epsilon", [0.3, 5.0, -5.0])
def test_isomorphism_casimir_fails_the_map_at_a_nearby_epsilon(monkeypatch, epsilon):
    """The isomorphism read at eps (1 + 1e-9) does not carry the radius
    Casimir onto the one at eps, nor the volume of the linear bracket onto
    the deformed one's: isomorphism_casimir and isomorphism_volume, each
    relative to its sizes, FAIL it, and read the genuine map below their
    thresholds."""
    genuine = _isomorphism_checks(epsilon)
    iso = su2.momentum_isomorphism
    monkeypatch.setattr(su2, "momentum_isomorphism",
                        lambda xyz, epsilon: iso(xyz, epsilon * (1.0 + 1e-9)))
    witnessed = _isomorphism_checks(epsilon)
    assert [c.threshold for c in genuine] == [32 * 2.0**-53, 16 * 2.0**-53]
    for check, witness in zip(genuine, witnessed):
        assert check.passed, check
        assert not witness.passed and witness.value > 100 * witness.threshold, witness


@pytest.mark.parametrize("epsilon", [0.3, 5.0, 100.0])
def test_isomorphism_volume_fails_a_shear_that_keeps_the_casimir(monkeypatch, epsilon):
    """Precomposed with a turn of (x, y) by 1e-6 y / sqrt(x^2 + y^2), the
    isomorphism keeps every radius, so isomorphism_casimir PASSes it, but
    it is no Poisson map: its Jacobian determinant is off by the turn's
    derivative, and isomorphism_volume FAILs it by more than 100 times its
    threshold.  The bivectors' 3x3 pushforward is off by 1.2e-6 at eps 0.3,
    so an absolute 1e-5 on it would PASS the shear."""
    iso = su2.momentum_isomorphism

    def sheared(xyz, epsilon):
        x, y, z = np.moveaxis(xyz, -1, 0)
        angle = 1e-6 * y / np.sqrt(x * x + y * y)
        c, s = np.cos(angle), np.sin(angle)
        return iso(np.stack([c * x - s * y, s * x + c * y, z], axis=-1), epsilon)

    monkeypatch.setattr(su2, "momentum_isomorphism", sheared)
    volume, casimir = _isomorphism_checks(epsilon)
    assert casimir.passed, casimir
    assert not volume.passed and volume.value > 100 * volume.threshold, volume


def _largest_valid(make, guess):
    """The largest float value whose config ``make(value)`` validates,
    bisected between guess / 2 (valid) and 2 guess (not)."""
    def valid(value):
        try:
            cli.validate_config({"model": "su2", "params": make(value)})
        except ConfigError:
            return False
        return True

    lo, hi = 0.5 * guess, 2.0 * guess
    assert valid(lo) and not valid(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if valid(mid) else (lo, mid)
    return lo


_DBL_MAX = 1.7976931348623157e308
_DEFAULT_H = float(free_energy(B0.matrix))


@pytest.mark.parametrize("field, make, guess", [
    ("epsilon", lambda v: {"epsilon": v, "t_end": 1.0, "step": 0.25},
     _DBL_MAX / (42 * _DEFAULT_H ** 1.5)),
    ("t_end", lambda v: {"epsilon": 2.0, "t_end": v, "step": v / 4}, _DBL_MAX / (2.0 * _DEFAULT_H)),
    ("rho", lambda v: {"epsilon": 1e10, "rho": v, "t_end": 1.0, "step": 0.25},
     math.sqrt(2.0) * (_DBL_MAX / 42e10) ** (1.0 / 3.0)),
], ids=["epsilon", "t_end", "rho"])
def test_run_at_the_overflow_bound_writes_finite_floats(field, make, guess):
    """At the largest value of each factor that su2's config check accepts,
    the run's columns and summary are finite floats (and nothing warns);
    one float past is a config error naming that factor."""
    value = _largest_valid(make, guess)
    params = cli.validate_config({"model": "su2", "params": make(value)}).params
    data = su2.MODEL.artifacts["trajectory"](params)
    assert all(np.all(np.isfinite(col)) for col in data.columns.values())
    assert all(math.isfinite(v) for v in data.summary.values())
    with pytest.raises(ConfigError) as exc:
        cli.validate_config({"model": "su2", "params": make(math.nextafter(value, math.inf))})
    assert exc.value.path == f"params.{field}"


_MAX = su2._MAX_ENTRY


# Each draw samples the motion at most 256 times (step = t_end / k, k <= 256),
# so a draw costs milliseconds whatever t_end is.
@settings(max_examples=120, derandomize=True, deadline=None)
@example(0.0, 1.4, 0.3, 0.2, _DBL_MAX, 3)  # the grid's sum passed DBL_MAX here
@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(1.0 / _MAX, _MAX),
       st.floats(-_MAX, _MAX), st.floats(-_MAX, _MAX),
       st.floats(0.0, exclude_min=True, allow_infinity=False), st.integers(1, 256))
def test_run_over_the_schema_exits_0_or_names_a_field(epsilon, rho, n_re, n_im, t_end, k):
    """su2's run with its trajectory, over the schema's full ranges of
    epsilon, rho, n_re, n_im and t_end, exits 0 and writes finite floats
    only, or exits 2 naming a params field; nothing warns."""
    params = {"epsilon": epsilon, "rho": rho, "n_re": n_re, "n_im": n_im, "t_end": t_end,
              "step": t_end / k}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.yaml"
        path.write_text(yaml.safe_dump({"model": "su2", "params": params, "outputs": ["trajectory"]}))
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            rc = cli.main(["run", str(path), "--out", str(Path(tmp) / "out"), "--format", "json"])
        if rc == 2:
            field = printed.getvalue().removeprefix("config error: params.").split(":")[0]
            assert field in su2.PARAMS, printed.getvalue()
            return
        assert rc == 0, printed.getvalue()
        doc = json.loads((Path(tmp) / "out" / "trajectory.json").read_text())
        assert np.all(np.isfinite(np.array(doc["rows"], dtype=float)))
        assert all(math.isfinite(v) for v in doc["summary"].values())


def _legendre_velocity(b, epsilon):
    """The body velocity of the free flow through ``B`` from the matrix form
    of its right-hand side: ``g' = omega g`` at ``g = B``, so ``omega =
    flow_rhs(B) B^-1``."""
    b_inv = np.array([[1.0 / b.rho, -b.n], [0.0, b.rho]])
    return flow_rhs(b.matrix, epsilon) @ b_inv


def _reference_diagnostics(traj, epsilon):
    """flow_diagnostics read out one sample at a time: an SL2CElement per
    sample (whose constructor checks the determinant), split into an
    SU2Element and an SB2Element, scipy's matrix logarithm of u_k^H u_{k+1}
    per interval for the body velocity, and scipy's matrix exponential for
    the endpoint, both against the matrix form of omega."""
    def split(g):
        rho = math.hypot(abs(g.a), abs(g.c))
        alpha, gamma = g.a / rho, g.c / rho
        return SU2Element(alpha, gamma), SB2Element(rho, np.conj(alpha) * g.b + np.conj(gamma) * g.d)

    mats = np.array([matrix_from_real8(p) for p in traj.points])
    factors = [split(SL2CElement.from_matrix(m)) for m in mats]
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    u0, b0 = factors[0]
    omega = _legendre_velocity(b0, epsilon)
    us = [u.matrix for u, _ in factors]
    dts = np.diff(traj.times)
    omega_dev = max(float(np.max(np.abs(logm(us[i].conj().T @ us[i + 1]) / dt - omega)))
                    for i, dt in enumerate(dts))
    end = u0.matrix @ expm(traj.times[-1] * omega) @ b0.matrix
    return {
        "det_residual": float(np.max(np.abs(dets - 1.0))),
        "b_factor_drift": max(max(abs(b.rho - b0.rho) for _, b in factors),
                              max(abs(b.n - b0.n) for _, b in factors)),
        "omega_deviation": omega_dev,
        "endpoint_deviation": float(np.max(np.abs(mats[-1] - end))),
    }


@pytest.mark.parametrize("t_end", [0.02, 0.1, 1.0])
@pytest.mark.parametrize("epsilon", [-3.0, -0.7, 0.2, 3.0])
def test_flow_diagnostics_match_the_per_sample_reference(epsilon, t_end):
    """The stacked read-out rounds differently from the per-sample one, but
    every diagnostic stays within 1e-12 of it."""
    g0 = _random_sl2c(np.random.default_rng(31))
    traj, _ = free_flow(g0, epsilon, t_end, StepControl(h=1e-3, tol=1e-8))
    got, want = flow_diagnostics(traj, epsilon), _reference_diagnostics(traj, epsilon)
    assert got.keys() == want.keys()
    for key in want:
        assert abs(got[key] - want[key]) <= 1e-12, key


@pytest.mark.parametrize("spacing", [1e-3, 0.05, 0.25])
@pytest.mark.parametrize("epsilon", [-0.7, 0.2, 3.0])
def test_body_velocity_is_exact_at_any_spacing(epsilon, spacing):
    """On the closed-form flow u0 exp(t omega) B the group logarithm of
    consecutive samples reads omega on every interval, whatever the
    spacing.  What is left is the samples' own rounding, a few 1e-16,
    divided by the spacing: within 1e-13 from spacing 0.05 up, and within
    1e-12 at 1e-3."""
    b0 = _random_sb2(np.random.default_rng(5))
    u0 = _random_su2(np.random.default_rng(6))
    times = np.linspace(0.0, 1.0, round(1.0 / spacing) + 1)
    mats = np.array([closed_form_flow(u0, b0, epsilon, t) for t in times])
    diag = flow_diagnostics(Trajectory(times, real8_from_matrix(mats)), epsilon)
    assert diag["omega_deviation"] <= max(1e-13, 1e-15 / spacing)


@pytest.mark.parametrize("direction", [np.diag([1j, -1j]), np.array([[0, 1], [-1, 0]]),
                                       np.array([[0, 1j], [1j, 0]])],
                         ids=["diagonal", "off_diagonal_real", "off_diagonal_imag"])
def test_body_velocity_deviation_reads_every_entry(direction):
    """A unitary factor that turns at omega + 1e-3 D, with D anti-Hermitian
    and traceless with unit entries on the diagonal or off it, reads an
    omega_deviation of 1e-3: every entry of the body velocity counts."""
    u0 = _random_su2(np.random.default_rng(6))
    omega = _legendre_velocity(B0, EPS) + 1e-3 * direction
    times = np.linspace(0.0, 1.0, 21)
    mats = np.array([u0.matrix @ expm(t * omega) @ B0.matrix for t in times])
    diag = flow_diagnostics(Trajectory(times, real8_from_matrix(mats)), EPS)
    assert diag["omega_deviation"] == pytest.approx(1e-3, rel=1e-9)


@pytest.mark.parametrize("epsilon", [-0.7, 0.2, 0.3])
def test_body_velocity_fails_a_flow_at_the_wrong_speed(epsilon):
    """A flow integrated at eps (1 + 1e-4) and diagnosed at eps turns 1e-4
    too fast; the body velocity sees that at spacing 0.05 and 1e-3 alike,
    above 1e-5."""
    for h in (0.05, 1e-3):
        traj, _ = free_flow(G0, epsilon * (1 + 1e-4), 1.0, StepControl(h=h, tol=1e-8))
        assert flow_diagnostics(traj, epsilon)["omega_deviation"] > 1e-5, h


@pytest.mark.parametrize("epsilon", [-0.7, 0.2, 0.3])
def test_closed_form_endpoint_fails_a_flow_at_the_wrong_speed(epsilon):
    """A t = 1 flow integrated at eps (1 + 1e-4) and diagnosed at eps ends
    about 1e-4 theta |B| away from the closed form, above 1e-7; the genuine
    flow ends within it."""
    def endpoint(eps):
        traj, _ = free_flow(G0, eps, 1.0, StepControl(h=0.05, tol=1e-8))
        return flow_diagnostics(traj, epsilon)["endpoint_deviation"]

    assert endpoint(epsilon) <= 1e-7 < endpoint(epsilon * (1 + 1e-4))


@pytest.mark.parametrize("epsilon", [-0.7, 0.2, 0.3])
def test_momentum_drift_fails_a_flow_whose_triangular_factor_moves(epsilon):
    """Right-multiplying every sample after the first by the unit-determinant
    diag(1 + 1e-5, 1 / (1 + 1e-5)) scales the triangular factor's rho by
    1 + 1e-5 and leaves the unitary factor alone: the B factor drifts past
    1e-6, while the determinant stays within 1e-8 and the body velocity
    within 1e-5.  The genuine flow keeps all three."""
    traj, _ = free_flow(G0, epsilon, 1.0, StepControl(h=0.05, tol=1e-8))
    mats = matrix_from_real8(traj.points)
    mats[1:] = mats[1:] @ np.diag([1 + 1e-5, 1 / (1 + 1e-5)])
    drifting = Trajectory(traj.times, real8_from_matrix(mats))
    within = (("b_factor_drift", 1e-6), ("det_residual", 1e-8), ("omega_deviation", 1e-5))
    for t, passes in ((traj, [True, True, True]), (drifting, [False, True, True])):
        diag = flow_diagnostics(t, epsilon)
        assert [diag[key] <= bound for key, bound in within] == passes


@pytest.mark.parametrize("n_samples", [0, 1])
def test_flow_diagnostics_need_two_samples(n_samples):
    """A trajectory of fewer than two samples has no interval to read a body
    velocity from: a ContractViolation that names the sample count, not
    numpy's error for an empty reduction."""
    points = np.repeat(real8_from_matrix(G0.matrix)[None], n_samples, axis=0)
    with pytest.raises(ContractViolation, match=f"got {n_samples}$"):
        flow_diagnostics(Trajectory(np.arange(n_samples, dtype=float), points), EPS)


def test_flow_diagnostics_reject_a_start_with_no_unitary_factor():
    """A first sample [[a, 0], [a, 1/a]] at a = 1.5e308 has determinant 1,
    but its first column's norm rho = hypot(a, a) is not a float, so it has
    no unitary factor: a NumericDomainError, with no numpy warning (which
    pytest makes an error)."""
    a = 1.5e308
    g = np.array([[a, 0.0], [a, 1.0 / a]])
    traj = Trajectory([0.0, 1.0], real8_from_matrix(np.array([g, g])))
    with pytest.raises(NumericDomainError, match="norm is not a finite float"):
        flow_diagnostics(traj, EPS)


@pytest.mark.parametrize("column", [(1.5e308, 1.5e308), (1.5e308j, 1e308 + 1e308j), (math.nan, 1.0)],
                         ids=["hypot", "abs", "nan"])
def test_iwasawa_rejects_a_column_norm_past_the_floats(column):
    """Finite first columns whose norm overflows (in the hypot of the two
    moduli, or already in a complex modulus), and a NaN one, are a
    NumericDomainError raised without a numpy warning, even where warnings
    are errors; the rest of a stack does not hide one."""
    stack = sample_unimodular(3, 4)
    stack[1, :, 0] = column
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericDomainError, match="norm is not a finite float"):
            iwasawa(stack)


def test_shrunk_steps_store_exactly_the_grid(monkeypatch):
    """rho 99 at epsilon 0.2 turns by 0.98 radian per sample spacing, and
    its starting step is too long for tol: the control rejects it and takes
    shorter ones.  The run still stores one sample per spacing (the capped
    stepper stored every shortened step: 64001 samples for t_end 1), and the
    body velocity read over the grid matches the closed form."""
    attempts = []
    dp_step = flow._dp_step

    def spy(rhs, y, h, k):
        y_new, est = dp_step(rhs, y, h, k)
        attempts.append(est)
        return y_new, est

    monkeypatch.setattr(flow, "_dp_step", spy)
    g0 = SL2CElement.from_matrix(SB2Element(99.0, 0.3 + 0.2j).matrix)
    traj, _ = free_flow(g0, 0.2, 0.02, StepControl(h=1e-3, tol=1e-8))
    assert attempts[0] > 1e-8 and len(attempts) > 2 * 20  # rejected, then shorter
    assert traj.times.shape == (21,) and traj.points.shape == (21, 8)
    assert np.array_equal(traj.times[:-1], np.cumsum([0.0] + [1e-3] * 19))
    assert traj.times[-1] == pytest.approx(0.02, abs=1e-17)
    assert flow_diagnostics(traj, 0.2)["omega_deviation"] < 1e-5


def test_free_flow_at_the_defaults_takes_at_most_two_steps(monkeypatch):
    """The first trial step comes from tol, not from the sample spacing: at
    the default start and step, tol 1e-8 and epsilon 0.2, the flow to t_end
    0.05 takes at most 2 Dormand-Prince attempts (4 when it started from the
    spacing 1e-3 and grew fivefold a step)."""
    attempts = []
    dp_step = flow._dp_step

    def spy(rhs, y, h, k):
        attempts.append(h)
        return dp_step(rhs, y, h, k)

    monkeypatch.setattr(flow, "_dp_step", spy)
    p = {name: param.default for name, param in su2.PARAMS.items()}
    traj, _ = free_flow(G0, 0.2, 0.05, StepControl(h=p["step"], tol=1e-8))
    assert traj.times.size == 51
    assert len(attempts) <= 2


@pytest.mark.parametrize("defect", [2e-9, math.nan])
def test_flow_diagnostics_reject_a_sample_off_the_slice(defect):
    """One sample whose determinant is 1 + 2e-9, or NaN, is a contract
    violation, as the per-sample element constructors made it."""
    traj, _ = free_flow(G0, EPS, 0.02, StepControl(h=1e-3, tol=1e-8))
    points = traj.points.copy()
    m = matrix_from_real8(points[5])
    m[0] *= 1.0 + defect  # scales the determinant by 1 + defect
    points[5] = real8_from_matrix(m)
    with pytest.raises(ContractViolation):
        flow_diagnostics(Trajectory(traj.times, points), EPS)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_random_unimodular_starts_conserve_det_and_b_factor(rho, n_re, n_im, epsilon):
    """From any triangular start rho, n_re + i n_im the free flow keeps the
    determinant and the triangular factor within the certificate's bounds."""
    g0 = SL2CElement.from_matrix(SB2Element(rho, complex(n_re, n_im)).matrix)
    traj, _ = free_flow(g0, epsilon, 0.05, StepControl(h=1e-3, tol=1e-8))
    diag = flow_diagnostics(traj, epsilon)
    assert diag["det_residual"] <= 1e-8
    assert diag["b_factor_drift"] <= 1e-6


def test_body_velocity_is_tracefree_and_flow_closed_form_unimodular():
    """omega is built from two entries, so it is traceless and
    anti-Hermitian exactly, and it is the matrix form's omega to rounding."""
    rng = np.random.default_rng(13)
    for _ in range(5):
        b = _random_sb2(rng)
        om = np.array(su2._free_motion(1.0, 0.0, b.rho, b.n, EPS, 1.7)[0])
        assert om[0, 0] + om[1, 1] == 0
        assert om[1, 0] == -np.conj(om[0, 1])
        np.testing.assert_allclose(om, _legendre_velocity(b, EPS), rtol=0, atol=1e-15)
        m = closed_form_flow(SU2Element(1.0, 0.0), b, EPS, 1.7)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_renormalization_rescues_off_slice_start():
    """A start with det - 1 ~ 2.5e-10 passes the constructor slack but sits
    beyond the renormalization trigger, so the first poststep snaps it back
    to the slice."""
    g = SL2CElement(1.4 * (1 + 2.5e-10), 0.3 + 0.2j, 0.0, 1 / 1.4)
    traj, n_renorm = free_flow(g, 0.2, 0.05, StepControl(h=1e-2, tol=1e-8))
    assert n_renorm >= 1
    m_end = matrix_from_real8(traj.points[-1])
    assert abs(np.linalg.det(m_end) - 1.0) < 1e-12


def test_renormalization_rescales_each_off_slice_state_alone(monkeypatch):
    """Along a run from the off-slice start above, the hook gets one state at
    a time: one within 1e-10 of the slice comes back as the same object (so
    the integrator reads it as unmoved), one beyond it as m / sqrt(det m),
    and free_flow counts the rescaled ones."""
    calls = []

    def spy(biv, H, x0, t_end, step):
        def hook(x):
            calls.append((x, step.poststep(x)))
            return calls[-1][1]
        return flow.integrate_flow(biv, H, x0, t_end, StepControl(step.h, step.tol, hook))

    monkeypatch.setattr(su2, "integrate_flow", spy)
    g = SL2CElement(1.4 * (1 + 2.5e-10), 0.3 + 0.2j, 0.0, 1 / 1.4)
    _, n_renorm = free_flow(g, 0.2, 0.05, StepControl(h=1e-2, tol=1e-8))
    rescaled = 0
    for x, out in calls:
        m = matrix_from_real8(x)
        det = su2._det(m)
        if abs(det - 1.0) > 1e-10:
            rescaled += 1
            assert out.tobytes() == real8_from_matrix(m / cmath.sqrt(det)).tobytes()
        else:
            assert out is x
    assert 1 <= rescaled == n_renorm < len(calls)


def test_closed_form_exponential_agrees_with_scipy():
    """exp(t omega) of the closed form against scipy's expm of t omega: at
    turns of order one entry by entry within 1e-14; at eps = 0, where theta t
    = 0 and sin(theta t)/theta is its limit t, exactly the identity; and at
    theta t from 1e-4 down to 1e-9, entry by entry relative to scipy."""
    for eps, t in ((EPS, 1.7), (-2.0, 3.1), (0.7, 0.4)):
        om, ex, _ = su2._free_motion(1.0, 0.0, B0.rho, B0.n, eps, t)
        np.testing.assert_allclose(np.array(ex), expm(t * np.array(om)), atol=1e-14)
    om, ex, _ = su2._free_motion(1.0, 0.0, B0.rho, B0.n, 0.0, 1.7)
    assert np.array_equal(np.array(ex), expm(1.7 * np.array(om))) and np.array_equal(ex, np.eye(2))
    om, _, _ = su2._free_motion(1.0, 0.0, B0.rho, B0.n, EPS, 0.0)
    theta = math.hypot(abs(om[0][0]), abs(om[0][1]))
    for turn in (1e-9, 1e-7, 1e-5, 1e-4):
        t = turn / theta
        om, ex, _ = su2._free_motion(1.0, 0.0, B0.rho, B0.n, EPS, t)
        np.testing.assert_allclose(np.array(ex), expm(t * np.array(om)), rtol=1e-14, atol=0)


@pytest.mark.parametrize("rho, n", [(1e160, 0.0), (1.0, 1e200j)])
def test_closed_form_rejects_a_turn_past_the_floats(rho, n):
    """At rho 1e160, or |n| 1e200, the body velocity overflows, and the
    closed form raises NumericDomainError instead of returning NaN."""
    with pytest.raises(NumericDomainError, match="theta t = inf"):
        closed_form_flow(SU2Element(1.0, 0.0), SB2Element(rho, n), 1.0, 1.0)


# --- momentum charts -------------------------------------------------------

def test_momentum_bivector_components():
    biv = momentum_bivector(0.4)
    q = np.array([0.7, 0.2, -0.5])
    # {zeta, w_re} = w_im, {zeta, w_im} = -w_re, {w_re, w_im} = sinh(2 eps zeta)/(2 eps)
    assert biv.matrix(q)[0, 1] == pytest.approx(-0.5, abs=1e-15)
    assert biv.matrix(q)[0, 2] == pytest.approx(-0.2, abs=1e-15)
    assert biv.matrix(q)[1, 2] == pytest.approx(np.sinh(0.8 * 0.7) / 0.8, abs=1e-15)
    # the undeformed limit degenerates to the linear structure
    flat = momentum_bivector(0.0)
    assert flat.matrix(q)[1, 2] == pytest.approx(0.7, abs=1e-15)


def test_linear_momentum_bivector_is_rotation_algebra():
    biv = linear_momentum_bivector()
    q = np.array([0.3, -0.8, 1.1])
    assert biv.matrix(q)[0, 1] == q[2]
    assert biv.matrix(q)[0, 2] == -q[1]
    assert biv.matrix(q)[1, 2] == q[0]
    assert jacobi_certificate(biv, n_points=25, seed=6).passed


def _rotation_components(epsilon, x, linear=False):
    """Test-local copy of the rotation brackets' former component formulas,
    each pair filled from the coordinate-leading view of a stack (..., 3):
    {0, 1} = x2, {0, 2} = -x1 and {1, 2} = x0 sinhc(2 eps x0), or x0 itself
    for the linear bracket."""
    c = np.moveaxis(x, -1, 0)
    top = c[0] if linear else c[0] * su2._sinhc(2.0 * epsilon * c[0])
    P = np.zeros(x.shape[:-1] + (3, 3), dtype=np.result_type(x, float))
    for (i, j), v in {(0, 1): c[2], (0, 2): -c[1], (1, 2): top}.items():
        P[..., i, j] = v
        P[..., j, i] = -v
    return P


@pytest.mark.parametrize("epsilon", [0.0, 0.3, -0.3, 3.0])
def test_rotation_brackets_are_one_so3_form(epsilon):
    """Both rotation brackets are the one so(3) form {x_i, x_j} = e_ijk v_k:
    value for value the former component formulas, on a real stack and on
    its complex-step copies; the linear bracket is the epsilon 0 momentum
    bracket under its own coordinate names."""
    X = np.random.default_rng(31).uniform(-su2._CUBE, su2._CUBE, size=(16, 3))
    Z = X[:, None, :] + 1j * bracket._CS_STEP * np.eye(3)
    mom, lin = momentum_bivector(epsilon), linear_momentum_bivector()
    assert mom.coord_names == su2.MOMENTUM_COORD_NAMES
    assert lin.coord_names == su2.LINEAR_COORD_NAMES
    for x in (X, Z):
        np.testing.assert_array_equal(mom.matrix(x), _rotation_components(epsilon, x))
        np.testing.assert_array_equal(lin.matrix(x), _rotation_components(0.0, x, linear=True))
        np.testing.assert_array_equal(lin.matrix(x), momentum_bivector(0.0).matrix(x))


def test_momentum_structures_satisfy_jacobi():
    for eps in (0.0, 0.4):
        cert = jacobi_certificate(momentum_bivector(eps), n_points=25, seed=7,
                                  box=(-1.0, 1.0))
        assert cert.passed and not cert.vacuous


def test_isomorphism_frozen_image():
    xyz = np.array([0.4, 0.1, 0.7])
    zw = momentum_isomorphism(xyz, 0.35)
    np.testing.assert_allclose(
        zw, [0.7, 0.40941504230527948, 0.10235376057631987], rtol=0, atol=1e-15)
    # at eps = 0 the charts differ only by the coordinate permutation
    np.testing.assert_array_equal(momentum_isomorphism(xyz, 0.0), [0.7, 0.4, 0.1])


def test_isomorphism_smooth_through_the_axis():
    """The rescaling factor just off the axis x = y = 0 joins its value
    further out continuously, and points on the axis map onto it."""
    f_near = momentum_isomorphism(np.array([1e-5, 0.0, 0.7]), 0.35)[1] / 1e-5
    f_far = momentum_isomorphism(np.array([1e-3, 0.0, 0.7]), 0.35)[1] / 1e-3
    assert f_near == pytest.approx(f_far, rel=1e-6)
    on_axis = momentum_isomorphism(np.array([0.0, 0.0, 0.7]), 0.35)
    np.testing.assert_allclose(on_axis, [0.7, 0.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("epsilon", [0.35, -0.7, 3.0])
@pytest.mark.parametrize("z", [0.7, -0.3])
def test_chart_factor_on_and_near_the_axis_is_its_limit(z, epsilon):
    """As x, y -> 0 the factor tends to sqrt(sinh(2 eps z) / (2 eps z)); it
    takes that value on the axis and at x = y = 1e-9."""
    limit = math.sqrt(math.sinh(2.0 * epsilon * z) / (2.0 * epsilon * z))
    assert su2._chart_factor(0.0, z, epsilon) == pytest.approx(limit, rel=1e-15, abs=0)
    _, w_re, w_im = momentum_isomorphism(np.array([1e-9, 1e-9, z]), epsilon)
    assert w_re / 1e-9 == pytest.approx(limit, rel=1e-15, abs=0)
    assert w_im / 1e-9 == pytest.approx(limit, rel=1e-15, abs=0)


@pytest.mark.parametrize("epsilon", [0.2, 0.35, -0.7, 3.0])
def test_chart_factor_off_the_axis_matches_the_direct_formula(epsilon):
    """Away from the axis the difference (sinh^2(eps r) - sinh^2(eps z)) /
    (r^2 - z^2) loses little to cancellation, so it serves as the reference."""
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 200:
        x, y, z = rng.uniform(-1.2, 1.2, 3)
        s2 = x * x + y * y
        if s2 < 1e-2:
            continue
        r = math.sqrt(s2 + z * z)
        direct = math.sqrt((math.sinh(epsilon * r) ** 2 - math.sinh(epsilon * z) ** 2) / s2)
        got = momentum_isomorphism(np.array([x, y, z]), epsilon)
        assert got[1] / x == pytest.approx(direct / abs(epsilon), rel=1e-12, abs=0)
        checked += 1


@pytest.mark.parametrize("epsilon", [0.35, -0.7, 5.0])
def test_isomorphism_jacobian_matches_central_difference(epsilon):
    """The chart map is complex-safe: its complex-step Jacobian matches a
    test-local central difference, at points of the certificate's cube and
    on the plane z = 0, where |z| continues by the sign of Re z."""
    rng = np.random.default_rng(19)
    h = 1e-6
    for _ in range(10):
        p = rng.uniform(-su2._CUBE, su2._CUBE, 3)
        for q in (p, p * [1.0, 1.0, 0.0]):
            cs = bracket._complex_step(lambda v: momentum_isomorphism(v, epsilon), q)
            cd = np.array([(momentum_isomorphism(q + e, epsilon) - momentum_isomorphism(q - e, epsilon)) / (2 * h)
                           for e in h * np.eye(3)])
            np.testing.assert_allclose(cs, cd, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("seed", [0, 7])
def test_certificate_structure_checks_pass_at_epsilon_5(seed):
    """The complex-step derivative has no step to trade against eps: at
    eps 5 the group bracket's Jacobi check and the momentum isomorphism's
    volume PASS."""
    checks = {c.name: c for c in cli.su2_certificate(5.0, seed, CERT_POINTS)}
    assert checks["jacobi_group"].passed
    assert checks["isomorphism_volume"].passed


def test_casimir_pulls_back_to_radius_function():
    rng = np.random.default_rng(21)
    for _ in range(20):
        xyz = rng.uniform(-1.2, 1.2, 3)
        r = np.linalg.norm(xyz)
        zw = momentum_isomorphism(xyz, 0.35)
        want = (np.sinh(0.35 * r) / 0.35) ** 2
        assert casimir_radius_squared(zw, 0.35) == pytest.approx(want, rel=1e-12)


def _bits(a):
    """The raw bits of a real or complex array, so -0.0 differs from +0.0."""
    a = np.asarray(a)
    return np.stack([a.real.view(np.uint64), np.imag(a).view(np.uint64)])


@pytest.mark.parametrize("epsilon", [0.0, 0.35, -0.7, 10.0])
def test_stacked_chart_maps_and_flow_rhs_are_each_points_alone(epsilon):
    """momentum_isomorphism, casimir_radius_squared, flow_rhs and the trace
    energy of a stack are, bit for bit, each point's value alone, on the
    axis, at the origin and at the complex-step points the Jacobian reads."""
    p = np.random.default_rng(29).uniform(-su2._CUBE, su2._CUBE, size=(40, 3))
    p[0, :2] = 0.0
    p[1] = 0.0
    z = p[:, None, :] + 1j * bracket._CS_STEP * np.eye(3)
    img = momentum_isomorphism(p, epsilon)
    shifted = momentum_isomorphism(z, epsilon)
    cas = casimir_radius_squared(img, epsilon)
    mats = sample_unimodular(40, seed=5)
    rhs = flow_rhs(mats, epsilon)
    g8, H = real8_from_matrix(mats), free_hamiltonian_field()
    energy = 0.5 * su2._squared_norm(g8)
    assert img.shape == (40, 3) and shifted.shape == (40, 3, 3) and cas.shape == (40,)
    for k in range(40):
        np.testing.assert_array_equal(_bits(img[k]), _bits(momentum_isomorphism(p[k], epsilon)))
        np.testing.assert_array_equal(_bits(shifted[k]), _bits(momentum_isomorphism(z[k], epsilon)))
        np.testing.assert_array_equal(_bits(cas[k]), _bits(casimir_radius_squared(img[k], epsilon)))
        np.testing.assert_array_equal(_bits(rhs[k]), _bits(flow_rhs(mats[k], epsilon)))
        np.testing.assert_array_equal(_bits(energy[k]), _bits(H.fn(g8[k])))


def _per_point_isomorphism_deviation(epsilon, n_points, seed):
    """Test-local reference: the isomorphism checks one point at a time, each
    drawn alone, with LAPACK's determinant for the volume and the math
    module's sinh and sqrt for the Casimir.  Returns the worst volume and
    Casimir defects and the largest entry each is measured against; both
    defects are relative, so their scales are 1."""
    rng = np.random.default_rng(seed)
    vol, cas = [], []
    for _ in range(n_points):
        p = rng.uniform(-su2._CUBE, su2._CUBE, size=3)
        r = float(np.linalg.norm(p))
        img = momentum_isomorphism(p, epsilon)
        det = np.linalg.det(bracket._complex_step(lambda q: momentum_isomorphism(q, epsilon), p))
        dh = math.sinh(2.0 * epsilon * r) / (2.0 * epsilon * r) if epsilon else 1.0
        vol.append(abs(det - dh) / (dh * (1.0 + abs(epsilon) * r)))
        big_r = math.sqrt(casimir_radius_squared(img, epsilon))
        if epsilon:
            exact = math.sinh(epsilon * r)
            cas.append(abs(epsilon * big_r - exact) / (abs(exact) * (1.0 + abs(epsilon) * r)))
        else:
            cas.append(abs(big_r - r) / r)
    return max(vol), max(cas), 1.0, 1.0


def _per_point_dual_path_deviation(epsilon, n_points, seed):
    """Test-local reference: the two routes to the free dynamics one
    unimodular point at a time.  Returns the worst gap and the largest
    entry of the matrix route."""
    biv, energy = sl2c_bivector(epsilon), free_hamiltonian_field()
    gaps, scale = [], 0.0
    rng = np.random.default_rng(seed)
    for _ in range(n_points):
        g = _random_sl2c(rng)
        via_matrix = real8_from_matrix(flow_rhs(g.matrix, epsilon))
        x = real8_from_matrix(g.matrix)
        gaps.append(np.max(np.abs(hamiltonian_vector_field(biv, energy, x) - via_matrix)))
        scale = max(scale, float(np.max(np.abs(via_matrix))))
    return max(gaps), scale


@pytest.mark.parametrize("epsilon", [0.0, 0.1, -0.1, 1.0, 5.0, 10.0])
def test_stacked_certificate_checks_match_their_per_point_references(epsilon):
    """The isomorphism and dual-path checks of the certificate agree with
    their per-point references to 1e-15 of the largest entry they measure
    (the volume's triple product with LAPACK's determinant to 4.5 u), and
    the reference values give the certificate's verdicts."""
    seed = 7
    checks = {c.name: c for c in cli.su2_certificate(epsilon, seed, CERT_POINTS)}
    vol, cas, vol_scale, cas_scale = _per_point_isomorphism_deviation(epsilon, CERT_POINTS, seed + 4)
    dual, dual_scale = _per_point_dual_path_deviation(epsilon, CERT_POINTS, seed + 3)
    for name, ref, scale in (("isomorphism_volume", vol, vol_scale),
                             ("isomorphism_casimir", cas, cas_scale),
                             ("dual_path_dynamics", dual, dual_scale)):
        check = checks[name]
        assert abs(check.value - ref) <= 1e-15 * scale, name
        assert check.passed == (ref < check.threshold), name


# --- energy normalizations -------------------------------------------------

def test_energy_relations_roundtrip_from_each_input():
    er = energy_relations(0.2, classical=0.5)
    for kwargs in ({"trace": er.trace}, {"radius2": er.radius2},
                   {"classical": er.classical}):
        again = energy_relations(0.2, **kwargs)
        assert again.classical == pytest.approx(0.5, abs=1e-12)
        assert again.trace == pytest.approx(er.trace, abs=1e-12)
        assert again.normalized == pytest.approx(er.normalized, abs=1e-12)


def test_energy_relations_identities():
    er = energy_relations(0.2, classical=0.5)
    r = np.sqrt(2 * er.classical)
    assert er.trace == pytest.approx(np.cosh(2 * 0.2 * r), abs=1e-14)
    assert er.radius2 == pytest.approx((np.sinh(0.2 * r) / 0.2) ** 2, abs=1e-13)
    assert er.normalized == pytest.approx(er.radius2 / 2, abs=1e-15)


def test_energy_relations_domain_errors():
    with pytest.raises(ContractViolation):
        energy_relations(0.2)  # no input
    with pytest.raises(ContractViolation):
        energy_relations(0.2, trace=1.2, classical=0.5)  # two inputs
    with pytest.raises(NumericDomainError):
        energy_relations(0.2, trace=0.5)  # below the minimum on the group
    with pytest.raises(NumericDomainError):
        energy_relations(0.0, trace=1.5)  # degenerate at eps = 0
    flat = energy_relations(0.0, classical=0.8)
    assert flat.normalized == flat.classical == 0.8


def test_classical_limit_deviation_frozen_value():
    # deviation |normalized - classical| at eps = 0.2, classical = 0.5; the
    # leading term eps^2 r^4 / 6 with r^2 = 1 predicts 0.00667
    got = su2.classical_limit_deviation(0.2)
    assert got == pytest.approx(0.006702323990342651, rel=1e-12)
    d1 = su2.classical_limit_deviation(0.01)
    d2 = su2.classical_limit_deviation(0.02)
    assert d2 / d1 == pytest.approx(4.0, rel=0.01)


def test_hamiltonian_field_is_trace_energy():
    """The flow generator is half the squared Frobenius norm of the matrix,
    with its exact gradient."""
    x = real8_from_matrix(G0.matrix)
    H = free_hamiltonian_field()
    assert H.fn(x) == pytest.approx(free_energy(G0.matrix), abs=1e-15)
    np.testing.assert_array_equal(H.gradient(x), x)
