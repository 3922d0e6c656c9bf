"""Group-chart model: factorization, bracket tables, free flow, and the two
momentum charts."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm, logm

from poismech import bracket
from poismech.bracket import hamiltonian_vector_field, jacobi_certificate, pushforward_bivector
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
    expm2,
    flow_diagnostics,
    flow_rhs,
    free_energy,
    free_flow,
    free_hamiltonian_field,
    iwasawa,
    legendre_velocity,
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


# --- bracket tables and realification -------------------------------------

def sl2c_bracket_table(g, epsilon):
    """All pairwise brackets among entries and conjugate entries at ``g``,
    from the package's tables ``u = {z_k, z_l}`` and ``v = {z_k, conj z_l}``
    (over ``i eps``).  Keys are pairs of labels from ``a, b, c, d, a*, b*,
    c*, d*`` (star marks conjugation), ordered as listed."""
    letters = ("a", "b", "c", "d")
    u, v = su2._uv_tables(g.a, g.b, g.c, g.d)
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


def test_entry_brackets_at_identity():
    tab = sl2c_bracket_table(SL2CElement(1, 0, 0, 1), EPS)
    assert tab[("b", "c")] == pytest.approx(2j * EPS, abs=1e-16)
    assert tab[("a", "a*")] == pytest.approx(-1j * EPS, abs=1e-16)
    assert tab[("b", "b*")] == pytest.approx(-4j * EPS, abs=1e-16)
    assert tab[("a", "d")] == 0.0
    assert tab[("a", "c*")] == 0.0


def test_entry_brackets_scale_linearly_in_epsilon():
    g = _random_sl2c(np.random.default_rng(2))
    t1 = sl2c_bracket_table(g, 0.1)
    t2 = sl2c_bracket_table(g, 0.2)
    for key, v in t1.items():
        assert t2[key] == pytest.approx(2.0 * v, abs=1e-15)


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
    """Compare the packaged realification against the complex entry tables."""
    rng = np.random.default_rng(9)
    biv = sl2c_bivector(EPS)
    for _ in range(5):
        g = _random_sl2c(rng)
        np.testing.assert_allclose(biv.matrix(real8_from_matrix(g.matrix)),
                                   _realified_table(g, EPS), atol=1e-13)


@pytest.mark.parametrize("epsilon", [EPS, -1.7, 1e-3])
def test_polarized_matrix_matches_table_and_is_exactly_antisymmetric(epsilon):
    """P(x) comes from the polarized coefficient matrix; it must agree with
    the table formula to rounding and be antisymmetric bit for bit."""
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
        want = epsilon * su2._unit_upper(x)
        assert np.max(np.abs(np.triu(got, 1) - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.array_equal(got, -got.T)


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
    assert traj.h_drift < 1e-10


def test_trajectory_artifact_splits_each_sample_once(monkeypatch):
    """The rho/n columns and the flow diagnostics each split the whole
    trajectory in one stacked call, so the number of Iwasawa calls does not
    grow with the sample count, and the summary is flow_diagnostics."""
    calls = []

    def counting(g):
        calls.append(len(g))
        return iwasawa(g)

    monkeypatch.setattr(su2, "iwasawa", counting)
    per_run = []
    for t_end, n_rows in ((0.1, 101), (0.2, 201)):
        params = {name: p.default for name, p in su2.PARAMS.items()}
        params.update(epsilon=0.2, t_end=t_end)
        calls.clear()
        data = su2.MODEL.artifacts["trajectory"](params)
        assert len(data.columns["t"]) == n_rows
        assert set(calls) == {n_rows}
        per_run.append(len(calls))
        traj, _ = su2._flow(params)
        want = flow_diagnostics(traj, 0.2)
        assert {k: data.summary[k] for k in want} == want
    assert per_run[0] == per_run[1]


def _reference_diagnostics(traj, epsilon):
    """flow_diagnostics read out one sample at a time: an SL2CElement per
    sample (whose constructor checks the determinant), split into an
    SU2Element and an SB2Element, and scipy's matrix logarithm of
    u_k^H u_{k+1} per interval for the body velocity."""
    def split(g):
        rho = math.hypot(abs(g.a), abs(g.c))
        alpha, gamma = g.a / rho, g.c / rho
        return SU2Element(alpha, gamma), SB2Element(rho, np.conj(alpha) * g.b + np.conj(gamma) * g.d)

    mats = np.array([matrix_from_real8(p) for p in traj.points])
    factors = [split(SL2CElement.from_matrix(m)) for m in mats]
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    u0, b0 = factors[0]
    omega = legendre_velocity(b0, epsilon)
    us = [u.matrix for u, _ in factors]
    dts = np.diff(traj.times)
    omega_dev = max(float(np.max(np.abs(logm(us[i].conj().T @ us[i + 1]) / dt - omega)))
                    for i, dt in enumerate(dts))
    end = closed_form_flow(u0, b0, epsilon, float(traj.times[-1]))
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


# the certificate's default start and its energy
CERT_START = su2._start(*(su2.PARAMS[k].default for k in ("rho", "n_re", "n_im")))
CERT_H = free_energy(CERT_START.matrix)


@pytest.mark.parametrize("epsilon", [-0.7, 0.2, 0.3])
def test_body_velocity_fails_a_flow_at_the_wrong_speed(epsilon):
    """A flow integrated at eps (1 + 1e-4) and diagnosed at eps turns 1e-4
    too fast; the body velocity sees that at the certificate's step and at
    1e-3 alike, above the certificate's threshold."""
    threshold = next(c.threshold for c in cli.su2_certificate(epsilon, 0, 1)
                     if c.name == "flow_body_velocity")
    for h in (su2._certificate_step(epsilon, CERT_H), 1e-3):
        traj, _ = free_flow(CERT_START, epsilon * (1 + 1e-4), 1.0, StepControl(h=h, tol=1e-8))
        assert flow_diagnostics(traj, epsilon)["omega_deviation"] > threshold, h


def _certificate_steps(monkeypatch, epsilon):
    """Sample intervals of the certificate's flow, one per sample spacing,
    and its checks."""
    steps = []

    def counting(*args, **kwargs):
        traj, n_renorm = free_flow(*args, **kwargs)
        steps.append(len(traj.times) - 1)
        return traj, n_renorm

    monkeypatch.setattr(su2, "free_flow", counting)
    checks = cli.su2_certificate(epsilon, 0, 1)
    (n_steps,) = steps
    return n_steps, {c.name: c for c in checks}


@pytest.mark.parametrize("epsilon", [0.1, 0.15, 0.2, 0.25, 0.3, -0.2])
def test_certificate_flow_takes_its_step_from_the_turn(monkeypatch, epsilon):
    """At |eps| in [0.1, 0.3] the certificate's flow to t = 1 turns by at
    most 1/80 radian per sample interval and stores at most 40 of them, and
    every flow check PASSes."""
    n_steps, checks = _certificate_steps(monkeypatch, epsilon)
    assert 20 <= n_steps <= 40
    assert abs(epsilon) * CERT_H * su2._certificate_step(epsilon, CERT_H) <= 1 / 80
    assert all(c.passed for name, c in checks.items() if name.startswith("flow_"))


@pytest.mark.parametrize("epsilon", [0.0, 5.0, 10.0, 40.0])
def test_certificate_step_is_between_its_bounds(monkeypatch, epsilon):
    """The sample spacing is 0.05 where the flow stands still and never
    below 1e-3, so the flow stores at most 1001 samples; the body velocity
    PASSes the correct flow at eps 5, 10 and 40."""
    h = su2._certificate_step(epsilon, CERT_H)
    assert h == (0.05 if epsilon == 0.0 else max(1e-3, 1 / 80 / (epsilon * CERT_H)))
    n_steps, checks = _certificate_steps(monkeypatch, epsilon)
    assert n_steps <= 1000
    assert checks["flow_body_velocity"].passed


# the one renormalization of this run moves H (4900) by about 1e-10 H, far
# past the drift bound 10 tol t_end of so short a run, with either stepper
@pytest.mark.filterwarnings("ignore:hamiltonian drift")
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
    the default start, tol and step and epsilon 0.2, the flow to t_end 0.05
    takes at most 2 Dormand-Prince attempts (4 when it started from the
    spacing 1e-3 and grew fivefold a step)."""
    attempts = []
    dp_step = flow._dp_step

    def spy(rhs, y, h, k):
        attempts.append(h)
        return dp_step(rhs, y, h, k)

    monkeypatch.setattr(flow, "_dp_step", spy)
    p = {name: param.default for name, param in su2.PARAMS.items()}
    traj, _ = free_flow(su2._start(p["rho"], p["n_re"], p["n_im"]), 0.2, 0.05,
                        StepControl(h=p["step"], tol=p["tol"]))
    assert traj.times.size == 51
    assert len(attempts) <= 2


class _FirstAttempt(Exception):
    """Raised by a spy to stop a flow after its first Dormand-Prince attempt."""


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 2.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), st.sampled_from([-1.0, 1.0]), st.floats(0.05, 1.0), st.booleans())
def test_first_trial_step_turns_the_state_within_the_stated_bound(
        log_rho, log_spread, n_re, n_im, log_eps, sign, turn_per_sample, tol_per_entry):
    """Over starts that su2's config check accepts, drawn in the ranges of
    the comment above su2._MAX_TURN (at 100 samples, tol 1e-8 or 0.01 S),
    the first trial step turns the state by at most 1.01 theta min(t_end,
    |y0| / |f0|), which is at most 1.01 sqrt(8) radians, and its stage
    states stay within 1.5 S, S the start's largest entry."""
    rho, spread, epsilon = math.exp(log_rho), math.exp(log_spread), sign * math.exp(log_eps)
    b = SB2Element(rho, complex(spread * n_re, spread * n_im))
    energy = float(free_energy(b.matrix))
    entry = max(rho, 1.0 / rho, abs(b.n.real), abs(b.n.imag))
    step = turn_per_sample / (abs(epsilon) * energy)
    params = {"epsilon": epsilon, "rho": rho, "n_re": b.n.real, "n_im": b.n.imag,
              "step": step, "t_end": 100 * step, "tol": 0.01 * entry if tol_per_entry else 1e-8}
    try:
        p = cli.validate_config({"model": "su2", "params": params}).params
    except ConfigError:
        assume(False)
    dp_step = flow._dp_step

    def stop(rhs, y, h, k):
        dp_step(rhs, y, h, k)
        raise _FirstAttempt(y, h, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "_dp_step", stop)
        with pytest.raises(_FirstAttempt) as first:
            su2._flow(p)
    y0, h, k = first.value.args
    theta = abs(epsilon) * math.sqrt(max(energy * energy - 1.0, 0.0))
    # the identity start stands still: no velocity, no turn
    cap = theta and theta * np.max(np.abs(y0)) / np.max(np.abs(k[0]))
    assert cap <= math.sqrt(8.0) * (1 + 1e-12)
    assert h * theta <= min(theta * p["t_end"], 1.01 * cap) * (1 + 1e-12)
    stages = [y0 + h * (row @ k[:len(row)]) for row in flow._STAGE_ROWS[1:]]
    assert max(np.max(np.abs(y)) for y in stages) <= 1.5 * entry


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
    rng = np.random.default_rng(13)
    for _ in range(5):
        b = _random_sb2(rng)
        om = legendre_velocity(b, EPS)
        assert abs(om[0, 0] + om[1, 1]) < 1e-14
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


def _with_renorm(monkeypatch, use):
    """``use(renorm)`` on free_flow's determinant hook, run in place of the
    integration; its result and the rescalings free_flow counts."""
    out = []

    def stub(biv, H, x0, t_end, step):
        out.append(use(step.poststep))
        return Trajectory([0.0], x0[None])

    monkeypatch.setattr(su2, "integrate_flow", stub)
    _, n_renorm = free_flow(G0, EPS, 1.0, StepControl(h=1e-3, tol=1e-8))
    return out[0], n_renorm


def test_renormalization_of_a_stack_is_each_row_alone(monkeypatch):
    """The hook rescales only the states of a stack that are off the slice,
    each to the bits it gets alone, and counts one event per rescaled state;
    with none off, it returns its input as the same object."""
    on = real8_from_matrix(sample_unimodular(12, 5))
    stack = on.copy()
    off = np.array([1, 4, 5, 11])
    stack[off] *= 1.0 + np.array([3e-10, -2e-9, 1e-6, 5e-11])[:, None]
    stacked, n_stacked = _with_renorm(monkeypatch, lambda renorm: renorm(stack))
    alone, n_alone = _with_renorm(monkeypatch, lambda renorm: [renorm(x) for x in stack])
    assert n_stacked == n_alone == off.size
    assert stacked.shape == stack.shape
    for x, row, single in zip(stack, stacked, alone):
        assert row.tobytes() == single.tobytes()
        m = matrix_from_real8(x)
        rescaled = real8_from_matrix(m / cmath.sqrt(su2._det(m)))  # the one-state rule
        assert row.tobytes() == (rescaled if abs(su2._det(m) - 1.0) > 1e-10 else x).tobytes()
    assert np.array_equal(np.flatnonzero(np.any(stacked != stack, axis=1)), off)
    dets = su2._det(matrix_from_real8(stacked))
    assert np.all(np.abs(dets - 1.0) <= 1e-12)
    one = on[3]
    same, n_same = _with_renorm(monkeypatch, lambda renorm: (renorm(on) is on, renorm(one) is one))
    assert same == (True, True) and n_same == 0


def test_expm2_agrees_with_scipy():
    m = np.array([[0.3 + 0.1j, -0.2j], [0.5, -0.1 + 0.4j]])
    np.testing.assert_allclose(expm2(m), expm(m), atol=1e-14)
    # nilpotent: theta = 0 exactly, where sinh(theta)/theta is its limit 1
    n = np.array([[1e-6, 1e-6], [-1e-6, -1e-6]])
    np.testing.assert_allclose(expm2(n), expm(n), atol=1e-18)
    # small complex theta, entry by entry relative to scipy
    p = np.array([[0.6, 0.8], [0.8, -0.6]])  # traceless, -det p = 1
    for scale in (1e-9, 1e-5, 1e-4):
        m = (0.2 + 0.3j) * np.eye(2) + scale * (0.6 + 0.8j) * p
        np.testing.assert_allclose(expm2(m), expm(m), rtol=1e-14, atol=0)


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
    pushforward PASS."""
    checks = {c.name: c for c in cli.su2_certificate(5.0, seed, CERT_POINTS)}
    assert checks["jacobi_group"].passed
    assert checks["isomorphism_pushforward"].passed


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
    axis, at the origin and at the complex-step points a pushforward reads."""
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
        np.testing.assert_array_equal(_bits(energy[k]), _bits(H(g8[k])))


def _per_point_isomorphism_deviation(epsilon, n_points, seed):
    """Test-local reference: the isomorphism checks one point at a time, each
    drawn alone, with the math module's sinh and sqrt for the Casimir.
    Returns the worst pushforward and Casimir defects and the largest entry
    each is measured against."""
    rng = np.random.default_rng(seed)
    lin, mom = linear_momentum_bivector(), momentum_bivector(epsilon)
    push, cas, push_scale, cas_scale = [], [], 0.0, 0.0
    for _ in range(n_points):
        p = rng.uniform(-su2._CUBE, su2._CUBE, size=3)
        r = float(np.linalg.norm(p))
        img = momentum_isomorphism(p, epsilon)
        got = pushforward_bivector(lin, lambda q: momentum_isomorphism(q, epsilon), p)
        want = mom.matrix(img)
        push.append(np.max(np.abs(got - want)))
        big_r = math.sqrt(casimir_radius_squared(img, epsilon))
        exact = math.sinh(epsilon * r) if epsilon else r
        cas.append(abs(epsilon * big_r - exact) if epsilon else abs(big_r - r))
        push_scale = max(push_scale, float(np.max(np.abs(want))))
        cas_scale = max(cas_scale, abs(exact))
    return max(push), max(cas), push_scale, cas_scale


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
    their per-point references to 1e-15 of the largest entry they measure,
    and the reference values give the certificate's verdicts."""
    seed = 7
    checks = {c.name: c for c in cli.su2_certificate(epsilon, seed, CERT_POINTS)}
    push, cas, push_scale, cas_scale = _per_point_isomorphism_deviation(epsilon, CERT_POINTS,
                                                                        seed + 4)
    dual, dual_scale = _per_point_dual_path_deviation(epsilon, CERT_POINTS, seed + 3)
    for name, ref, scale in (("isomorphism_pushforward", push, push_scale),
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
    assert H(x) == pytest.approx(free_energy(G0.matrix), abs=1e-15)
    np.testing.assert_array_equal(H.gradient(x), x)
