"""End-to-end acceptance checks, one per shipped guarantee.

Each test is a single pass/fail gate with its tolerance written next to the
assertion; run with -v to get one line per criterion.
"""
import functools
import json

import numpy as np
import pytest

from poismech.bracket import (
    ScalarField,
    coordinate_field,
    eval_bracket,
    jacobi_certificate,
    pushforward_bivector,
)
from poismech.cli import MODELS, main as cli_main
from poismech.fitting import collinearity_residual, fit_loglog_slope
from poismech.flow import StepControl, integrate_flow
from poismech.generators import AbelianRSpec, translation
from poismech.groupoid import canonical_bivector, project_trajectory, shifted_bivector
from poismech import kappa as kappa_model
from poismech import minkowski2d as mink_model
from poismech import su2 as su2_model
from poismech.su2 import (
    SB2Element,
    SL2CElement,
    dual_path_deviation,
    energy_pipeline_deviation,
    energy_relations,
    flow_diagnostics,
    flow_rhs,
    free_flow,
    isomorphism_deviation,
    linear_momentum_bivector,
    momentum_bivector,
    momentum_isomorphism,
)

EPS = 0.2
B_START = SB2Element(1.4, 0.3 + 0.2j)
G_START = SL2CElement.from_matrix(B_START.matrix)


@pytest.fixture(scope="module")
def reference_flow():
    traj, _ = free_flow(G_START, EPS, 5.0, StepControl(h=1e-3, tol=1e-8))
    return traj


def test_criterion_01_jacobi_certificates():
    """Every bracket a model declares passes a randomized Jacobi check at
    epsilon 0.2 and its model's defaults: max residual below 1e-6 over 100
    seeded points of the unit box, all coordinate triples.  The planar
    product deformation has no triple and certifies vacuously; the other six
    structures (both shifted ones among them) are checked in earnest."""
    shipped = [b.build({**{k: p.default for k, p in model.params.items()}, "epsilon": EPS})
               for model in MODELS.values() for b in model.brackets.values()]
    certs = [jacobi_certificate(biv, n_points=100, seed=k, box=(0.0, 1.0))
             for k, biv in enumerate(shipped)]
    assert all(c.passed for c in certs)
    earnest = [c for c in certs if not c.vacuous]
    assert len(shipped) == 7 and len(earnest) == 6
    assert max(c.max_residual for c in earnest) < 1e-6


def test_criterion_02_group_flow_conservation(reference_flow):
    """The free flow on the group chart (deformation 0.2, horizon 5, step
    tolerance 1e-8) keeps the determinant within 1e-8, the triangular-factor
    momenta within 1e-6, and the measured body angular velocity within 1e-5
    of its constant closed form; at horizon 1 the endpoint is within 1e-7 of
    the one-exponential solution."""
    diag = flow_diagnostics(reference_flow, EPS)
    assert diag["det_residual"] < 1e-8
    assert diag["b_factor_drift"] < 1e-6
    assert diag["omega_deviation"] < 1e-5
    short, _ = free_flow(G_START, EPS, 1.0, StepControl(h=1e-3, tol=1e-8))
    assert flow_diagnostics(short, EPS)["endpoint_deviation"] < 1e-7


def test_criterion_03_unitary_states_are_equilibria():
    """States with trivial triangular factor sit at the energy floor and do
    not move: the right-hand side vanishes to 1e-12."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        u = su2_model.SU2Element(complex(v[0], v[1]), complex(v[2], v[3]))
        worst = max(worst, float(np.max(np.abs(flow_rhs(u.matrix, EPS)))))
    assert worst < 1e-12


def test_criterion_04_energy_relations_and_pipeline(reference_flow):
    """Conversions among the trace, classical, and squared-radius energies
    round-trip to 1e-12, and along a flow the conserved trace energy equals
    cosh(2 eps sqrt(2 h)) of the classical energy within 1e-6."""
    for h0 in (0.1, 0.5, 2.0):
        er = energy_relations(EPS, classical=h0)
        for kwargs in ({"trace": er.trace}, {"radius2": er.radius2}):
            assert abs(energy_relations(EPS, **kwargs).classical - h0) < 1e-12

    assert energy_pipeline_deviation(reference_flow.points, EPS) < 1e-6


def test_criterion_05_momentum_isomorphism():
    """The chart map from the linear momentum space to the deformed one
    intertwines the two bivectors to 1e-5 (complex-step pushforward at
    100 seeded points of the whole cube, axis and origin included: the chart
    factor is one closed formula), its Jacobian determinant is the deformed
    volume sinhc(2 eps r) to the certificate's rule, and the radius Casimirs
    correspond exactly: eps R = sinh(eps r) to 1e-12."""
    p = np.random.default_rng(23).uniform(-su2_model._CUBE, su2_model._CUBE, size=(100, 3))
    phi = functools.partial(momentum_isomorphism, epsilon=EPS)
    push = pushforward_bivector(linear_momentum_bivector(), phi, p)
    worst_push = np.max(np.abs(push - momentum_bivector(EPS).matrix(phi(p))))
    worst_volume, worst_cas = isomorphism_deviation(EPS, n_points=100, seed=23)
    assert worst_push < 1e-5
    assert worst_volume < su2_model._VOLUME_TOL
    assert worst_cas < 1e-12


def test_criterion_06_planar_shape_and_scattering():
    """Sampled hyperbola branches satisfy their defining invariant to 1e-12;
    the numeric asymptotic velocities match the closed-form scattering map
    within 1e-6 over a 5x5 parameter grid; and the velocity shift is odd in
    the impact parameter, both for the numeric limits and in closed form."""
    spec = mink_model.Minkowski2DSpec(EPS, 1.0)
    grid = 1.0 + np.linspace(0.2, 3.0, 25)
    pts = mink_model.hyperbola_curve(spec, 1.0, -1.0, grid)
    assert mink_model.hyperbola_residual(spec, 1.0, -1.0, pts) < 1e-12

    alphas, betas = np.linspace(-0.6, 0.6, 5), np.linspace(-2.0, 2.0, 5)
    worst, worst_odd = mink_model.scattering_check(spec, alphas, betas)
    assert worst < 1e-6
    assert worst_odd < 1e-12
    for alpha in alphas:
        for beta in betas:
            closed = mink_model.scattering_data(spec, alpha, beta)
            flip = mink_model.scattering_data(spec, alpha, -beta)
            shift = closed[1] - closed[0]
            assert abs(shift + (flip[1] - flip[0])) < 1e-12


def test_criterion_07_translation_deformation_witness():
    """With two translation generators and kinetic energy |p|^2 the deformed
    projections of free trajectories stay affine (collinearity residual
    below 1e-9) and every momentum component commutes with the energy under
    the shifted bracket to 1e-7 at 100 random points."""
    X1, X2 = translation([1.0, 0.0]), translation([0.0, 1.0])
    r = AbelianRSpec(0.3, X1, X2)
    can = canonical_bivector(2)
    H = ScalarField(fn=lambda s: s[2] ** 2 + s[3] ** 2,
                    grad=lambda s: np.array([0.0, 0.0, 2.0 * s[2], 2.0 * s[3]]))
    traj = integrate_flow(can, H, np.array([0.3, -0.2, 0.7, 0.4]), 4.0,
                          StepControl(h=1e-2, tol=1e-8))
    for side in ("left", "right"):
        assert collinearity_residual(project_trajectory(r, traj, side).points) < 1e-9

    shifted = shifted_bivector(r)
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(100):
        s = rng.uniform(-1.0, 1.0, 4)
        for k in (2, 3):
            worst = max(worst, abs(eval_bracket(shifted, H, coordinate_field(k, 4), s)))
    assert worst < 1e-7


def test_criterion_08_classical_limits_are_second_order():
    """Richardson sweeps over deformation strengths {1e-2, 5e-3, 2.5e-3}
    give a log-log slope of 2.0 +- 0.2 toward the undeformed free motion in
    all three models."""
    eps_grid = np.array([1e-2, 5e-3, 2.5e-3])
    for dev_fn in (mink_model.classical_limit_deviation,
                   kappa_model.classical_limit_deviation,
                   su2_model.classical_limit_deviation):
        devs = np.array([dev_fn(e) for e in eps_grid])
        slope = fit_loglog_slope(eps_grid, devs)
        assert 1.8 < slope < 2.2, dev_fn.__module__


def test_criterion_09_dual_path_dynamics():
    """The matrix form of the equations of motion agrees with the
    bracket's Hamiltonian vector field at 100 random unimodular points
    within 1e-6."""
    assert dual_path_deviation(EPS, n_points=100, seed=31) < 1e-6


def test_criterion_10_cli_artifacts_are_deterministic(tmp_path):
    """Identical config and seed produce byte-identical artifact trees on
    repeated runs."""
    import yaml
    cfg = {
        "model": "minkowski2d",
        "params": {"epsilon": 0.2, "n_samples": 15},
        "outputs": ["trajectory", "projection", "scattering"],
        "seed": 5,
    }
    cfg_path = tmp_path / "scenario.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["run", str(cfg_path), "--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), str(rel)
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["files"] == sorted(str(p) for p in files_a)
