"""Configuration-driven scenario runner.

A scenario file is a small YAML mapping:

    model: su2              # one of minkowski2d | kappa | su2
    seed: 3                 # feeds every randomized certificate point draw
    params:                 # real-valued knobs, validated per model
      epsilon: 0.2
      t_end: 1.0
    outputs:                # requested artifacts, validated per model
      - trajectory
      - certificate

Artifacts are written as CSV (UTF-8, comma separator, 17 significant digits,
header row) or JSON, plus a ``manifest.json`` that lists every emitted file
and the per-artifact summary statistics.  Outputs are a pure function of the
config and seed: running twice produces byte-identical files.  Randomized
certificate points come from numpy's seeded PCG64 generator, so they are
reproducible across runs of the same numpy generation.

Subcommands: ``run <config> --out <dir>``, ``sweep <config> --param <name>
--values <v1,v2,...> --out <dir>``, and ``certify <model> --epsilon <e>
--seed <s>``.  The environment variable ``POISMECH_WORKERS`` sets the sweep
worker-pool size (default 1, sequential).
"""
from __future__ import annotations

import argparse
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np
import yaml

from . import __version__
from .bracket import ScalarField, add_bivectors, hamiltonian_vector_field, jacobi_certificate, pushforward_bivector
from .errors import ConfigError, ContractViolation
from .fitting import collinearity_residual, tail_velocity
from .flow import StepControl, Trajectory, integrate_flow
from .generators import scaling
from .groupoid import canonical_bivector, cotangent_wedge, project_trajectory
from . import kappa as kappa_model
from . import minkowski2d as mink_model
from . import su2 as su2_model

_WORKERS_ENV = "POISMECH_WORKERS"

_REAL = "real"
_INT = "int"

_MODEL_OUTPUTS: dict[str, tuple[str, ...]] = {
    "minkowski2d": ("trajectory", "projection", "scattering", "certificate"),
    "kappa": ("trajectory", "projection", "profile", "certificate"),
    "su2": ("trajectory", "certificate"),
}

# name -> (kind, default); None default means required.
_PARAM_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "minkowski2d": {
        "epsilon": (_REAL, None),
        "mass": (_REAL, 1.0),
        "alpha": (_REAL, 0.3),
        "beta": (_REAL, 2.0),
        "c_plus": (_REAL, 1.0),
        "c_minus": (_REAL, -1.0),
        "p_min": (_REAL, -3.0),
        "p_max": (_REAL, 3.0),
        "n_samples": (_INT, 49),
        "t_end": (_REAL, 4.0),
    },
    "kappa": {
        "epsilon": (_REAL, None),
        "mass": (_REAL, 1.0),
        "p": (_REAL, 1.0),
        "spatial_dim": (_INT, 3),
        "t_span": (_REAL, 3.0),
        "n_samples": (_INT, 64),
        "p_min": (_REAL, 0.2),
        "p_max": (_REAL, 2.0),
        "n_p": (_INT, 10),
    },
    "su2": {
        "epsilon": (_REAL, None),
        "t_end": (_REAL, 1.0),
        "rho": (_REAL, 1.4),
        "n_re": (_REAL, 0.3),
        "n_im": (_REAL, 0.2),
        "tol": (_REAL, 1e-8),
        "step": (_REAL, 1e-3),
    },
}

_CERT_POINTS = 100


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: model, fully defaulted params, outputs, seed."""

    model: str
    params: Mapping[str, float]
    outputs: tuple[str, ...]
    seed: int

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "outputs": list(self.outputs),
            "seed": self.seed,
        }


def _check_real(path: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return value


def _check_int(path: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return int(value)


def _validate_params(model: str, raw: Any) -> dict[str, float]:
    schema = _PARAM_SCHEMA[model]
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError("params", "must be a key: value mapping")
    out: dict[str, Any] = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(
                f"params.{key}",
                f"unknown parameter for model {model!r} "
                f"(known: {', '.join(sorted(schema))})",
            )
        kind, _ = schema[key]
        if kind == _INT:
            out[key] = _check_int(f"params.{key}", value)
        else:
            out[key] = _check_real(f"params.{key}", value)
    for key, (kind, default) in schema.items():
        if key not in out:
            if default is None:
                raise ConfigError(f"params.{key}", "required")
            out[key] = default

    def positive(name):
        if out.get(name, 1.0) <= 0:
            raise ConfigError(f"params.{name}", f"must be positive, got {out[name]}")

    for name in ("mass", "t_end", "t_span", "rho", "tol", "step", "p"):
        if name in out:
            positive(name)
    if model == "minkowski2d":
        if out["n_samples"] < 2:
            raise ConfigError("params.n_samples", "need at least 2 samples")
        if out["p_max"] <= out["p_min"]:
            raise ConfigError("params.p_max", "must exceed p_min")
    if model == "kappa":
        if out["spatial_dim"] < 1:
            raise ConfigError("params.spatial_dim", "need at least 1")
        if out["n_samples"] < 16:
            raise ConfigError("params.n_samples", "need at least 16 for tail fits")
        if out["n_p"] < 2:
            raise ConfigError("params.n_p", "need at least 2 profile momenta")
        if out["p_min"] <= 0:
            raise ConfigError("params.p_min", "profile momenta must be positive")
        if out["p_max"] <= out["p_min"]:
            raise ConfigError("params.p_max", "must exceed p_min")
        # one projection's speed has a pole where the shell energy
        # sqrt(m^2 + p^2) meets |eps| p^2 / 2 (right for eps > 0, left for eps < 0)
        for name in ("p_max", "p"):
            q = out[name]
            if math.sqrt(out["mass"] ** 2 + q * q) <= 0.5 * abs(out["epsilon"]) * q * q:
                raise ConfigError(
                    f"params.{name}",
                    f"momentum {q} is at or past the projection pole "
                    f"sqrt(mass^2 + p^2) = |epsilon| p^2 / 2",
                )
    return out


def validate_config(raw: Any) -> ScenarioConfig:
    if not isinstance(raw, Mapping):
        raise ConfigError("config", "top level must be a key: value mapping")
    allowed = {"model", "params", "outputs", "seed"}
    for key in raw:
        if key not in allowed:
            raise ConfigError(str(key), f"unknown key (allowed: {', '.join(sorted(allowed))})")
    model = raw.get("model")
    if model is None:
        raise ConfigError("model", "required")
    if model not in _MODEL_OUTPUTS:
        raise ConfigError(
            "model", f"unknown model {model!r} (one of: {', '.join(sorted(_MODEL_OUTPUTS))})"
        )
    seed = raw.get("seed", 0)
    seed = _check_int("seed", seed)
    if seed < 0:
        raise ConfigError("seed", "must be nonnegative")
    params = _validate_params(model, raw.get("params"))
    outputs_raw = raw.get("outputs", [])
    if outputs_raw is None:
        outputs_raw = []
    if not isinstance(outputs_raw, Sequence) or isinstance(outputs_raw, str):
        raise ConfigError("outputs", "must be a list of artifact names")
    outputs: list[str] = []
    for i, entry in enumerate(outputs_raw):
        if entry not in _MODEL_OUTPUTS[model]:
            raise ConfigError(
                f"outputs[{i}]",
                f"{entry!r} not available for model {model!r} "
                f"(valid: {', '.join(_MODEL_OUTPUTS[model])})",
            )
        if entry in outputs:
            raise ConfigError(f"outputs[{i}]", f"duplicate artifact {entry!r}")
        outputs.append(entry)
    return ScenarioConfig(model=model, params=params, outputs=tuple(outputs), seed=seed)


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"not parseable: {exc}") from exc
    return validate_config(raw)


# ---------------------------------------------------------------------------
# artifacts


@dataclass(frozen=True)
class CertCheck:
    name: str
    value: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass
class ArtifactData:
    name: str
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict
    checks: list[CertCheck] | None = None


def _py(obj):
    """Recursively convert numpy scalars/arrays to plain python; NaN -> None."""
    if isinstance(obj, dict):
        return {str(k): _py(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_py(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_py(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return None if math.isnan(f) else f
    return obj


# -- minkowski2d ------------------------------------------------------------


def _mink_spec(cfg: ScenarioConfig) -> mink_model.Minkowski2DSpec:
    return mink_model.Minkowski2DSpec(cfg.params["epsilon"], cfg.params["mass"])


def _mink_curve(cfg: ScenarioConfig) -> mink_model.ScatteringCurveSpec:
    return mink_model.ScatteringCurveSpec(cfg.params["alpha"], cfg.params["beta"])


def _mink_shape(cfg: ScenarioConfig) -> tuple[np.ndarray, str, float]:
    """Configuration-space curve samples + (kind, closed-form residual)."""
    spec = _mink_spec(cfg)
    n = int(cfg.params["n_samples"])
    if spec.epsilon != 0.0:
        grid = cfg.params["c_plus"] + np.linspace(0.2, 3.0, n)
        pts = mink_model.hyperbola_curve(spec, cfg.params["c_plus"], cfg.params["c_minus"], grid)
        res = mink_model.hyperbola_residual(
            spec, cfg.params["c_plus"], cfg.params["c_minus"], pts
        )
        return pts, "hyperbola", res
    p_grid = np.linspace(cfg.params["p_min"], cfg.params["p_max"], n)
    pts = mink_model.parametric_trajectory_2d(spec, _mink_curve(cfg), p_grid)[:, 1:]
    return pts, "line", collinearity_residual(pts)


def _mink_trajectory(cfg: ScenarioConfig) -> ArtifactData:
    pts, kind, res = _mink_shape(cfg)
    return ArtifactData(
        name="trajectory",
        columns=("x_plus", "x_minus"),
        rows=[tuple(row) for row in pts],
        summary={"kind": kind, "shape_residual": res},
    )


def _mink_scattering(cfg: ScenarioConfig) -> ArtifactData:
    spec, curve = _mink_spec(cfg), _mink_curve(cfg)
    p_grid = np.linspace(cfg.params["p_min"], cfg.params["p_max"], int(cfg.params["n_samples"]))
    rows = []
    for p in p_grid:
        q = mink_model.parametric_trajectory_2d(spec, curve, np.array([p]))[0]
        v = (q[1] - q[2]) / (q[1] + q[2]) if q[1] + q[2] != 0 else math.nan
        rows.append((q[0], q[1], q[2], v))
    v_in, v_out = mink_model.scattering_data(spec, curve)
    v_in_num, v_out_num = mink_model.scattering_limits_numeric(spec, curve)
    flipped = mink_model.ScatteringCurveSpec(curve.alpha, -curve.beta)
    fi, fo = mink_model.scattering_limits_numeric(spec, flipped)
    summary = {
        "v_in_closed": v_in,
        "v_out_closed": v_out,
        "v_in_numeric": v_in_num,
        "v_out_numeric": v_out_num,
        "closed_vs_numeric": max(abs(v_in - v_in_num), abs(v_out - v_out_num)),
        "odd_defect": abs((v_out_num - v_in_num) + (fo - fi)),
    }
    return ArtifactData(
        name="scattering",
        columns=("p", "q_plus", "q_minus", "v"),
        rows=rows,
        summary=summary,
    )


def _mink_moment_hamiltonian() -> ScalarField:
    # difference of the two generator moments on the (x+, x-, p+, p-) chart
    return ScalarField(
        fn=lambda s: s[2] * s[0] - s[3] * s[1],
        grad=lambda s: np.array([s[2], -s[3], s[0], -s[1]]),
    )


def _mink_projection(cfg: ScenarioConfig) -> ArtifactData:
    spec = _mink_spec(cfg)
    r = mink_model.minkowski2d_rspec(spec)
    phase0 = np.array([1.0, 1.0, 0.35, -0.8])
    traj = integrate_flow(
        canonical_bivector(2),
        _mink_moment_hamiltonian(),
        phase0,
        cfg.params["t_end"],
        step=StepControl(h=1e-2, tol=1e-8),
    )
    left = project_trajectory(r, traj, "left")
    right = project_trajectory(r, traj, "right")
    rows = [
        (t, l[0], l[1], q[0], q[1])
        for t, l, q in zip(traj.times, left.points, right.points)
    ]

    def spread(curve: Trajectory) -> float:
        prod = curve.points[:, 0] * curve.points[:, 1]
        return float(np.max(np.abs(prod - prod[0])))

    summary = {
        "product_spread_left": spread(left),
        "product_spread_right": spread(right),
        "h_drift": traj.h_drift,
    }
    return ArtifactData(
        name="projection",
        columns=("t", "left_x_plus", "left_x_minus", "right_x_plus", "right_x_minus"),
        rows=rows,
        summary=summary,
    )


def minkowski2d_certificate(
    epsilon: float,
    seed: int,
    n_points: int = _CERT_POINTS,
    mass: float = 1.0,
) -> list[CertCheck]:
    spec = mink_model.Minkowski2DSpec(epsilon, mass)
    checks = []

    base = mink_model.minkowski2d_bivector(spec)
    cert = jacobi_certificate(base, n_points=n_points, seed=seed, threshold=1e-6)
    checks.append(
        CertCheck(
            "jacobi_base",
            cert.max_residual,
            1e-6,
            cert.passed,
            note="vacuous below dim 3" if cert.vacuous else "",
        )
    )

    shifted = add_bivectors(
        canonical_bivector(2),
        cotangent_wedge(epsilon, scaling([0], 2), scaling([1], 2)),
    )
    cert = jacobi_certificate(shifted, n_points=n_points, seed=seed + 1, threshold=1e-6)
    checks.append(CertCheck("jacobi_shifted", cert.max_residual, 1e-6, cert.passed))

    if epsilon != 0.0:
        grid = 1.0 + np.linspace(0.2, 3.0, 64)
        pts = mink_model.hyperbola_curve(spec, 1.0, -1.0, grid)
        res = mink_model.hyperbola_residual(spec, 1.0, -1.0, pts)
        # relative to the shape constant, which grows like epsilon^-2
        res /= max(1.0, 1.0 / (epsilon * mass) ** 2)
        checks.append(CertCheck("hyperbola_shape", res, 1e-12, res <= 1e-12))

        worst = 0.0
        worst_odd = 0.0
        for alpha in np.linspace(-0.6, 0.6, 5):
            for beta in np.linspace(-2.0, 2.0, 5):
                curve = mink_model.ScatteringCurveSpec(alpha, beta)
                ci, co = mink_model.scattering_data(spec, curve)
                ni, no = mink_model.scattering_limits_numeric(spec, curve)
                worst = max(worst, abs(ci - ni), abs(co - no))
                flip = mink_model.ScatteringCurveSpec(alpha, -beta)
                fi, fo = mink_model.scattering_limits_numeric(spec, flip)
                worst_odd = max(worst_odd, abs((no - ni) + (fo - fi)))
        checks.append(CertCheck("scattering_match", worst, 1e-6, worst <= 1e-6))
        checks.append(CertCheck("scattering_odd", worst_odd, 1e-12, worst_odd <= 1e-12))
    else:
        note = "vacuous at epsilon = 0"
        checks.append(CertCheck("hyperbola_shape", 0.0, 1e-12, True, note))
        checks.append(CertCheck("scattering_match", 0.0, 1e-6, True, note))
        checks.append(CertCheck("scattering_odd", 0.0, 1e-12, True, note))
    return checks


def _mink_certificate(cfg: ScenarioConfig) -> ArtifactData:
    checks = minkowski2d_certificate(
        cfg.params["epsilon"], cfg.seed, _CERT_POINTS, cfg.params["mass"]
    )
    return _certificate_artifact(checks)


# -- kappa ------------------------------------------------------------------


def _kappa_spec(cfg: ScenarioConfig) -> kappa_model.KappaSpec:
    return kappa_model.KappaSpec(cfg.params["epsilon"], int(cfg.params["spatial_dim"]))


def _kappa_shell(cfg: ScenarioConfig) -> Trajectory:
    spec = _kappa_spec(cfg)
    pvec = np.zeros(spec.spatial_dim)
    pvec[0] = cfg.params["p"]
    return kappa_model.free_shell_trajectory(
        spec,
        cfg.params["mass"],
        pvec,
        t_span=cfg.params["t_span"],
        n_samples=int(cfg.params["n_samples"]),
    )


def _kappa_trajectory(cfg: ScenarioConfig) -> ArtifactData:
    spec = _kappa_spec(cfg)
    traj = _kappa_shell(cfg)
    d = spec.dim
    cols = ("t",) + spec.coord_names + tuple(f"p{k}" for k in range(d))
    rows = [(t, *row) for t, row in zip(traj.times, traj.points)]
    mom = traj.points[0, d:]
    energy = mom[0] ** 2 - float(mom[1:] @ mom[1:])
    base = Trajectory(traj.times, traj.points[:, :d])
    summary = {
        "speed_ordinary": float(np.linalg.norm(tail_velocity(base.points[:, 0], base.points[:, 1:]))),
        "mass_shell_residual": abs(energy - cfg.params["mass"] ** 2),
    }
    return ArtifactData("trajectory", cols, rows, summary)


def _kappa_projection(cfg: ScenarioConfig) -> ArtifactData:
    spec = _kappa_spec(cfg)
    r = kappa_model.kappa_rspec(spec)
    traj = _kappa_shell(cfg)
    left = project_trajectory(r, traj, "left")
    right = project_trajectory(r, traj, "right")
    cols = (
        ("t",)
        + tuple(f"left_{n}" for n in spec.coord_names)
        + tuple(f"right_{n}" for n in spec.coord_names)
    )
    rows = [
        (t, *l, *q) for t, l, q in zip(traj.times, left.points, right.points)
    ]
    v_l, v_r = kappa_model.closed_form_speeds(spec, cfg.params["mass"], cfg.params["p"])

    def measured(curve: Trajectory) -> float:
        return float(np.linalg.norm(tail_velocity(curve.points[:, 0], curve.points[:, 1:])))

    m_l, m_r = measured(left), measured(right)
    summary = {
        "collinearity_left": collinearity_residual(left.points),
        "collinearity_right": collinearity_residual(right.points),
        "v_left": m_l,
        "v_right": m_r,
        "closed_form_dev": max(abs(m_l - v_l), abs(m_r - v_r)),
    }
    return ArtifactData("projection", cols, rows, summary)


def _kappa_profile(cfg: ScenarioConfig) -> ArtifactData:
    spec = _kappa_spec(cfg)
    p_grid = np.linspace(cfg.params["p_min"], cfg.params["p_max"], int(cfg.params["n_p"]))
    kw = dict(
        t_span=cfg.params["t_span"],
        n_samples=int(cfg.params["n_samples"]),
    )
    prof = {
        kind: kappa_model.velocity_momentum_profile(
            spec, cfg.params["mass"], kind, p_grid, **kw
        )
        for kind in ("ordinary", "left", "right")
    }
    rows = [
        (p, vo, vl, vr)
        for p, vo, vl, vr in zip(
            prof["ordinary"]["p"],
            prof["ordinary"]["v"],
            prof["left"]["v"],
            prof["right"]["v"],
        )
    ]
    summary = {f"verdict_{k}": prof[k]["verdict"] for k in prof}
    return ArtifactData(
        "profile", ("p", "v_ordinary", "v_left", "v_right"), rows, summary
    )


def kappa_certificate(
    epsilon: float,
    seed: int,
    n_points: int = _CERT_POINTS,
    mass: float = 1.0,
    spatial_dim: int = 3,
) -> list[CertCheck]:
    spec = kappa_model.KappaSpec(epsilon, spatial_dim)
    momenta = (0.5, 1.0, 1.5)
    try:
        closed = [kappa_model.closed_form_speeds(spec, mass, p) for p in momenta]
    except ContractViolation as exc:
        raise ConfigError("epsilon", f"{exc}; the speed check needs momenta {momenta}") from exc
    checks = []
    cert = jacobi_certificate(
        kappa_model.kappa_bivector(spec), n_points=n_points, seed=seed, threshold=1e-6
    )
    checks.append(CertCheck("jacobi_base", cert.max_residual, 1e-6, cert.passed))

    X1, X2 = kappa_model._generators(spec)
    shifted = add_bivectors(
        canonical_bivector(spec.dim), cotangent_wedge(epsilon, X1, X2)
    )
    cert = jacobi_certificate(shifted, n_points=n_points, seed=seed + 1, threshold=1e-6)
    checks.append(CertCheck("jacobi_shifted", cert.max_residual, 1e-6, cert.passed))

    r = kappa_model.kappa_rspec(spec)
    worst = 0.0
    for p, v_closed in zip(momenta, closed):
        pvec = np.zeros(spatial_dim)
        pvec[0] = p
        traj = kappa_model.free_shell_trajectory(spec, mass, pvec, t_span=3.0, n_samples=64)
        for side, vc in zip(("left", "right"), v_closed):
            curve = project_trajectory(r, traj, side)
            vm = float(np.linalg.norm(tail_velocity(curve.points[:, 0], curve.points[:, 1:])))
            worst = max(worst, abs(vm - vc))
    checks.append(CertCheck("projected_speed_closed_form", worst, 1e-9, worst <= 1e-9))
    return checks


def _kappa_certificate(cfg: ScenarioConfig) -> ArtifactData:
    checks = kappa_certificate(
        cfg.params["epsilon"],
        cfg.seed,
        _CERT_POINTS,
        cfg.params["mass"],
        int(cfg.params["spatial_dim"]),
    )
    return _certificate_artifact(checks)


# -- su2 --------------------------------------------------------------------


def _su2_start(cfg: ScenarioConfig) -> su2_model.SL2CElement:
    b = su2_model.SB2Element(cfg.params["rho"], complex(cfg.params["n_re"], cfg.params["n_im"]))
    return su2_model.SL2CElement.from_matrix(b.matrix)


def _su2_trajectory(cfg: ScenarioConfig) -> ArtifactData:
    eps = cfg.params["epsilon"]
    traj, n_renorm = su2_model.free_flow(
        _su2_start(cfg),
        eps,
        cfg.params["t_end"],
        step=StepControl(h=cfg.params["step"], tol=cfg.params["tol"]),
    )
    energy = su2_model.free_hamiltonian_field(eps, kind="trace")
    rows = []
    for t, pt in zip(traj.times, traj.points):
        m = su2_model.matrix_from_real8(pt)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        _, b = su2_model.iwasawa(su2_model.SL2CElement.from_matrix(m))
        rows.append(
            (t, *pt, b.rho, b.n.real, b.n.imag, energy(pt), abs(det - 1.0))
        )
    diag = su2_model.flow_diagnostics(traj, eps)
    diag["renormalizations"] = n_renorm
    diag["h_drift"] = traj.h_drift
    cols = ("t",) + su2_model.GROUP_COORD_NAMES + ("rho", "n_re", "n_im", "H", "det_residual")
    return ArtifactData("trajectory", cols, rows, diag)


def su2_certificate(
    epsilon: float,
    seed: int,
    n_points: int = _CERT_POINTS,
    rho: float = 1.4,
    n_re: float = 0.3,
    n_im: float = 0.2,
) -> list[CertCheck]:
    checks = []
    group_biv = su2_model.sl2c_bivector(epsilon)
    cert = jacobi_certificate(group_biv, n_points=n_points, seed=seed, threshold=1e-6)
    checks.append(CertCheck("jacobi_group", cert.max_residual, 1e-6, cert.passed))
    cert = jacobi_certificate(
        su2_model.momentum_bivector(epsilon), n_points=n_points, seed=seed + 1, threshold=1e-6
    )
    checks.append(CertCheck("jacobi_momentum", cert.max_residual, 1e-6, cert.passed))
    cert = jacobi_certificate(
        su2_model.linear_momentum_bivector(), n_points=n_points, seed=seed + 2, threshold=1e-6
    )
    checks.append(CertCheck("jacobi_linear", cert.max_residual, 1e-6, cert.passed))

    # conservation along the flow, against the closed-form solution (t = 1)
    b0 = su2_model.SB2Element(rho, complex(n_re, n_im))
    g0 = su2_model.SL2CElement.from_matrix(b0.matrix)
    traj, _ = su2_model.free_flow(g0, epsilon, 1.0, step=StepControl(h=1e-3, tol=1e-8))
    diag = su2_model.flow_diagnostics(traj, epsilon)
    checks.append(
        CertCheck("flow_det_drift", diag["det_residual"], 1e-8, diag["det_residual"] <= 1e-8)
    )
    checks.append(
        CertCheck(
            "flow_momentum_drift", diag["b_factor_drift"], 1e-6, diag["b_factor_drift"] <= 1e-6
        )
    )
    checks.append(
        CertCheck(
            "flow_body_velocity", diag["omega_deviation"], 1e-5, diag["omega_deviation"] <= 1e-5
        )
    )
    checks.append(
        CertCheck(
            "flow_closed_form_endpoint",
            diag["endpoint_deviation"],
            1e-7,
            diag["endpoint_deviation"] <= 1e-7,
        )
    )

    # energy pipeline: trace energy stays pinned to its classical conversion
    energy = su2_model.free_hamiltonian_field(epsilon, kind="trace")
    h0 = float(energy(traj.points[0]))
    if epsilon != 0.0:
        target = su2_model.energy_relations(epsilon, trace=h0)
        expected = math.cosh(2.0 * epsilon * math.sqrt(2.0 * target.classical))
    else:
        expected = h0
    worst = max(abs(float(energy(p)) - expected) for p in traj.points)
    checks.append(CertCheck("energy_pipeline", worst, 1e-6, worst <= 1e-6))

    # dual route for the dynamics at random unimodular points
    worst = 0.0
    for g in su2_model.sample_unimodular(n_points, seed=seed + 3):
        v_biv = hamiltonian_vector_field(group_biv, energy, g.real8)
        v_rhs = su2_model.real8_from_matrix(su2_model.flow_rhs(g.matrix, epsilon))
        worst = max(worst, float(np.max(np.abs(v_biv - v_rhs))))
    checks.append(CertCheck("dual_path_dynamics", worst, 1e-6, worst <= 1e-6))

    # momentum isomorphism: pushforward + Casimir correspondence
    rng = np.random.default_rng(seed + 4)
    lin = su2_model.linear_momentum_bivector()
    mom = su2_model.momentum_bivector(epsilon)
    worst_push = 0.0
    worst_cas = 0.0
    drawn = 0
    while drawn < n_points:
        p = rng.uniform(-1.2, 1.2, size=3)
        r = float(np.linalg.norm(p))
        if r < 0.1 or abs(r * r - p[2] * p[2]) < 1e-3:
            continue  # keep points away from the series-continued locus
        drawn += 1
        img = su2_model.momentum_isomorphism(p, epsilon)
        got = pushforward_bivector(
            lin, lambda q: su2_model.momentum_isomorphism(q, epsilon), p, 3
        )
        worst_push = max(worst_push, float(np.max(np.abs(got - mom.matrix(img)))))
        big_r = math.sqrt(su2_model.casimir_radius_squared(img, epsilon))
        if epsilon != 0.0:
            worst_cas = max(worst_cas, abs(epsilon * big_r - math.sinh(epsilon * r)))
        else:
            worst_cas = max(worst_cas, abs(big_r - r))
    checks.append(CertCheck("isomorphism_pushforward", worst_push, 1e-5, worst_push <= 1e-5))
    checks.append(CertCheck("isomorphism_casimir", worst_cas, 1e-12, worst_cas <= 1e-12))
    return checks


def _su2_certificate(cfg: ScenarioConfig) -> ArtifactData:
    checks = su2_certificate(
        cfg.params["epsilon"],
        cfg.seed,
        _CERT_POINTS,
        cfg.params["rho"],
        cfg.params["n_re"],
        cfg.params["n_im"],
    )
    return _certificate_artifact(checks)


def _certificate_artifact(checks: list[CertCheck]) -> ArtifactData:
    rows = [
        (c.name, c.value, c.threshold, "pass" if c.passed else "fail", c.note)
        for c in checks
    ]
    summary = {
        "passed": all(c.passed for c in checks),
        "checks": {c.name: c.value for c in checks},
    }
    return ArtifactData(
        "certificate",
        ("check", "value", "threshold", "status", "note"),
        rows,
        summary,
        checks=checks,
    )


_BUILDERS: dict[tuple[str, str], Callable[[ScenarioConfig], ArtifactData]] = {
    ("minkowski2d", "trajectory"): _mink_trajectory,
    ("minkowski2d", "scattering"): _mink_scattering,
    ("minkowski2d", "projection"): _mink_projection,
    ("minkowski2d", "certificate"): _mink_certificate,
    ("kappa", "trajectory"): _kappa_trajectory,
    ("kappa", "projection"): _kappa_projection,
    ("kappa", "profile"): _kappa_profile,
    ("kappa", "certificate"): _kappa_certificate,
    ("su2", "trajectory"): _su2_trajectory,
    ("su2", "certificate"): _su2_certificate,
}


def build_artifact(config: ScenarioConfig, name: str) -> ArtifactData:
    return _BUILDERS[(config.model, name)](config)


# ---------------------------------------------------------------------------
# scalar summaries for sweeps


def scalar_summaries(config: ScenarioConfig) -> dict[str, Any]:
    """One row of scalar observables for the configured scenario."""
    p = config.params
    if config.model == "minkowski2d":
        _, kind, shape_res = _mink_shape(config)
        spec, curve = _mink_spec(config), _mink_curve(config)
        v_in, v_out = mink_model.scattering_data(spec, curve)
        ni, no = mink_model.scattering_limits_numeric(spec, curve)
        return {
            "classical_limit_dev": mink_model.classical_limit_deviation(
                p["epsilon"], p["mass"], p["alpha"], p["beta"]
            ),
            "shape_residual": shape_res,
            "scattering_dev": max(abs(v_in - ni), abs(v_out - no)) if spec.epsilon != 0.0 else 0.0,
            "v_in": v_in,
            "v_out": v_out,
        }
    if config.model == "kappa":
        spec = _kappa_spec(config)
        p_grid = np.linspace(p["p_min"], p["p_max"], int(p["n_p"]))
        prof = {
            kind: kappa_model.velocity_momentum_profile(
                spec, p["mass"], kind, p_grid, t_span=p["t_span"], n_samples=int(p["n_samples"])
            )
            for kind in ("left", "right")
        }
        worst = 0.0
        for i, pv in enumerate(prof["left"]["p"]):
            vl, vr = kappa_model.closed_form_speeds(spec, p["mass"], float(pv))
            worst = max(
                worst, abs(prof["left"]["v"][i] - vl), abs(prof["right"]["v"][i] - vr)
            )
        return {
            "classical_limit_dev": kappa_model.classical_limit_deviation(
                p["epsilon"], p["mass"], spatial_dim=int(p["spatial_dim"])
            ),
            "closed_speed_dev": worst,
            "v_left_verdict": prof["left"]["verdict"],
            "v_right_verdict": prof["right"]["verdict"],
        }
    # su2
    eps = p["epsilon"]
    traj, _ = su2_model.free_flow(
        _su2_start(config), eps, p["t_end"], step=StepControl(h=p["step"], tol=p["tol"])
    )
    diag = su2_model.flow_diagnostics(traj, eps)
    return {
        "classical_limit_dev": su2_model.classical_limit_deviation(eps),
        "det_residual": diag["det_residual"],
        "b_factor_drift": diag["b_factor_drift"],
        "endpoint_deviation": diag["endpoint_deviation"],
    }


# ---------------------------------------------------------------------------
# writers


def _fmt_cell(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_artifact(data: ArtifactData, out_dir: Path, fmt: str) -> list[str]:
    """Write one artifact; returns the filenames created."""
    if fmt == "csv":
        fname = f"{data.name}.csv"
        lines = [",".join(data.columns)]
        lines.extend(",".join(_fmt_cell(c) for c in row) for row in data.rows)
        (out_dir / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        fname = f"{data.name}.json"
        payload = {
            "columns": list(data.columns),
            "rows": _py([list(r) for r in data.rows]),
            "summary": _py(data.summary),
        }
        (out_dir / fname).write_text(
            json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
            encoding="utf-8",
        )
    else:
        raise ContractViolation(f"format must be 'csv' or 'json', got {fmt!r}")
    return [fname]


def write_manifest(out_dir: Path, manifest: dict) -> None:
    listed = set(manifest["files"])
    on_disk = {
        str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file()
    }
    stray = on_disk - listed - {"manifest.json"}
    if stray:
        manifest = dict(manifest)
        manifest["unmanaged_files"] = sorted(stray)
    (out_dir / "manifest.json").write_text(
        json.dumps(_py(manifest), sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# runners


def run_scenario(config: ScenarioConfig, out_dir: Path, fmt: str = "csv") -> tuple[dict, bool]:
    """Execute all requested artifacts.  Returns (manifest, certificates_ok)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, dict] = {}
    files = ["manifest.json"]
    all_passed = True
    for name in config.outputs:
        data = build_artifact(config, name)
        written = write_artifact(data, out_dir, fmt)
        files.extend(written)
        artifacts[name] = {"files": written, "summary": _py(data.summary)}
        if data.checks is not None:
            all_passed = all_passed and all(c.passed for c in data.checks)
    manifest = {
        "version": __version__,
        "format": fmt,
        "config": config.as_dict(),
        "artifacts": artifacts,
        "certificates_passed": all_passed,
        "files": sorted(files),
    }
    write_manifest(out_dir, manifest)
    return manifest, all_passed


def _sweep_worker(config: ScenarioConfig) -> tuple[dict | None, str]:
    try:
        return scalar_summaries(config), "ok"
    except Exception as exc:  # noqa: BLE001 — a failed row must not kill the sweep
        return None, f"failed:{type(exc).__name__}"


def sweep_scenario(
    config: ScenarioConfig,
    param: str,
    values: Sequence[Any],
    out_dir: Path,
    fmt: str = "csv",
    workers: int | None = None,
) -> tuple[dict, bool]:
    """One scenario row per parameter value.  Returns (manifest, all_ok)."""
    if param not in _PARAM_SCHEMA[config.model]:
        raise ConfigError(f"params.{param}", f"unknown parameter for model {config.model!r}")
    if not values:
        raise ConfigError("values", "need at least one value")
    if workers is None:
        raw = os.environ.get(_WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError as exc:
            raise ConfigError(_WORKERS_ENV, f"expected an integer, got {raw!r}") from exc
    tasks = [
        replace(config, params=_validate_params(config.model, {**config.params, param: v}))
        for v in values
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]

    keys: list[str] = []
    for row, status in results:
        if row is not None:
            keys = list(row.keys())
            break
    columns = (param, *keys, "status")
    rows = []
    all_ok = True
    for value, (row, status) in zip(values, results):
        if row is None:
            all_ok = False
            rows.append((value, *(math.nan,) * len(keys), status))
        else:
            rows.append((value, *(row[k] for k in keys), status))
    data = ArtifactData("sweep", columns, rows, {"parameter": param, "n_values": len(values)})

    out_dir.mkdir(parents=True, exist_ok=True)
    written = write_artifact(data, out_dir, fmt)
    manifest = {
        "version": __version__,
        "format": fmt,
        "config": config.as_dict(),
        "sweep": {
            "parameter": param,
            "values": list(values),
            "files": written,
            "all_ok": all_ok,
        },
        "files": sorted(["manifest.json", *written]),
    }
    write_manifest(out_dir, manifest)
    return manifest, all_ok


_CERTIFIERS = {
    "minkowski2d": lambda eps, seed, pts: minkowski2d_certificate(eps, seed, pts),
    "kappa": lambda eps, seed, pts: kappa_certificate(eps, seed, pts),
    "su2": lambda eps, seed, pts: su2_certificate(eps, seed, pts),
}


# ---------------------------------------------------------------------------
# command line


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poismech",
        description="Scenario runner for deformed free-motion models.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config")
    run_p.add_argument("config", help="YAML scenario file")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")

    sweep_p = sub.add_parser("sweep", help="rerun a scenario over parameter values")
    sweep_p.add_argument("config", help="YAML scenario file")
    sweep_p.add_argument("--param", required=True, help="parameter name to vary")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")

    cert_p = sub.add_parser("certify", help="run only the bracket/invariant certificates")
    cert_p.add_argument("model", choices=sorted(_MODEL_OUTPUTS))
    cert_p.add_argument("--epsilon", type=float, required=True)
    cert_p.add_argument("--seed", type=int, default=0)
    cert_p.add_argument("--points", type=int, default=_CERT_POINTS)
    cert_p.add_argument("--out", default=None, help="optional output directory")
    cert_p.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


def _parse_values(raw: str, kind: str) -> list:
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(int(tok) if kind == _INT else float(tok))
        except ValueError as exc:
            raise ConfigError("values", f"cannot parse {tok!r}") from exc
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            manifest, ok = run_scenario(config, Path(args.out), args.format)
            for name, entry in manifest["artifacts"].items():
                print(f"wrote {', '.join(entry['files'])} [{name}]")
            if any(n == "certificate" for n in config.outputs):
                print(f"certificates: {'PASS' if ok else 'FAIL'}")
            return 0 if ok else 1

        if args.command == "sweep":
            config = load_config(args.config)
            kind = _PARAM_SCHEMA[config.model].get(args.param, (_REAL, None))[0]
            values = _parse_values(args.values, kind)
            manifest, ok = sweep_scenario(
                config, args.param, values, Path(args.out), args.format
            )
            print(f"wrote {', '.join(manifest['sweep']['files'])} ({len(values)} rows)")
            if not ok:
                print("sweep: some rows failed")
            return 0 if ok else 1

        # certify
        checks = _CERTIFIERS[args.model](args.epsilon, args.seed, args.points)
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            note = f"  ({c.note})" if c.note else ""
            print(f"{status}  {c.name}: {c.value:.3e} (threshold {c.threshold:.1e}){note}")
        ok = all(c.passed for c in checks)
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            data = _certificate_artifact(checks)
            written = write_artifact(data, out_dir, args.format)
            manifest = {
                "version": __version__,
                "format": args.format,
                "config": {
                    "model": args.model,
                    "epsilon": args.epsilon,
                    "seed": args.seed,
                    "points": args.points,
                },
                "artifacts": {"certificate": {"files": written, "summary": _py(data.summary)}},
                "certificates_passed": ok,
                "files": sorted(["manifest.json", *written]),
            }
            write_manifest(out_dir, manifest)
        print(f"certificates: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 2
    except (ContractViolation, OSError) as exc:
        print(f"error: {exc}")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
