"""Seeded input generators, jobs and correctness gates for the three workloads.

A generator takes the workload seed and writes only inputs into a directory:
``jobs.json`` (one entry per job: certificate draws, starting factors, flow
horizons, ...) and, for ``scenario``, YAML configs.  Sizes (points, horizons,
sample counts) sit on fixed per-slot ladders; the seed draws only the physical
parameters, so every seed asks the program for the same amount of work.

``load_jobs`` turns those inputs into :class:`Job` objects that call the
public functions of ``poismech`` through module attributes at call time, so
the tracer's wrappers see every call.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import yaml

WORKLOADS = ("certify", "flow", "scenario")

# thresholds of the CLI's su2 flow certificate
ENDPOINT_TOL = 1e-7
DET_TOL = 1e-8
B_DRIFT_TOL = 1e-6
FLOW_STEP = 1e-3
FLOW_TOL = 1e-8


@dataclass
class Job:
    """One call into the package; ``check`` returns a failure message or None."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


# ---------------------------------------------------------------------------
# generators: seed -> input files


def _gen_certify(rng: random.Random, out: Path) -> list[dict]:
    jobs: list[dict] = []

    def draw_seed() -> int:
        return rng.randrange(1_000_000)

    jobs.append({"kind": "su2_certificate", "epsilon": rng.uniform(0.1, 0.3),
                 "seed": draw_seed(), "n_points": 1})
    for n_points in (1, 2):
        jobs.append({"kind": "kappa_certificate", "epsilon": rng.uniform(0.1, 0.5),
                     "seed": draw_seed(), "n_points": n_points})
    for n_points in (2, 4, 8, 16) * 4:
        jobs.append({"kind": "minkowski2d_certificate", "epsilon": rng.uniform(0.05, 0.5),
                     "seed": draw_seed(), "n_points": n_points})
    # (structure, chart dim, points): non-Poisson perturbations of shipped
    # brackets, which every certificate must reject
    witnesses = (
        ("sl2c", 8, 1),
        ("kappa_shifted", 8, 1),
        ("kappa", 4, 2),
        ("kappa", 4, 2),
        ("minkowski2d_shifted", 4, 2),
        ("minkowski2d_shifted", 4, 2),
        ("minkowski2d_shifted", 4, 2),
        ("su2_momentum", 3, 5),
        ("su2_momentum", 3, 5),
        ("su2_linear", 3, 5),
        ("su2_linear", 3, 5),
        ("kappa", 4, 2),
    )
    for structure, dim, n_points in witnesses:
        a, b, c = rng.sample(range(dim), 3)
        jobs.append({"kind": "witness", "structure": structure,
                     "epsilon": rng.uniform(0.1, 0.4), "triple": [a, b, c],
                     "coeff": rng.uniform(0.5, 1.0), "seed": draw_seed(),
                     "n_points": n_points})
    return jobs


def _gen_flow(rng: random.Random, out: Path) -> list[dict]:
    jobs: list[dict] = []
    for t_end in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06) * 6:
        jobs.append({"kind": "su2_flow", "epsilon": rng.uniform(0.1, 0.3),
                     "rho": rng.uniform(0.8, 1.6), "n_re": rng.uniform(-0.4, 0.4),
                     "n_im": rng.uniform(-0.4, 0.4), "t_end": t_end})
    for n, t_end in ((1, 0.1), (2, 0.2), (3, 0.1), (1, 0.2), (2, 0.1), (3, 0.2)) * 2:
        jobs.append({"kind": "canonical_flow", "t_end": t_end,
                     "omega": [rng.uniform(0.5, 2.0) for _ in range(n)],
                     "x0": [rng.uniform(-1.0, 1.0) for _ in range(n)],
                     "p0": [rng.uniform(-1.0, 1.0) for _ in range(n)]})
    return jobs


def _scenario_configs(rng: random.Random) -> list[tuple[str, dict]]:
    """(name, config) pairs; sizes come from fixed ladders, physics from rng."""
    configs = []
    for i, (n_samples, t_end) in enumerate(((49, 0.2), (97, 0.4), (49, 0.4), (97, 0.2)) * 2):
        configs.append((f"minkowski2d_{i}", {
            "model": "minkowski2d",
            "params": {"epsilon": rng.uniform(0.1, 0.4), "mass": rng.uniform(0.8, 1.5),
                       "alpha": rng.uniform(-0.5, 0.5), "beta": rng.uniform(0.5, 2.5),
                       "c_plus": rng.uniform(0.5, 1.5), "c_minus": -rng.uniform(0.5, 1.5),
                       "n_samples": n_samples, "t_end": t_end},
            "outputs": ["trajectory", "projection", "scattering"],
            "seed": rng.randrange(1000)}))
    for i, (spatial_dim, n_samples) in enumerate(((1, 32), (3, 64), (2, 32), (3, 32)) * 2):
        configs.append((f"kappa_{i}", {
            "model": "kappa",
            "params": {"epsilon": rng.uniform(0.1, 0.5), "mass": rng.uniform(0.8, 1.2),
                       "p": rng.uniform(0.5, 1.5), "spatial_dim": spatial_dim,
                       "n_samples": n_samples, "n_p": 10},
            "outputs": ["trajectory", "projection", "profile"],
            "seed": rng.randrange(1000)}))
    for i, t_end in enumerate((0.02, 0.04)):
        configs.append((f"su2_{i}", {
            "model": "su2",
            "params": {"epsilon": rng.uniform(0.1, 0.3), "t_end": t_end,
                       "rho": rng.uniform(0.8, 1.6), "n_re": rng.uniform(-0.4, 0.4),
                       "n_im": rng.uniform(-0.4, 0.4)},
            "outputs": ["trajectory"],
            "seed": rng.randrange(1000)}))
    return configs


def _gen_scenario(rng: random.Random, out: Path) -> list[dict]:
    jobs: list[dict] = []
    config_dir = out / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    configs = _scenario_configs(rng)
    for name, cfg in configs:
        (config_dir / f"{name}.yaml").write_text(yaml.safe_dump(cfg), encoding="utf-8")
    for fmt in ("csv", "json"):
        for name, _cfg in configs:
            jobs.append({"kind": "run", "config": f"configs/{name}.yaml", "format": fmt})
    sweeps = (
        ("minkowski2d_0", "epsilon", [rng.uniform(0.05, 0.5) for _ in range(4)]),
        ("minkowski2d_1", "beta", [rng.uniform(-2.5, 2.5) for _ in range(4)]),
        ("kappa_0", "p", [rng.uniform(0.5, 1.5) for _ in range(2)]),
        ("su2_0", "epsilon", [rng.uniform(0.1, 0.3) for _ in range(2)]),
    )
    for fmt in ("csv", "json"):
        for name, param, values in sweeps:
            jobs.append({"kind": "sweep", "config": f"configs/{name}.yaml",
                         "param": param, "values": values, "format": fmt})
    return jobs


_GENERATORS = {"certify": _gen_certify, "flow": _gen_flow, "scenario": _gen_scenario}


def generate(workload: str, seed: int, out: Path) -> None:
    """Write the inputs of ``workload`` for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    jobs = _GENERATORS[workload](random.Random(f"{workload}:{seed}"), out)
    (out / "jobs.json").write_text(json.dumps(jobs, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# jobs and gates


def _all_passed(checks) -> str | None:
    failed = [c.name for c in checks if not c.passed]
    return f"checks failed: {', '.join(failed)}" if failed else None


def _certificate_job(spec: dict) -> Job:
    from poismech import cli

    eps, seed, n_points = spec["epsilon"], spec["seed"], spec["n_points"]
    kind = spec["kind"]
    return Job(kind, lambda: getattr(cli, kind)(eps, seed, n_points), _all_passed)


def _shipped_structure(structure: str, epsilon: float):
    from poismech import bracket, generators, groupoid, kappa, su2

    if structure == "sl2c":
        return su2.sl2c_bivector(epsilon)
    if structure == "su2_momentum":
        return su2.momentum_bivector(epsilon)
    if structure == "su2_linear":
        return su2.linear_momentum_bivector()
    if structure == "kappa":
        return kappa.kappa_bivector(kappa.KappaSpec(epsilon, 3))
    if structure == "kappa_shifted":
        e0 = np.zeros(4)
        e0[0] = 1.0
        X1, X2 = generators.translation(e0), generators.scaling(range(1, 4), 4)
    elif structure == "minkowski2d_shifted":
        X1, X2 = generators.scaling([0], 2), generators.scaling([1], 2)
    else:
        raise ValueError(f"unknown structure {structure!r}")
    return bracket.add_bivectors(groupoid.canonical_bivector(X1.dim),
                                 groupoid.cotangent_wedge(epsilon, X1, X2))


def _witness_job(spec: dict) -> Job:
    """Shipped bracket plus coeff * (x_a d_a^d_b + d_c^d_a).

    The added bivector alone has {x_a,{x_b,x_c}} + cyclic = coeff**2
    everywhere, so the sum is not Poisson and its certificate must FAIL.
    """
    from poismech import bracket

    base = _shipped_structure(spec["structure"], spec["epsilon"])
    a, b, c = spec["triple"]
    coeff = spec["coeff"]
    comps: dict = {}

    def put(i: int, j: int, fn) -> None:
        if i < j:
            comps[(i, j)] = fn
        else:
            comps[(j, i)] = lambda x: -fn(x)

    put(a, b, lambda x: coeff * x[a])
    put(c, a, lambda x: coeff)
    bad = bracket.BivectorSpec(base.dim, base.coord_names, comps)
    perturbed = bracket.add_bivectors(base, bad)
    seed, n_points = spec["seed"], spec["n_points"]

    def run():
        return bracket.jacobi_certificate(perturbed, n_points=n_points, seed=seed)

    def check(cert) -> str | None:
        if cert.vacuous or cert.passed:
            return f"non-Poisson witness passed (max residual {cert.max_residual:.3e})"
        return None

    return Job(f"witness_{spec['structure']}", run, check)


class FlowStats:
    """Worst ungated diagnostics seen across the flow jobs."""

    def __init__(self):
        self.omega_deviation = 0.0


def _su2_flow_job(spec: dict, stats: FlowStats) -> Job:
    from poismech import su2
    from poismech.flow import StepControl

    eps, t_end = spec["epsilon"], spec["t_end"]
    b0 = su2.SB2Element(spec["rho"], complex(spec["n_re"], spec["n_im"]))
    g0 = su2.SL2CElement.from_matrix(b0.matrix)
    step = StepControl(h=FLOW_STEP, tol=FLOW_TOL)

    def run():
        traj, _ = su2.free_flow(g0, eps, t_end, step=step)
        return traj.times[-1], traj.points[-1], su2.flow_diagnostics(traj, eps)

    def check(result) -> str | None:
        t, last, diag = result
        exact = su2.closed_form_flow(su2.SU2Element(1.0, 0.0), b0, eps, float(t))
        endpoint = float(np.max(np.abs(su2.matrix_from_real8(last) - exact)))
        stats.omega_deviation = max(stats.omega_deviation, diag["omega_deviation"])
        bad = []
        if abs(t - t_end) > 1e-12:
            bad.append(f"ended at t={t}")
        if not endpoint <= ENDPOINT_TOL:
            bad.append(f"endpoint {endpoint:.3e}")
        if not diag["det_residual"] <= DET_TOL:
            bad.append(f"det_residual {diag['det_residual']:.3e}")
        if not diag["b_factor_drift"] <= B_DRIFT_TOL:
            bad.append(f"b_factor_drift {diag['b_factor_drift']:.3e}")
        return "; ".join(bad) or None

    return Job("su2_flow", run, check)


def _canonical_flow_job(spec: dict) -> Job:
    """Uncoupled oscillators H = sum_i w_i (x_i^2 + p_i^2) / 2 under the
    canonical bracket; with xdot = {H, x} each (x_i, p_i) rotates by w_i t."""
    from poismech import flow, groupoid
    from poismech.bracket import ScalarField

    w = np.array(spec["omega"])
    x0, p0 = np.array(spec["x0"]), np.array(spec["p0"])
    n, t_end = w.size, spec["t_end"]
    biv = groupoid.canonical_bivector(n)
    ww = np.concatenate([w, w])
    H = ScalarField(fn=lambda s: 0.5 * float(ww @ (s * s)), grad=lambda s: ww * s)
    start = np.concatenate([x0, p0])
    step = flow.StepControl(h=FLOW_STEP, tol=FLOW_TOL)

    def run():
        traj = flow.integrate_flow(biv, H, start, t_end, step=step)
        return traj.times[-1], traj.points[-1]

    def check(result) -> str | None:
        t, last = result
        cos, sin = np.cos(w * t), np.sin(w * t)
        exact = np.concatenate([x0 * cos - p0 * sin, p0 * cos + x0 * sin])
        endpoint = float(np.max(np.abs(last - exact)))
        if abs(t - t_end) > 1e-12 or not endpoint <= ENDPOINT_TOL:
            return f"endpoint {endpoint:.3e} at t={t}"
        return None

    return Job(f"canonical_flow_{n}", run, check)


def _tree_digest(root: Path) -> tuple[str, list[str]]:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    for rel in files:
        h.update(rel.encode() + b"\0")
        h.update((root / rel).read_bytes())
    return h.hexdigest(), files


def _tree_check(out_dir: Path) -> Callable[[Any], str | None]:
    """Gate: the first pass fixes the tree digest; later passes must match it,
    and the manifest must list every file in the tree."""
    first: list[str] = []

    def check(result) -> str | None:
        _manifest, ok = result
        if not ok:
            return "run reported failure"
        digest, files = _tree_digest(out_dir)
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        if sorted(manifest["files"]) != files or "unmanaged_files" in manifest:
            return f"manifest lists {sorted(manifest['files'])}, tree holds {files}"
        if not first:
            first.append(digest)
        elif digest != first[0]:
            return "artifact tree differs from the warm-up pass"
        return None

    return check


def _scenario_job(spec: dict, inputs: Path, out_dir: Path) -> Job:
    from poismech import cli

    config_path = inputs / spec["config"]
    fmt = spec["format"]
    if spec["kind"] == "run":
        def run():
            return cli.run_scenario(cli.load_config(config_path), out_dir, fmt)
    else:
        param, values = spec["param"], spec["values"]

        def run():
            config = cli.load_config(config_path)
            return cli.sweep_scenario(config, param, values, out_dir, fmt, workers=1)

    label = f"{spec['kind']}_{Path(spec['config']).stem.split('_')[0]}_{fmt}"
    return Job(label, run, _tree_check(out_dir))


def load_jobs(workload: str, inputs: Path, scratch: Path) -> tuple[list[Job], FlowStats]:
    """Build the job list from generated inputs; scenario jobs write under scratch."""
    specs = json.loads((inputs / "jobs.json").read_text(encoding="utf-8"))
    stats = FlowStats()
    jobs = []
    for i, spec in enumerate(specs):
        kind = spec["kind"]
        if kind.endswith("_certificate"):
            jobs.append(_certificate_job(spec))
        elif kind == "witness":
            jobs.append(_witness_job(spec))
        elif kind == "su2_flow":
            jobs.append(_su2_flow_job(spec, stats))
        elif kind == "canonical_flow":
            jobs.append(_canonical_flow_job(spec))
        elif kind in ("run", "sweep"):
            jobs.append(_scenario_job(spec, inputs, scratch / f"job{i:03d}"))
        else:
            raise ValueError(f"unknown job kind {kind!r}")
    return jobs, stats
