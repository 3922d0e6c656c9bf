"""kappa-type deformation of (1+d)-dimensional Minkowski space-time.

The bivector couples time translation to the spatial dilation:

    {x^0, x^k} = epsilon x^k,      {x^j, x^k} = 0,

i.e. pi = epsilon d_0 ^ (sum_k x^k d_k).  Velocity-momentum profiles compare
free motion seen through the ordinary cotangent projection against the two
groupoid projections: the trajectory on the mass shell p^2 = m^2 (metric
signature +,-,...,-) is an ordinary straight line, and each projection maps
it to another straight line whose coordinate speed |dx_vec / dx^0| is
extracted by a least-squares tail fit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bracket import BivectorSpec
from .errors import ContractViolation
from .fitting import monotonicity_verdict, tail_velocity
from .flow import Trajectory
from .generators import AbelianRSpec, scaling, translation, wedge_bivector
from .groupoid import project_trajectory

__all__ = [
    "KappaSpec",
    "kappa_bivector",
    "kappa_rspec",
    "free_shell_trajectory",
    "velocity_momentum_profile",
    "closed_form_speeds",
    "classical_limit_deviation",
]


@dataclass(frozen=True)
class KappaSpec:
    """Deformation strength and spatial dimension."""

    epsilon: float
    spatial_dim: int = 3

    def __post_init__(self):
        if self.spatial_dim < 1:
            raise ContractViolation("need at least one spatial dimension")

    @property
    def dim(self) -> int:
        return 1 + self.spatial_dim

    @property
    def coord_names(self) -> tuple[str, ...]:
        return ("x0",) + tuple(f"x{k}" for k in range(1, self.dim))


def _generators(spec: KappaSpec):
    e0 = np.zeros(spec.dim)
    e0[0] = 1.0
    X1 = translation(e0)
    X2 = scaling(range(1, spec.dim), spec.dim)
    return X1, X2


def kappa_bivector(spec: KappaSpec) -> BivectorSpec:
    X1, X2 = _generators(spec)
    return wedge_bivector(spec.epsilon, X1, X2, spec.coord_names)


def kappa_rspec(spec: KappaSpec) -> AbelianRSpec:
    X1, X2 = _generators(spec)
    return AbelianRSpec(spec.epsilon, X1, X2)


def free_shell_trajectory(
    spec: KappaSpec,
    mass: float,
    p_spatial: np.ndarray,
    t_span: float = 3.0,
    n_samples: int = 64,
    x0: np.ndarray | None = None,
) -> Trajectory:
    """Straight-line free motion on the shell p^2 = m^2 as a phase-space
    trajectory (rows (x, p) on the 2(1+d)-chart).

    With H = p^2 = p_0^2 - sum_k p_k^2 and xdot = {H, x} under the canonical
    bracket {x^i, p_j} = delta, the velocity is (-2 p_0, +2 p_vec).
    """
    if mass <= 0:
        raise ContractViolation("mass must be positive")
    p_spatial = np.asarray(p_spatial, dtype=float)
    if p_spatial.shape != (spec.spatial_dim,):
        raise ContractViolation("spatial momentum has wrong dimension")
    d = spec.dim
    p0 = float(np.sqrt(mass * mass + p_spatial @ p_spatial))
    mom = np.concatenate([[p0], p_spatial])
    vel = np.concatenate([[-2.0 * p0], 2.0 * p_spatial])
    base = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    ts = np.linspace(0.0, t_span, n_samples)
    pts = np.empty((n_samples, 2 * d))
    pts[:, :d] = base + ts[:, None] * vel
    pts[:, d:] = mom
    return Trajectory(ts, pts)


def _speed_of_curve(curve: Trajectory) -> float:
    """|dx_vec / dx^0| of a sampled base curve via the tail fit."""
    slopes = tail_velocity(curve.points[:, 0], curve.points[:, 1:])
    return float(np.linalg.norm(slopes))


def velocity_momentum_profile(
    spec: KappaSpec,
    mass: float,
    projection: str,
    p_grid: np.ndarray,
    t_span: float = 3.0,
    n_samples: int = 64,
) -> dict:
    """Table of asymptotic speeds v(p) for one projection family.

    projection is one of 'ordinary', 'left', 'right'.  Momenta point along
    the first spatial axis with magnitude p.  Returns a dict with sorted
    arrays 'p', 'v' and the 'verdict' of monotonicity in p.
    """
    if projection not in ("ordinary", "left", "right"):
        raise ContractViolation(f"unknown projection {projection!r}")
    p_grid = np.sort(np.asarray(p_grid, dtype=float))
    if np.any(p_grid <= 0):
        raise ContractViolation("profile momenta must be positive")
    r = kappa_rspec(spec)
    d = spec.dim
    vs = np.empty_like(p_grid)
    for i, p in enumerate(p_grid):
        pvec = np.zeros(spec.spatial_dim)
        pvec[0] = p
        traj = free_shell_trajectory(spec, mass, pvec, t_span, n_samples)
        if projection == "ordinary":
            curve = Trajectory(traj.times, traj.points[:, :d])
        else:
            curve = project_trajectory(r, traj, projection)
        vs[i] = _speed_of_curve(curve)
    return {"p": p_grid, "v": vs, "verdict": monotonicity_verdict(vs)}


def closed_form_speeds(spec: KappaSpec, mass: float, p: float) -> tuple[float, float]:
    """Exact asymptotic speeds of the left/right projected shell lines.

    The projections act on a phase point by a time translation through half
    the deformed spatial moment and a spatial rescaling through half the
    energy moment; on the straight shell trajectory both effects are affine
    in t, giving

        v_left  = exp(+(eps/2) p0) * p / (p0 + (eps/2) p^2),
        v_right = exp(-(eps/2) p0) * p / (p0 - (eps/2) p^2),

    with p0 = sqrt(m^2 + p^2).  The right denominator vanishes at
    p0 = (eps/2) p^2 (eps > 0), the left one at p0 = -(eps/2) p^2
    (eps < 0); momenta at or beyond either pole are rejected.
    """
    if mass <= 0:
        raise ContractViolation("mass must be positive")
    if p <= 0:
        raise ContractViolation("speed profile momenta must be positive")
    e = spec.epsilon
    p0 = float(np.sqrt(mass * mass + p * p))
    denom_l = p0 + 0.5 * e * p * p
    denom_r = p0 - 0.5 * e * p * p
    for side, denom in (("left", denom_l), ("right", denom_r)):
        if denom <= 0:
            raise ContractViolation(
                f"{side} projection degenerates at p = {p} for epsilon = {e}"
            )
    v_left = np.exp(0.5 * e * p0) * p / denom_l
    v_right = np.exp(-0.5 * e * p0) * p / denom_r
    return float(v_left), float(v_right)


def classical_limit_deviation(
    epsilon: float,
    mass: float = 1.0,
    p_grid: np.ndarray | None = None,
    spatial_dim: int = 3,
) -> float:
    """max_p |(v_left + v_right)/2 - v_classical|.

    The symmetric mean of the two groupoid-projected speeds is even in
    epsilon (left at epsilon is right at -epsilon), so the deviation from the
    undeformed p / sqrt(p^2 + m^2) closes at O(eps^2); either side alone
    deviates at O(eps).
    """
    if p_grid is None:
        p_grid = np.linspace(0.2, 2.0, 10)
    spec = KappaSpec(epsilon, spatial_dim)
    left = velocity_momentum_profile(spec, mass, "left", p_grid)["v"]
    right = velocity_momentum_profile(spec, mass, "right", p_grid)["v"]
    v0 = p_grid / np.sqrt(p_grid**2 + mass * mass)
    return float(np.max(np.abs(0.5 * (left + right) - v0)))
