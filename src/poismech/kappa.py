"""kappa-type deformation of (1+d)-dimensional Minkowski space-time.

The bivector couples time translation to the spatial dilation:

    {x^0, x^k} = epsilon x^k,      {x^j, x^k} = 0,

i.e. pi = epsilon d_0 ^ (sum_k x^k d_k).  Velocity-momentum profiles compare
free motion seen through the ordinary cotangent projection against the two
groupoid projections: the trajectory on the mass shell p^2 = m^2 (metric
signature +,-,...,-) is an ordinary straight line, and each projection maps
it to another straight line, so each coordinate speed |dx_vec / dx^0| is
read as the chord between a curve's first and last sample.

``MODEL`` is the scenario record: parameters (with the projection-pole and
horizon checks), the trajectory, projection and profile artifacts, the
certificate and the sweep row.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bracket import BivectorSpec
from .errors import ConfigError, ContractViolation
from .fitting import collinearity_residual, monotonicity_verdict
from .flow import Trajectory
from .generators import AbelianRSpec, GeneratorField, scaling, translation, wedge_bivector
from .groupoid import ShiftedRSpec, groupoid_projection, project_trajectory, shifted_bivector
from .model import INT, REAL, ArtifactData, Bracket, CertCheck, Model, Param, Params

__all__ = [
    "KappaSpec",
    "kappa_bivector",
    "kappa_rspec",
    "free_shell_trajectory",
    "velocity_momentum_profile",
    "closed_form_speeds",
    "classical_limit_deviation",
    "projected_speed_deviation",
    "MODEL",
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


@functools.lru_cache(maxsize=None)
def _generators(dim: int) -> tuple[GeneratorField, GeneratorField]:
    """The time translation d_0 and the spatial dilation sum_k x^k d_k on
    the (1+d)-chart, built once per chart dim and shared."""
    e0 = np.zeros(dim)
    e0[0] = 1.0
    return translation(e0), scaling(range(1, dim), dim)


def kappa_bivector(spec: KappaSpec) -> BivectorSpec:
    X1, X2 = _generators(spec.dim)
    return wedge_bivector(spec.epsilon, X1, X2, spec.coord_names)


def kappa_rspec(spec: KappaSpec) -> AbelianRSpec:
    X1, X2 = _generators(spec.dim)
    return AbelianRSpec(spec.epsilon, X1, X2)


# the profile works through its momenta in chunks, and every array a chunk
# builds (the shell ends and the three stacked base curves) holds at most
# this many floats, the bound every array of a run keeps
_CHUNK_FLOATS = 2**24


def _shell_energy(mass: float, p_spatial: np.ndarray) -> np.ndarray:
    """p0 = sqrt(mass^2 + p_vec @ p_vec) per row of spatial momenta (..., d),
    taken of mass and momenta scaled by the power of two of the larger, so
    tiny ones square to no subnormal; a power of two scales exactly, so p0
    keeps its bits wherever the plain squares are normal."""
    _, e = np.frexp(np.maximum(mass, np.max(np.abs(p_spatial), axis=-1)))
    m, q = np.ldexp(mass, -e), np.ldexp(p_spatial, -e[..., None])
    return np.ldexp(np.sqrt(m * m + (q[..., None, :] @ q[..., :, None])[..., 0, 0]), e)


def _shells(spec: KappaSpec, mass: float, p_spatial: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Phase states (m, n, 2(1+d)) at the n sample times ``ts`` of the
    straight shell lines p^2 = m^2 from the origin, one per row of the (m, d)
    spatial momenta.  A row at time t depends on t alone, so the states at a
    slice of a time grid are that slice of the states on the whole grid.

    With H = p^2 = p_0^2 - sum_k p_k^2 and xdot = {H, x} under the canonical
    bracket {x^i, p_j} = delta, the velocity is (-2 p_0, +2 p_vec).
    """
    if mass <= 0:
        raise ContractViolation("mass must be positive")
    d = spec.dim
    p0 = _shell_energy(mass, p_spatial)[:, None]
    pts = np.empty((len(p_spatial), len(ts), 2 * d))
    vel = np.concatenate([-2.0 * p0, 2.0 * p_spatial], axis=1)
    pts[..., :d] = ts[:, None] * vel[:, None, :] + 0.0  # + 0.0: the t = 0 row is +0.0, not -0.0
    pts[..., d:] = np.concatenate([p0, p_spatial], axis=1)[:, None, :]
    return pts


def free_shell_trajectory(
    spec: KappaSpec,
    mass: float,
    p_spatial: np.ndarray,
    t_span: float,
    n_samples: int,
) -> Trajectory:
    """Straight-line free motion on the shell p^2 = m^2 from the origin as a
    phase-space trajectory (rows (x, p) on the 2(1+d)-chart); the one-momentum
    case of the profile's stacked shells."""
    p_spatial = np.asarray(p_spatial, dtype=float)
    if p_spatial.shape != (spec.spatial_dim,):
        raise ContractViolation("spatial momentum has wrong dimension")
    ts = np.linspace(0.0, t_span, n_samples)
    return Trajectory(ts, _shells(spec, mass, p_spatial[None], ts)[0])


def _chord_speed(points: np.ndarray) -> np.ndarray:
    """|dx_vec / dx^0| of sampled base curves (..., N, 1+d), one speed per
    curve, read from the chord between the first and last sample: every
    curve is affine in t (see ``closed_form_speeds``), so its chord is its
    speed.  The norm is taken of each quotient row scaled by the power of
    two of its largest entry and scaled back, so a speed below
    sqrt(DBL_MIN) squares to no subnormal; a power of two scales exactly, so
    every other speed keeps its bits."""
    dx = points[..., -1, :] - points[..., 0, :]
    q = dx[..., 1:] / np.abs(dx[..., :1])
    _, e = np.frexp(np.max(np.abs(q), axis=-1))
    return np.ldexp(np.linalg.norm(np.ldexp(q, -e[..., None]), axis=-1), e)


_FAMILIES = ("ordinary", "left", "right")


def velocity_momentum_profile(
    spec: KappaSpec,
    mass: float,
    p_grid: np.ndarray,
    t_span: float = 3.0,
) -> dict[str, dict]:
    """Tables of the speeds v(p) of the three families: the ordinary shell
    lines and their left and right groupoid projections.

    Momenta point along the first spatial axis with magnitude p.  Returns
    {'ordinary', 'left', 'right'}, each a dict with the sorted momenta 'p',
    the speeds 'v' and the 'verdict' of monotonicity in p.

    A speed is the chord of its curve over [0, t_span], so the shells are
    built at t = 0 and t_span alone.  The shell ends of all momenta are one
    stacked array, projected once per side; the chords of the ordinary, left
    and right base curves are read from one stack of the three.  Momenta go
    in chunks in which every array holds at most 2^24 floats, so the memory
    is bounded whatever the number of momenta.
    """
    p_grid = np.sort(np.asarray(p_grid, dtype=float))
    if np.any(p_grid <= 0):
        raise ContractViolation("profile momenta must be positive")
    r = kappa_rspec(spec)
    d = spec.dim
    ts = np.array([0.0, t_span])
    # the three stacked base curves, 3 n d floats a momentum, are the largest array
    per_chunk = max(1, _CHUNK_FLOATS // (3 * ts.size * d))
    vs = np.empty((len(_FAMILIES), p_grid.size))
    for lo in range(0, p_grid.size, per_chunk):
        pvec = np.zeros((min(per_chunk, p_grid.size - lo), spec.spatial_dim))
        pvec[:, 0] = p_grid[lo:lo + per_chunk]
        shells = _shells(spec, mass, pvec, ts)
        x, p = shells[..., :d], shells[..., d:]
        left, right = (groupoid_projection(r, x, p, side) for side in ("left", "right"))
        vs[:, lo:lo + len(pvec)] = _chord_speed(np.stack([x, left, right]))
    return {
        kind: {"p": p_grid, "v": v, "verdict": monotonicity_verdict(v)}
        for kind, v in zip(_FAMILIES, vs)
    }


def closed_form_speeds(spec: KappaSpec, mass: float, p: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact asymptotic speeds of the left/right projected shell lines, at
    one momentum or an array of them (two arrays of p's shape).

    The projections act on a phase point by a time translation through half
    the deformed spatial moment and a spatial rescaling through half the
    energy moment; on the straight shell trajectory both effects are affine
    in t, giving

        v_left  = exp(+(eps/2) p0) * p / (p0 + (eps/2) p^2),
        v_right = exp(-(eps/2) p0) * p / (p0 - (eps/2) p^2),

    with p0 = sqrt(m^2 + p^2).  The right denominator vanishes at
    p0 = (eps/2) p^2 (eps > 0), the left one at p0 = -(eps/2) p^2
    (eps < 0); momenta at or beyond either pole are rejected, and so are
    momenta whose denominator is not a number (the squares overflowed).  The
    error names the first such momentum.
    """
    if mass <= 0:
        raise ContractViolation("mass must be positive")
    p = np.asarray(p, dtype=float)[()]  # one momentum as a numpy scalar, whose arithmetic is cheaper
    if (p <= 0).any():
        raise ContractViolation("speed profile momenta must be positive")
    e = spec.epsilon
    p0 = _shell_energy(mass, p[..., None])
    denom_l = p0 + 0.5 * e * p * p
    denom_r = p0 - 0.5 * e * p * p
    for side, denom in (("left", denom_l), ("right", denom_r)):
        if not (denom > 0).all():
            first = np.ravel(p)[np.argmin(denom > 0)]
            raise ContractViolation(f"{side} projection degenerates at p = {float(first)} for epsilon = {e}")
    v_left = np.exp(0.5 * e * p0) * p / denom_l
    v_right = np.exp(-0.5 * e * p0) * p / denom_r
    return v_left, v_right


def _mean_deviation(mass: float, profiles: dict[str, dict]) -> float:
    """max_p |(v_left + v_right)/2 - p / sqrt(p^2 + m^2)| over the momenta
    of a profile.

    The symmetric mean of the two groupoid-projected speeds is even in
    epsilon (left at epsilon is right at -epsilon), so its deviation from
    the undeformed speed closes at O(eps^2); either side alone deviates at
    O(eps).
    """
    p = profiles["left"]["p"]
    v0 = p / _shell_energy(mass, p[:, None])
    return float(np.max(np.abs(0.5 * (profiles["left"]["v"] + profiles["right"]["v"]) - v0)))


def classical_limit_deviation(epsilon: float) -> float:
    """The symmetric mean's deviation from the undeformed speed (see
    ``_mean_deviation``) at mass 1 on the fixed grid p in [0.2, 2].  A grid
    momentum at or past a projection pole is a ``ContractViolation``, as in
    ``closed_form_speeds``.
    """
    p_grid = np.linspace(0.2, 2.0, 10)
    spec = KappaSpec(epsilon)
    closed_form_speeds(spec, 1.0, p_grid)  # raises past a pole: a speed measured there is garbage
    return _mean_deviation(1.0, velocity_momentum_profile(spec, 1.0, p_grid))


def projected_speed_deviation(spec: KappaSpec, mass: float, profiles: dict[str, dict]) -> float:
    """Worst |measured - closed form| of the 'left' and 'right' speed
    profiles over their momenta; NaN and inf propagate."""
    closed = np.column_stack(closed_form_speeds(spec, mass, profiles["left"]["p"]))
    measured = np.column_stack([profiles["left"]["v"], profiles["right"]["v"]])
    return float(np.max(np.abs(measured - closed), initial=0.0))


# ---------------------------------------------------------------------------
# scenario record

# The size bounds keep every float array a run builds within 2^24 values
# (128 MiB) and every artifact near 2^24 cells (a few hundred MB of text):
# the shifted certificate bracket lives on 2(1+d) <= 256 coordinates, so its
# Jacobi tensor has (2(1+d))^3 <= 2^24 entries, and the trajectory holds
# n_samples x 2(1+d) <= 2^24 values.  The profile builds each shell at
# t = 0 and t_span alone and works in chunks of momenta whose largest array,
# the three stacked base curves of 3 x 2 (1+d) floats a momentum, holds at
# most 2^24 floats, so n_p bounds the run time, not the memory; it shares
# the bound.  A chord needs two samples.
PARAMS = {
    "epsilon": Param(REAL),
    "mass": Param(REAL, 1.0, positive=True),
    "p": Param(REAL, 1.0, positive=True),
    "spatial_dim": Param(INT, 3, minimum=1, maximum=127),
    "t_span": Param(REAL, 3.0, positive=True),
    "n_samples": Param(INT, 64, minimum=2, maximum=2**16),
    "p_min": Param(REAL, 0.2, positive=True),
    "p_max": Param(REAL, 2.0),
    "n_p": Param(INT, 10, minimum=2, maximum=2**16),
}


def _spec(p: Params) -> KappaSpec:
    return KappaSpec(p["epsilon"], p["spatial_dim"])


# The largest values a run computes.  The shell with momentum p along x^1
# is x^0 = -2 p0 t, x^1 = 2 p t.  The projections take the moment
# J2 = 2 p^2 t, move x^0 by -+eps p^2 t and scale x^1 by exp(-+(eps/2) p0),
# so at the largest momentum q no coordinate exceeds C = t_span max(2 p0 +
# |eps| q^2, 2 q exp(|eps| p0 / 2)).  C <= DBL_MAX / 2 and 2 q^2 t_span <=
# DBL_MAX / 2 keep the coordinates and the moment finite, with a factor 2 to
# spare (the moment overflowed at epsilon 0 and p 1e150, making x^0 NaN).
# The collinearity residual and the chords scale before they square.
def _t_span_max(p: Params) -> float:
    """The largest t_span within both bounds above, 0 where max(...)
    overflows; needs |eps| p0 / 2 < log(DBL_MAX) and a finite mass^2 + q^2."""
    q = max(p["p"], p["p_max"])
    p0 = math.hypot(p["mass"], q)
    e = abs(p["epsilon"])
    c = max(2.0 * p0 + e * q * q, 2.0 * q * math.exp(0.5 * e * p0))
    # DBL_MAX / 2 and / 4 are exact: the bits of DBL_MAX / (2 c) and / (4 q^2)
    return min(sys.float_info.max / 2.0 / c, sys.float_info.max / 4.0 / (q * q))


# The smallest coordinate speeds on the same curves, at momenta q from
# min(p, p_min) to max(p, p_max): |dx^0/dt| >= a = 2 p0 - |eps| q^2 and
# |dx^1/dt| >= c = 2 q exp(-|eps| p0 / 2).  Both rise and then fall in q, so
# their least values are at the two end momenta; a > 0 there once neither
# end is at a projection pole.  A speed is the chord x(t_span) - x(0) of its
# curve, whose differences in x^0 and x^1 are at least t_span a and
# t_span c in size.  A difference below DBL_MIN is subnormal and rounds by
# up to 2^-1075, no longer a relative u = 2^-53 (at t_span = 1e-320 the
# speeds came out 9e-4 off); t_span min(a, c) >= 2 DBL_MIN keeps both
# differences normal, with a factor 2 to spare for rounding.  The
# trajectory's times are t_span / (n_samples - 1) apart, and
# t_span >= (n_samples - 1) DBL_MIN keeps that spacing normal, so they
# increase strictly (on fast curves the chord bound alone falls near
# 1e-322, where they do not).
def _t_span_min(p: Params) -> float:
    """The smallest t_span within both bounds above."""
    e = abs(p["epsilon"])
    a = c = math.inf
    for q in (min(p["p"], p["p_min"]), max(p["p"], p["p_max"])):
        p0 = math.hypot(p["mass"], q)
        a = min(a, 2.0 * (p0 - 0.5 * e * q * q))
        c = min(c, 2.0 * q * math.exp(-0.5 * e * p0))
    if not (a > 0.0 and c > 0.0):
        return math.inf
    return sys.float_info.min * max(2.0 / min(a, c), p["n_samples"] - 1)


def _check(p: Params) -> None:
    if p["p_max"] <= p["p_min"]:
        raise ConfigError("params.p_max", "must exceed p_min")
    # the projections scale the shell by exp(-+(eps/2) p0), p0 = sqrt(mass^2 + p^2),
    # so the squares behind p0, exp(|eps| p0 / 2) and the coordinate scale
    # (t_span_max > 0) must be floats; the largest momentum sets p0, and the
    # larger of it and the mass is named
    q = "p_max" if p["p_max"] >= p["p"] else "p"
    field = f"params.{q}" if p[q] > p["mass"] else "params.mass"
    exponent = 0.5 * abs(p["epsilon"]) * math.hypot(p["mass"], p[q])
    squares = p["mass"] * p["mass"] + p[q] * p[q]
    finite = exponent < math.log(sys.float_info.max) and squares <= sys.float_info.max
    t_max = _t_span_max(p) if finite else 0.0
    if not t_max > 0.0:
        raise ConfigError(
            field,
            f"the projections scale the shell by exp(|epsilon| p0 / 2), p0 = sqrt(mass^2 + {q}^2), and "
            f"its coordinates by 2 {q} exp(|epsilon| p0 / 2): at the exponent {exponent:.6g} one of "
            f"mass^2 + {q}^2, the exponential and that scale overflows a float",
        )
    # one projection's speed has a pole where the shell energy
    # sqrt(m^2 + p^2) meets |eps| p^2 / 2 (right for eps > 0, left for eps < 0)
    spec = _spec(p)
    for name in ("p_max", "p"):
        try:
            closed_form_speeds(spec, p["mass"], p[name])
        except ContractViolation as exc:
            raise ConfigError(
                f"params.{name}",
                f"momentum {p[name]} is at or past the projection pole "
                f"sqrt(mass^2 + p^2) = |epsilon| p^2 / 2",
            ) from exc
    t_min = _t_span_min(p)
    if not t_min <= t_max:
        # unless some t_span fits at epsilon 0, the subnormal speeds of the smallest momentum are to blame
        flat = {**p, "epsilon": 0.0}
        if not _t_span_min(flat) <= _t_span_max(flat):
            field = "params.p_min" if p["p_min"] <= p["p"] else "params.p"
        raise ConfigError(
            field,
            f"no t_span fits: the coordinates, growing like exp(|epsilon| p0 / 2) = exp({exponent:.6g}), "
            f"overflow past t_span = {t_max:.6g}, and the chords lose precision below {t_min:.6g}",
        )
    if not p["t_span"] <= t_max:
        raise ConfigError(
            "params.t_span",
            "the shell and its projections reach coordinates of size t_span * max(2 p0 + "
            "|epsilon| p^2, 2 p exp(|epsilon| p0 / 2)) and a moment 2 t_span p^2 at the largest "
            f"momentum; both stay finite for t_span <= {t_max:.6g}",
        )
    if not p["t_span"] >= t_min:
        raise ConfigError(
            "params.t_span",
            "a speed is the chord of its curve, whose coordinate differences of size t_span "
            "times the slowest speeds 2 p0 - |epsilon| p^2 and 2 p exp(-|epsilon| p0 / 2), and "
            "the sample spacing t_span / (n_samples - 1), fall below the normal float range "
            f"and lose precision for t_span < {t_min:.6g}",
        )


def _shell(p: Params, spec: KappaSpec) -> Trajectory:
    pvec = np.zeros(spec.spatial_dim)
    pvec[0] = p["p"]
    return free_shell_trajectory(spec, p["mass"], pvec, p["t_span"], p["n_samples"])


def _trajectory(p: Params) -> ArtifactData:
    spec = _spec(p)
    traj = _shell(p, spec)
    d = spec.dim
    names = spec.coord_names + tuple(f"p{k}" for k in range(d))
    columns = {"t": traj.times, **dict(zip(names, traj.points.T))}
    mom = traj.points[0, d:]
    energy = mom[0] ** 2 - float(mom[1:] @ mom[1:])
    summary = {
        "speed_ordinary": float(_chord_speed(traj.points[:, :d])),
        "mass_shell_residual": abs(energy - p["mass"] ** 2),
    }
    return ArtifactData("trajectory", columns, summary)


def _projection(p: Params) -> ArtifactData:
    spec = _spec(p)
    r = kappa_rspec(spec)
    traj = _shell(p, spec)
    left = project_trajectory(r, traj, "left")
    right = project_trajectory(r, traj, "right")
    columns = {
        "t": traj.times,
        **{f"left_{n}": col for n, col in zip(spec.coord_names, left.points.T)},
        **{f"right_{n}": col for n, col in zip(spec.coord_names, right.points.T)},
    }
    measured = _chord_speed(np.stack([left.points, right.points])).tolist()
    closed = closed_form_speeds(spec, p["mass"], p["p"])
    summary = {
        "collinearity_left": collinearity_residual(left.points),
        "collinearity_right": collinearity_residual(right.points),
        "v_left": measured[0],
        "v_right": measured[1],
        "closed_form_dev": float(np.max(np.abs(np.subtract(measured, closed)))),
    }
    return ArtifactData("projection", columns, summary)


def _profile(p: Params) -> ArtifactData:
    p_grid = np.linspace(p["p_min"], p["p_max"], p["n_p"])
    prof = velocity_momentum_profile(_spec(p), p["mass"], p_grid, p["t_span"])
    columns = {"p": prof["ordinary"]["p"], **{f"v_{k}": prof[k]["v"] for k in prof}}
    summary = {f"verdict_{k}": prof[k]["verdict"] for k in prof}
    return ArtifactData("profile", columns, summary)


_CERT_MOMENTA = (0.5, 1.0, 1.5)  # the certificate's speed check runs at these momenta

# projected_speed_closed_form's threshold, in u = 2^-53 of (1 + p0 / |D|) times
# the speed, D = p0 -+ A its denominator, A = |eps| p^2 / 2: both speeds cancel
# in D, so near a pole they round like p0 / |D|.  The chord's x^0 sums 2 p0 t
# and 2 A t (1 and 3 roundings) into 2 |D| t (1 more), so it is off by
# u (p0 + 3 A + |D|) / |D|, and x^1, the quotient and the norm add 5.5 u; the
# closed form's D is off by u (2 A + |D|) / |D|, and exp, product and quotient
# add 3 u.  As A <= p0 + |D|, the gap is at most (6 p0 / |D| + 15.5) u of the
# speed.  4200 epsilons at masses 0.25, 1 and 3, to within 1e-12 of both
# poles, read at most 2.9 u.
_SPEED_TOL = 16 * 2.0**-53


def _certificate_check(p: Params, field: str) -> None:
    """No momentum of the certificate's speed check may sit at a projection pole."""
    spec = _spec(p)
    try:
        with np.errstate(over="ignore"):  # from |eps| ~ 1.6e308 eps p^2 / 2 overflows, past a pole
            closed_form_speeds(spec, p["mass"], _CERT_MOMENTA)
    except ContractViolation as exc:
        raise ConfigError(field, f"{exc}; the speed check needs momenta {_CERT_MOMENTA}") from exc


def _certificate(p: Params, seed: int, n_points: int) -> list[CertCheck]:
    """The projected shell speeds against their closed forms at three
    momenta, each gap over (1 + p0 / |D|) times its speed (see
    ``_SPEED_TOL``)."""
    spec, mass = _spec(p), p["mass"]
    profiles = velocity_momentum_profile(spec, mass, _CERT_MOMENTA)
    q = profiles["left"]["p"][:, None]
    p0 = _shell_energy(mass, q)[:, None]
    closed = np.column_stack(closed_form_speeds(spec, mass, q[:, 0]))
    gap = np.abs(np.column_stack([profiles["left"]["v"], profiles["right"]["v"]]) - closed)
    scale = (1.0 + p0 / np.abs(p0 + np.array([0.5, -0.5]) * spec.epsilon * q * q)) * closed  # D: left, right
    return [CertCheck("projected_speed_closed_form", float(np.max(gap / scale)), _SPEED_TOL)]


def _sweep_row(p: Params) -> dict:
    spec = _spec(p)
    p_grid = np.linspace(p["p_min"], p["p_max"], p["n_p"])
    prof = velocity_momentum_profile(spec, p["mass"], p_grid, p["t_span"])
    return {
        "classical_limit_dev": _mean_deviation(p["mass"], prof),
        "closed_speed_dev": projected_speed_deviation(spec, p["mass"], prof),
        "v_left_verdict": prof["left"]["verdict"],
        "v_right_verdict": prof["right"]["verdict"],
    }


MODEL = Model(
    name="kappa",
    params=PARAMS,
    check=_check,
    artifacts={"trajectory": _trajectory, "projection": _projection, "profile": _profile},
    # each bracket with the data the certificate proves it from
    brackets={"base": Bracket(lambda p: kappa_bivector(_spec(p)), r=lambda p: kappa_rspec(_spec(p))),
              "shifted": Bracket(lambda p: shifted_bivector(kappa_rspec(_spec(p))),
                                 r=lambda p: ShiftedRSpec(kappa_rspec(_spec(p))))},
    certificate=_certificate,
    certificate_check=_certificate_check,
    sweep_row=_sweep_row,
)
