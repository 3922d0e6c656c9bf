"""Two-dimensional Minkowski space-time with the quadratic light-cone
deformation.

In light-cone coordinates x+- = x0 +- x1 the deformed bracket is

    {x+, x-} = epsilon x+ x-,

the wedge of the two single-coordinate scalings.  Free-particle curves of
mass m come in two closed forms: axis-aligned hyperbolas

    (x+ - c+)(x- - c-) = -1 / (epsilon^2 m^2),   c+ c- < 0,

and the parametric momentum-space description

    q+(p) = e^{ alpha} sinh(eps p / 2)        / ((eps/2) m)
    q-(p) = e^{-alpha} sinh(eps (p - beta)/2) / ((eps/2) m),

whose p -> -+infinity velocity limits give the in/out scattering data: the
hyperbolic tangents of alpha -+ |eps| beta / 4.  Both q+- are even in eps, so
the curves at -eps are those at eps, and p -> -infinity is the incoming end
(x0 -> -infinity) for either sign.

``MODEL`` is the scenario record: parameters, the trajectory, projection and
scattering artifacts, the certificate and the sweep row.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractViolation
from .fitting import collinearity_residual
from .flow import Trajectory, _sample_times
from .generators import AbelianRSpec, GeneratorField, cotangent_lift, scaling, wedge_bivector
from .groupoid import ShiftedRSpec, project_trajectory, shifted_bivector
from .model import INT, REAL, ArtifactData, Bracket, CertCheck, Model, Param, Params

__all__ = [
    "Minkowski2DSpec",
    "minkowski2d_rspec",
    "hyperbola_curve",
    "hyperbola_residual",
    "parametric_trajectory_2d",
    "scattering_data",
    "scattering_limits_numeric",
    "scattering_check",
    "classical_limit_deviation",
    "MODEL",
]

COORD_NAMES = ("x_plus", "x_minus")

# The numeric scattering limits read the velocity at
# p = -+(_P_SCALE / |epsilon| + |beta|), _P_SCALE / |epsilon| past both waists
# (q+ = 0 at p = 0, q- = 0 at p = beta), so every sinh argument there has
# magnitude 20 to 20 + |epsilon beta|.  sinh(x) < e^x / 2 stays below half
# the largest float up to x = ln(DBL_MAX), which bounds |epsilon beta|.
_P_SCALE = 40.0
_EPS_BETA_MAX = math.log(sys.float_info.max) - _P_SCALE / 2.0
_CERT_BETA = 2.0  # largest |beta| of the certificate's curve grid

# The scattering artifact evaluates q+ = e^alpha g(p) / m and
# q- = e^-alpha g(p - beta) / m over linspace(p_min, p_max), with
# g(r) = sinh(eps r / 2) / (eps / 2) (g(r) = r at eps = 0), then q+ - q- and
# q+ + q- in _velocity; at eps != 0 the numeric limits read the same curves,
# for beta and -beta, at p = -+(_P_SCALE / |eps| + |beta|).  |g(r)| grows
# with |r|, so its largest value over the grid is at an end.  Keeping
# e^|alpha| |g| / m within DBL_MAX / 2 at those points keeps |q+-| there
# below DBL_MAX / 2 and their sum and difference finite; |g| / m stays within
# DBL_MAX / 4 as well, whatever alpha.
_CURVE_MAX = sys.float_info.max / 2.0

# The hyperbola trajectory samples x+ = c+ + linspace(0.2, 3.0, n_samples).
_HYPERBOLA_OFFSETS = (0.2, 3.0)


@dataclass(frozen=True)
class Minkowski2DSpec:
    """Deformation strength and particle mass for the 2D model."""

    epsilon: float
    mass: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ContractViolation("mass must be positive")


# the two single-coordinate scalings x+ d+ and x- d-, built once and shared,
# together with the cotangent lifts each of them caches
_X_PLUS, _X_MINUS = scaling([0], 2), scaling([1], 2)


def minkowski2d_rspec(spec: Minkowski2DSpec) -> AbelianRSpec:
    """The commuting-generator pair (x+ d+, x- d-) with strength epsilon."""
    return AbelianRSpec(spec.epsilon, _X_PLUS, _X_MINUS)


def hyperbola_curve(
    spec: Minkowski2DSpec,
    c_plus: float,
    c_minus: float,
    grid: np.ndarray,
) -> np.ndarray:
    """Sample the free-particle hyperbola branch over a grid of x+ values.

    Requires c+ c- < 0 and epsilon != 0; the grid must avoid x+ = c+.
    Returns rows (x+, x-).
    """
    if spec.epsilon == 0.0:
        raise ContractViolation("hyperbola curve needs epsilon != 0")
    if c_plus * c_minus >= 0:
        raise ContractViolation("hyperbola centers need c+ c- < 0")
    grid = np.asarray(grid, dtype=float)
    if np.any(grid == c_plus):
        raise ContractViolation("grid touches the vertical asymptote x+ = c+")
    K = -1.0 / (spec.epsilon**2 * spec.mass**2)
    x_minus = c_minus + K / (grid - c_plus)
    return np.column_stack([grid, x_minus])


def hyperbola_residual(spec: Minkowski2DSpec, c_plus: float, c_minus: float,
                       points: np.ndarray) -> float:
    """max |(x+ - c+)(x- - c-) - K| over sampled points."""
    P = np.asarray(points, dtype=float)
    K = -1.0 / (spec.epsilon**2 * spec.mass**2)
    vals = (P[:, 0] - c_plus) * (P[:, 1] - c_minus)
    return float(np.max(np.abs(vals - K)))


def parametric_trajectory_2d(spec: Minkowski2DSpec, alpha, beta, p_grid: np.ndarray) -> np.ndarray:
    """Rows (p, q+, q-) of the parametric free-particle curve with
    rapidity-like offset ``alpha`` and shift ``beta``.

    Arrays ``alpha`` and ``beta`` broadcast to a grid of curves; ``p_grid``
    of shape (..., N) broadcasts against that grid, and the result is the
    (..., N, 3) stack of every curve's rows.  At epsilon = 0 the curve
    degenerates to the straight line q+ = e^alpha p / m,
    q- = e^{-alpha} (p - beta) / m.
    """
    p = np.asarray(p_grid, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    beta = np.asarray(beta, dtype=float)[..., None]
    e, m = spec.epsilon, spec.mass
    if e == 0.0:
        qp = np.exp(alpha) * p / m
        qm = np.exp(-alpha) * (p - beta) / m
    else:
        qp = np.exp(alpha) * np.sinh(e * p / 2.0) / ((e / 2.0) * m)
        qm = np.exp(-alpha) * np.sinh(e * (p - beta) / 2.0) / ((e / 2.0) * m)
    rows = np.empty(qm.shape + (3,))  # q- depends on p, alpha and beta alike
    rows[..., 0], rows[..., 1], rows[..., 2] = p, qp, qm
    return rows


def _velocity(q: np.ndarray) -> np.ndarray:
    """Coordinate velocity q1/q0 = (q+ - q-)/(q+ + q-) of parametric rows
    (..., 3) of (p, q+, q-), with q0 = (q+ + q-)/2 and q1 = (q+ - q-)/2; NaN
    where q+ + q- = 0."""
    qp, qm = q[..., 1], q[..., 2]
    return np.divide(qp - qm, qp + qm, out=np.full(qp.shape, math.nan), where=qp + qm != 0)


def scattering_data(spec: Minkowski2DSpec, alpha, beta):
    """(v_in, v_out): the p -> -infinity / +infinity velocity limits,
    v_in = tanh(alpha - |eps| beta / 4) and v_out = tanh(alpha + |eps| beta / 4),
    each of the broadcast shape of ``alpha`` and ``beta``."""
    shift = abs(spec.epsilon) * beta / 4.0
    return np.tanh(alpha - shift), np.tanh(alpha + shift)


def scattering_limits_numeric(spec: Minkowski2DSpec, alpha, beta):
    """Direct velocity evaluation at p = -+(40 / |epsilon| + |beta|), past
    both waists, of the broadcast shape of ``alpha`` and ``beta``.  At
    epsilon = 0 the curve is the straight line, whose velocity tends to
    tanh(alpha) at both ends only like beta / p, so the limits are that
    closed form."""
    if spec.epsilon == 0.0:
        v = np.tanh(np.broadcast_arrays(alpha, beta)[0])
        return v[()], v[()]  # [()] makes one curve's 0-d limits scalars
    p_inf = _P_SCALE / abs(spec.epsilon) + np.abs(beta)
    v = _velocity(parametric_trajectory_2d(spec, alpha, beta, np.multiply.outer(p_inf, (-1.0, 1.0))))
    return v[..., 0][()], v[..., 1][()]


def classical_limit_deviation(
    epsilon: float,
    mass: float = 1.0,
    alpha: float = 0.3,
    beta: float = 2.0,
) -> float:
    """max |q(eps; p) - q(0; p)| over 25 points of p in [-3, 3] — O(eps^2),
    since the parametric curve is even in eps."""
    p_grid = np.linspace(-3.0, 3.0, 25)
    q_eps = parametric_trajectory_2d(Minkowski2DSpec(epsilon, mass), alpha, beta, p_grid)
    q_zero = parametric_trajectory_2d(Minkowski2DSpec(0.0, mass), alpha, beta, p_grid)
    return float(np.max(np.abs(q_eps[:, 1:] - q_zero[:, 1:])))


def _scattering_defects(spec: Minkowski2DSpec, alpha, beta):
    """Closed-form and numeric (v_in, v_out) of a curve or a grid of curves,
    the closed-vs-numeric mismatch (the larger of the in and out ones) and
    the odd defect |shift(beta) + shift(-beta)| of the numeric velocity shift
    v_out - v_in, which is zero when the shift is odd in beta."""
    closed = scattering_data(spec, alpha, beta)
    v_in, v_out = scattering_limits_numeric(spec, alpha, beta)
    f_in, f_out = scattering_limits_numeric(spec, alpha, -beta)
    mismatch = np.maximum(np.abs(closed[0] - v_in), np.abs(closed[1] - v_out))
    return closed, (v_in, v_out), mismatch, np.abs((v_out - v_in) + (f_out - f_in))


def scattering_check(spec: Minkowski2DSpec, alphas, betas) -> tuple[float, float]:
    """Worst closed-vs-numeric mismatch and worst odd defect over the
    (alpha, beta) grid, evaluated as one array; NaN and inf propagate."""
    alphas, betas = np.asarray(alphas, dtype=float)[:, None], np.asarray(betas, dtype=float)
    _, _, mismatch, odd = _scattering_defects(spec, alphas, betas)
    return float(np.max(mismatch, initial=0.0)), float(np.max(odd, initial=0.0))


# ---------------------------------------------------------------------------
# scenario record

_PHASE0 = np.array([1.0, 1.0, 0.35, -0.8])  # (x+, x-, p+, p-) at t = 0
# The projection flow is the moment flow of H = J1 - J2, J1 = p+ x+ = 0.35 and
# J2 = p- x- = -0.8 (both constant): the lift of the scaling with rates
# (-1, +1), so the state is (e^-t, e^t, 0.35 e^t, -0.8 e^-t).  The left
# projection is (e^{-t - (eps/2) J2}, e^{t + (eps/2) J1}), the right one that
# at -eps; their products are e^{+-(eps/2)(J1 - J2)}.  Each e^z stays a normal
# float, with a factor 2 to spare for rounding (about 1e-12 relative), while
# |z| <= -ln(2 DBL_MIN) = 707.70.  The largest |z| is t_end + ln(1/0.8) (the
# state's p-) or t_end + (|eps|/2) |J2| (a projected x+).  A spread, a
# difference of products, is 0 or normal while the smaller product has a
# normal ulp: (|eps|/2) |J1 - J2| + 52 ln 2 <= 707.70 as well.
_PROJECTION_FLOW = cotangent_lift(GeneratorField("scaling", 2, rates=np.array([-1.0, 1.0])), 2)
_J1, _J2 = _PHASE0[2] * _PHASE0[0], _PHASE0[3] * _PHASE0[1]
_LOG_NORMAL = -math.log(2.0 * sys.float_info.min)


def _projection_reach(t_end: float, epsilon: float) -> float:
    """The largest |z| above; it must not pass ``_LOG_NORMAL``."""
    a = abs(epsilon) / 2.0
    return max(t_end - math.log(-_PHASE0[3]), t_end + a * abs(_J2), a * abs(_J1 - _J2) + 52 * math.log(2.0))


PARAMS = {
    "epsilon": Param(REAL),
    "mass": Param(REAL, 1.0, positive=True),
    "alpha": Param(REAL, 0.3),
    "beta": Param(REAL, 2.0),
    "c_plus": Param(REAL, 1.0),
    "c_minus": Param(REAL, -1.0),
    "p_min": Param(REAL, -3.0),
    "p_max": Param(REAL, 3.0),
    # the scattering artifact has 4 columns of n_samples: 2^24 cells at most
    "n_samples": Param(INT, 49, minimum=2, maximum=2**22),
    "t_end": Param(REAL, 4.0, positive=True),
}


def _check_epsilon(epsilon: float, mass: float, beta: float, field: str) -> None:
    """Raise a ``ConfigError`` naming ``field`` unless the shape constant
    -1/(epsilon mass)^2 and the numeric scattering limits of a curve of shift
    ``beta`` are floats; an |epsilon beta| past the bound names
    ``params.beta`` instead when the certificate's grid could take epsilon."""
    if epsilon != 0.0 and not 1e-150 <= abs(epsilon * mass) <= 1e150:
        raise ConfigError(field, "|epsilon * mass| must lie in [1e-150, 1e150] "
                          "(or epsilon be 0) for the shape constant -1/(epsilon mass)^2 to be a float")
    if abs(epsilon * beta) > _EPS_BETA_MAX:
        blame = field if abs(epsilon) * _CERT_BETA > _EPS_BETA_MAX else "params.beta"
        raise ConfigError(blame, f"|epsilon * beta| = |{epsilon:g} * {beta:g}| must not exceed "
                          f"{_EPS_BETA_MAX:.6g}, or the numeric scattering limits overflow")


def _check_curve(p: Params) -> None:
    """Raise a ``ConfigError`` unless the scattering curve stays within
    ``_CURVE_MAX`` at the ends of the p grid and where the numeric limits
    are read.  It names the field furthest past its scale: |epsilon|
    against 1, 1/mass against 1, and alpha, p_min, p_max and beta against
    their defaults.  Like ``_check_epsilon`` it bounds every config,
    whichever outputs it asks for."""
    e, beta = p["epsilon"], p["beta"]
    r = [p["p_min"], p["p_max"], p["p_min"] - beta, p["p_max"] - beta]
    if e != 0.0:
        # q+ and q- of the curves of shift beta and -beta at the limit points
        p_inf = _P_SCALE / abs(e) + abs(beta)
        r += [s * p_inf + d for s in (-1.0, 1.0) for d in (0.0, -beta, beta)]
    with np.errstate(over="ignore"):
        r = np.array(r)
        g = r if e == 0.0 else np.sinh(e * r / 2.0) / (e / 2.0)
        worst = float(max(np.exp(abs(p["alpha"])), 2.0) * np.max(np.abs(g)) / p["mass"])
    if not worst <= _CURVE_MAX:
        factors = {"epsilon": abs(e), "mass": 1.0 / p["mass"],
                   **{k: abs(p[k] / PARAMS[k].default) for k in ("alpha", "p_min", "p_max", "beta")}}
        raise ConfigError(f"params.{max(factors, key=factors.get)}",
                          f"the scattering curve reaches max(e^|alpha|, 2) |g| / m = {worst:.6g} "
                          "at the ends of [p_min, p_max] or where its limits are read, above "
                          f"DBL_MAX / 2 = {_CURVE_MAX:.6g}: q+ and q- or their sum in the "
                          "velocity overflow")


def _check(p: Params) -> None:
    if p["p_max"] <= p["p_min"]:
        raise ConfigError("params.p_max", "must exceed p_min")
    # at epsilon = 0 the curve is a line and ignores the centres
    if p["epsilon"] != 0.0 and not p["c_plus"] * p["c_minus"] < 0.0:
        raise ConfigError("params.c_minus", f"the hyperbola centres need c_plus * c_minus < 0, "
                          f"got {p['c_plus']!r} * {p['c_minus']!r}")
    # the floats at the hyperbola's x+ samples must be no coarser than the
    # grid's spacing or its gap from the asymptote x+ = c+, or samples merge
    # and the nearest one can round onto the asymptote
    lo, hi = _HYPERBOLA_OFFSETS
    spacing = min(lo, (hi - lo) / (p["n_samples"] - 1))
    if p["epsilon"] != 0.0 and not math.ulp(abs(p["c_plus"]) + hi) <= spacing:
        raise ConfigError("params.c_plus", f"the floats near c_plus = {p['c_plus']!r} are "
                          f"{math.ulp(abs(p['c_plus']) + hi):.6g} apart, coarser than the "
                          f"{spacing:.6g} between the trajectory's samples of x+ - c_plus "
                          f"in [{lo:g}, {hi:g}]")
    _check_epsilon(p["epsilon"], p["mass"], p["beta"], "params.epsilon")
    _check_curve(p)
    reach = _projection_reach(p["t_end"], p["epsilon"])
    if not reach <= _LOG_NORMAL:
        field = "t_end" if p["t_end"] >= abs(p["epsilon"]) / 2.0 * abs(_J2) else "epsilon"
        raise ConfigError(f"params.{field}", f"the projection at t_end = {p['t_end']:g}, epsilon = "
                          f"{p['epsilon']:g} needs e^-{reach:.6g} >= 2 DBL_MIN = e^-{_LOG_NORMAL:.6g} "
                          "to keep its shrinking values, and the ulps of its products, normal floats")


def _spec(p: Params) -> Minkowski2DSpec:
    return Minkowski2DSpec(p["epsilon"], p["mass"])


def _shape(p: Params) -> tuple[np.ndarray, str, float]:
    """Configuration-space curve samples + (kind, closed-form residual)."""
    spec = _spec(p)
    if spec.epsilon != 0.0:
        grid = p["c_plus"] + np.linspace(*_HYPERBOLA_OFFSETS, p["n_samples"])
        pts = hyperbola_curve(spec, p["c_plus"], p["c_minus"], grid)
        return pts, "hyperbola", hyperbola_residual(spec, p["c_plus"], p["c_minus"], pts)
    p_grid = np.linspace(p["p_min"], p["p_max"], p["n_samples"])
    pts = parametric_trajectory_2d(spec, p["alpha"], p["beta"], p_grid)[:, 1:]
    return pts, "line", collinearity_residual(pts)


def _trajectory(p: Params) -> ArtifactData:
    pts, kind, res = _shape(p)
    summary = {"kind": kind, "shape_residual": res}
    return ArtifactData("trajectory", dict(zip(COORD_NAMES, pts.T)), summary)


def _scattering(p: Params) -> ArtifactData:
    spec, alpha, beta = _spec(p), p["alpha"], p["beta"]
    q = parametric_trajectory_2d(spec, alpha, beta, np.linspace(p["p_min"], p["p_max"], p["n_samples"]))
    closed, numeric, mismatch, odd = _scattering_defects(spec, alpha, beta)
    summary = {
        "v_in_closed": closed[0],
        "v_out_closed": closed[1],
        "v_in_numeric": numeric[0],
        "v_out_numeric": numeric[1],
        "closed_vs_numeric": mismatch,
        "odd_defect": odd,
    }
    columns = {"p": q[:, 0], "q_plus": q[:, 1], "q_minus": q[:, 2], "v": _velocity(q)}
    return ArtifactData("scattering", columns, summary)


def _projection(p: Params) -> ArtifactData:
    r = minkowski2d_rspec(_spec(p))
    times = _sample_times(p["t_end"], 1e-2)
    traj = Trajectory(times, _PROJECTION_FLOW.flow(times, np.broadcast_to(_PHASE0, (times.size, 4))))
    left = project_trajectory(r, traj, "left")
    right = project_trajectory(r, traj, "right")

    def spread(curve: Trajectory) -> float:
        prod = curve.points[:, 0] * curve.points[:, 1]
        return float(np.max(np.abs(prod - prod[0])))

    summary = {"product_spread_left": spread(left), "product_spread_right": spread(right)}
    columns = {
        "t": traj.times,
        "left_x_plus": left.points[:, 0],
        "left_x_minus": left.points[:, 1],
        "right_x_plus": right.points[:, 0],
        "right_x_minus": right.points[:, 1],
    }
    return ArtifactData("projection", columns, summary)


_CERT_THRESHOLDS = {"hyperbola_shape": 1e-12, "scattering_match": 1e-6, "scattering_odd": 1e-12}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# the certificate's fixed grids, shared by every call: the hyperbola's x+
# samples (centres 1 and -1) and the 5x5 grid of curves (alpha, beta)
_CERT_HYPERBOLA_GRID = _frozen(1.0 + np.linspace(0.2, 3.0, 64))
_CERT_ALPHAS = _frozen(np.linspace(-0.6, 0.6, 5))
_CERT_BETAS = _frozen(np.linspace(-_CERT_BETA, _CERT_BETA, 5))


def _certificate_check(p: Params, field: str) -> None:
    """The range ``run`` accepts, for the certificate grid's largest |beta|
    (|epsilon| up to 344.9 at mass 1)."""
    _check_epsilon(p["epsilon"], p["mass"], _CERT_BETA, field)


def _certificate(p: Params, seed: int, n_points: int) -> list[CertCheck]:
    """The hyperbola shape law, and the scattering match/odd checks over a
    5x5 curve grid."""
    spec = _spec(p)
    epsilon = spec.epsilon
    if epsilon == 0.0:
        note = "vacuous at epsilon = 0"
        return [CertCheck(n, 0.0, t, note) for n, t in _CERT_THRESHOLDS.items()]
    pts = hyperbola_curve(spec, 1.0, -1.0, _CERT_HYPERBOLA_GRID)
    res = hyperbola_residual(spec, 1.0, -1.0, pts)
    # relative to the shape constant, which grows like epsilon^-2
    res /= max(1.0, 1.0 / (epsilon * spec.mass) ** 2)
    match, odd = scattering_check(spec, _CERT_ALPHAS, _CERT_BETAS)
    values = {"hyperbola_shape": res, "scattering_match": match, "scattering_odd": odd}
    return [CertCheck(n, v, _CERT_THRESHOLDS[n]) for n, v in values.items()]


def _sweep_row(p: Params) -> dict:
    _, _, shape_res = _shape(p)
    (v_in, v_out), _, mismatch, _ = _scattering_defects(_spec(p), p["alpha"], p["beta"])
    return {
        "classical_limit_dev": classical_limit_deviation(
            p["epsilon"], p["mass"], p["alpha"], p["beta"]
        ),
        "shape_residual": shape_res,
        "scattering_dev": mismatch,
        "v_in": v_in,
        "v_out": v_out,
    }


MODEL = Model(
    name="minkowski2d",
    params=PARAMS,
    check=_check,
    artifacts={"trajectory": _trajectory, "projection": _projection, "scattering": _scattering},
    # pi = epsilon x+ x- d+ ^ d-, and its shifted structure on (x+, x-, p+,
    # p-), each with the data the certificate proves it from
    brackets={"base": Bracket(lambda p: wedge_bivector(p["epsilon"], _X_PLUS, _X_MINUS, COORD_NAMES),
                              r=lambda p: minkowski2d_rspec(_spec(p))),
              "shifted": Bracket(lambda p: shifted_bivector(minkowski2d_rspec(_spec(p))),
                                 r=lambda p: ShiftedRSpec(minkowski2d_rspec(_spec(p))))},
    certificate=_certificate,
    certificate_check=_certificate_check,
    sweep_row=_sweep_row,
)
