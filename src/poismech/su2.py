"""Free motion on a compact group with a deformed momentum space.

The configuration space is the unit-determinant complex 2x2 group carrying a
multiplicative Poisson structure with deformation strength ``epsilon``.  Points
factor as ``A = u * B`` with ``u`` special unitary and ``B`` upper triangular
with positive diagonal; the ``B`` part plays the role of momentum.  Everything
here works in the real chart obtained by splitting the four entries into real
and imaginary parts, so the generic bracket/flow machinery from
:mod:`poismech.bracket` and :mod:`poismech.flow` applies unchanged.

Charts
------
* group chart (dim 8): ``(a_re, a_im, b_re, b_im, c_re, c_im, d_re, d_im)``
  for the matrix ``[[a, b], [c, d]]``.
* momentum chart (dim 3): ``(zeta, w_re, w_im)`` with ``zeta = log(rho)/eps``
  and ``w = n / (2 eps)`` in terms of the triangular factor
  ``B = [[rho, n], [0, 1/rho]]``.
* linear chart (dim 3): ``(x, y, z)`` carrying the undeformed rotation-algebra
  brackets ``{x,y}=z, {z,x}=y, {z,y}=-x``.

``MODEL`` is the scenario record: parameters, the trajectory artifact, the
certificate and the sweep row.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bracket import BivectorSpec, ScalarField, hamiltonian_vector_field, pushforward_bivector
from .errors import ConfigError, ContractViolation, NumericDomainError
from .flow import _END_SLACK, StepControl, Trajectory, integrate_flow
from .model import (
    LOG_SQRT_DBL_MAX, REAL, ArtifactData, CertCheck, Model, Param, Params,
    jacobi_check, threshold_check,
)

GROUP_COORD_NAMES = (
    "a_re",
    "a_im",
    "b_re",
    "b_im",
    "c_re",
    "c_im",
    "d_re",
    "d_im",
)
MOMENTUM_COORD_NAMES = ("zeta", "w_re", "w_im")
LINEAR_COORD_NAMES = ("x", "y", "z")

_UNIMODULAR_TOL = 1e-9
_UNITARY_TOL = 1e-10
_RENORM_TRIGGER = 1e-10
# half-width of the linear-chart cube the isomorphism certificate samples
_CUBE = 1.2
# standard deviation of the random triangular factors
_SAMPLE_SPREAD = 0.4

# [[0, -1], [1, 0]]: conjugation by this matrix implements the antihomomorphism
# that sends a special unitary to its complex conjugate.
_Y = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------------------
# element types and chart conversions


@dataclass(frozen=True)
class SL2CElement:
    """Unit-determinant complex 2x2 matrix ``[[a, b], [c, d]]``."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if not abs(det - 1.0) <= _UNIMODULAR_TOL:  # NaN fails too
            raise ContractViolation(
                f"determinant {det} deviates from 1 by more than {_UNIMODULAR_TOL}"
            )

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SL2CElement":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ContractViolation(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)


@dataclass(frozen=True)
class SU2Element:
    """Special unitary ``[[alpha, -conj(gamma)], [gamma, conj(alpha)]]``."""

    alpha: complex
    gamma: complex

    def __post_init__(self):
        norm = abs(self.alpha) ** 2 + abs(self.gamma) ** 2
        if not abs(norm - 1.0) <= _UNITARY_TOL:  # NaN fails too
            raise ContractViolation(
                f"|alpha|^2 + |gamma|^2 = {norm} deviates from 1 beyond {_UNITARY_TOL}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [
                [self.alpha, -np.conj(self.gamma)],
                [self.gamma, np.conj(self.alpha)],
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class SB2Element:
    """Upper triangular ``[[rho, n], [0, 1/rho]]`` with ``rho > 0``."""

    rho: float
    n: complex

    def __post_init__(self):
        if not (self.rho > 0.0 and math.isfinite(self.rho)):
            raise ContractViolation(f"diagonal scale must be positive, got {self.rho}")
        if not cmath.isfinite(self.n):
            raise ContractViolation(f"off-diagonal entry must be finite, got {self.n}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.rho, self.n], [0.0, 1.0 / self.rho]], dtype=complex)


def real8_from_matrix(m: np.ndarray) -> np.ndarray:
    """Flatten complex 2x2 matrices, shape ``(..., 2, 2)``, into points of
    the 8-dimensional group chart, shape ``(..., 8)``."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).reshape(m.shape[:-2] + (8,))


def matrix_from_real8(x: np.ndarray) -> np.ndarray:
    """Group-chart points, shape ``(..., 8)``, as complex 2x2 matrices."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (8,):
        raise ContractViolation(f"group chart points have 8 components, got {x.shape}")
    return (x[..., 0::2] + 1j * x[..., 1::2]).reshape(x.shape[:-1] + (2, 2))


def _det(m: np.ndarray):
    """Determinant of each complex 2x2 matrix of a stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def iwasawa(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split each matrix of a stack ``g = u * B``, shape ``(..., 2, 2)``, into
    the arrays ``alpha, gamma`` of :class:`SU2Element` and ``rho, n`` of
    :class:`SB2Element`.  The first column (a, c) fixes the unitary factor;
    the triangular one is whatever is left.  Exact for unit-determinant input
    up to rounding."""
    g = np.asarray(g, dtype=complex)
    rho = np.hypot(np.abs(g[..., 0, 0]), np.abs(g[..., 1, 0]))
    if np.any(rho == 0.0):
        raise NumericDomainError("first column vanishes, no triangular factor")
    alpha = g[..., 0, 0] / rho
    gamma = g[..., 1, 0] / rho
    n = np.conj(alpha) * g[..., 0, 1] + np.conj(gamma) * g[..., 1, 1]
    return alpha, gamma, rho, n


# ---------------------------------------------------------------------------
# the multiplicative bracket in the real chart

# Holomorphic brackets {z_k, z_l} / (i*eps) for letters (a, b, c, d) -> 0..3,
# and mixed brackets {z_k, conj(z_l)} / (i*eps).  Everything else follows by
# antisymmetry and by {conj f, conj g} = conj {f, g}.


def _uv_tables(a, b, c, d):
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


def _real_blocks(u_kl, v_kl):
    """Real brackets among (re_k, im_k, re_l, im_l) from complex ones.

    ``u_kl = {z_k, z_l}`` and ``v_kl = {z_k, conj z_l}``; conjugates follow
    from ``{conj f, conj g} = conj {f, g}``, which collapses the four real
    components to combinations of just these two values.
    """
    rr = 0.5 * (u_kl.real + v_kl.real)
    ri = 0.5 * (u_kl.imag - v_kl.imag)
    ir = 0.5 * (u_kl.imag + v_kl.imag)
    ii = 0.5 * (v_kl.real - u_kl.real)
    return rr, ri, ir, ii


def _unit_upper(x: np.ndarray) -> np.ndarray:
    """Strict upper triangle of the real 8x8 bracket matrix at
    ``epsilon = 1``, straight from the tables (zeros elsewhere)."""
    a, b, c, d = (x[0::2] + 1j * x[1::2]).tolist()
    u, v = _uv_tables(a, b, c, d)
    p = np.zeros((8, 8))
    for k in range(4):
        # {re_k, im_k} = -(1/2) Im {z_k, conj z_k}
        p[2 * k, 2 * k + 1] = -0.5 * (1j * v[(k, k)]).imag
        for l in range(k + 1, 4):
            rr, ri, ir, ii = _real_blocks(1j * u[(k, l)], 1j * v[(k, l)])
            p[2 * k, 2 * l] = rr
            p[2 * k, 2 * l + 1] = ri
            p[2 * k + 1, 2 * l] = ir
            p[2 * k + 1, 2 * l + 1] = ii
    return p


@functools.cache
def _sl2c_coefficients() -> np.ndarray:
    """Constant 64x64 matrix ``A`` with ``vec(P(x)) = eps * (A @ vec(x x^T))``.

    ``P`` is homogeneous quadratic in ``x`` and linear in ``eps``, so the
    strict upper triangle has the coefficients ``C``, the polarization
    ``(U(e_p + e_q) - U(e_p - e_q)) / 4`` of the table formula ``U`` at
    ``eps = 1``; the ``+/-`` pairing makes every coefficient an exact
    multiple of 1/4.  ``A`` is ``C`` minus ``C`` with its two output indices
    swapped, so ``P`` comes out exactly antisymmetric from one product.
    """
    eye = np.eye(8)
    coeff = np.zeros((8, 8, 8, 8))
    for p in range(8):
        for q in range(8):
            plus, minus = _unit_upper(eye[p] + eye[q]), _unit_upper(eye[p] - eye[q])
            coeff[:, :, p, q] = 0.25 * (plus - minus)
    coeff = (coeff - coeff.transpose(1, 0, 2, 3)).reshape(64, 64)
    coeff.setflags(write=False)  # one cached array serves every bivector
    return coeff


def sl2c_bivector(epsilon: float) -> BivectorSpec:
    """Multiplicative bracket on the 8-dimensional real group chart.

    Satisfies the Jacobi identity identically on the ambient chart (not just
    on the unit-determinant slice), so certificates sampled from a box are
    meaningful.  ``P(x)`` is one matrix-vector product per point with the
    polarized, antisymmetrized coefficient matrix, so a point has the same
    bits alone as in a stack.  The coefficients carry the sign of ``eps``
    and the product is scaled by ``|eps|``, so the zeros of ``P`` are +0.0
    at either sign.
    """
    coeff = _sl2c_coefficients() if epsilon >= 0 else -_sl2c_coefficients()
    scale = abs(epsilon)

    def dense(x: np.ndarray) -> np.ndarray:
        quad = (x[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (64, 1))
        return scale * (coeff @ quad).reshape(x.shape[:-1] + (8, 8))

    return BivectorSpec(dim=8, coord_names=GROUP_COORD_NAMES, dense=dense)


# ---------------------------------------------------------------------------
# hamiltonians on the group chart


def free_energy(m: np.ndarray) -> np.ndarray:
    """Half the squared Frobenius norm of each matrix of a stack ``(..., 2, 2)``."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * np.sum(np.abs(m) ** 2, axis=(-2, -1))


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """``x . x`` of each point of a stack ``(..., n)``, rounded as ``np.dot``
    rounds one point, so half of it on group-chart points is, row by row,
    the bits of :func:`free_hamiltonian_field`."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


def free_hamiltonian_field() -> ScalarField:
    """The trace energy on the group chart: half the squared Frobenius norm,
    the generator of the deformed free flow.  The flow reads ``fn`` at every
    sample, so it stays np.dot of one point; ``0.5 * _squared_norm`` gives
    its bits on a stack.  The gradient is the float point itself, which its
    readers never write."""
    return ScalarField(fn=lambda x: 0.5 * float(np.dot(x, x)), grad=lambda x: x)


def flow_rhs(m: np.ndarray, epsilon: float) -> np.ndarray:
    """Right-hand side of the free flow, ``i eps (H m + Y conj(m) Y)``, at
    each matrix of a stack ``(..., 2, 2)``."""
    m = np.asarray(m, dtype=complex)
    return 1j * epsilon * (free_energy(m)[..., None, None] * m + _Y @ np.conj(m) @ _Y)


def legendre_velocity(b_part: SB2Element, epsilon: float) -> np.ndarray:
    """Body-frame angular velocity of the unitary factor along the free flow.

    Anti-hermitian and traceless; constant along a free trajectory because the
    triangular factor is.
    """
    bm = b_part.matrix
    binv = np.array([[1.0 / b_part.rho, -b_part.n], [0.0, b_part.rho]], dtype=complex)
    return 1j * epsilon * (free_energy(bm) * np.eye(2) + _Y @ np.conj(bm) @ _Y @ binv)


def _sinhc(u):
    """``sinh(u) / u`` for a real or complex array ``u``, continued by its
    limit 1 at ``u = 0``; ``sinh(eps x) / eps`` is ``x * _sinhc(eps x)`` at
    every eps."""
    u = np.asarray(u)
    out = np.ones(u.shape, np.result_type(u, float))
    return np.divide(np.sinh(u), u, out=out, where=u != 0)


def expm2(m: np.ndarray) -> np.ndarray:
    """Exponential of a complex 2x2 matrix in closed form:
    ``exp(lam) (cosh(theta) I + sinh(theta)/theta N)`` for ``m = lam I + N``
    with ``N`` traceless and ``theta^2 = -det N``."""
    m = np.asarray(m, dtype=complex)
    lam = 0.5 * (m[0, 0] + m[1, 1])
    n = m - lam * np.eye(2)
    theta = cmath.sqrt(n[0, 1] * n[1, 0] - n[0, 0] * n[1, 1])
    return cmath.exp(lam) * (cmath.cosh(theta) * np.eye(2) + _sinhc(theta) * n)


def _rotated(u0: SU2Element, omega: np.ndarray, b_part: SB2Element, t: float) -> np.ndarray:
    """``u0 exp(t omega) B``: the free trajectory through ``u0 * B`` whose
    body velocity ``omega`` is already known."""
    return u0.matrix @ expm2(t * omega) @ b_part.matrix


def closed_form_flow(
    u0: SU2Element, b_part: SB2Element, epsilon: float, t: float
) -> np.ndarray:
    """Exact free trajectory through ``u0 * B``: rotate the unitary factor."""
    return _rotated(u0, legendre_velocity(b_part, epsilon), b_part, t)


def free_flow(
    g0: SL2CElement,
    epsilon: float,
    t_end: float,
    step: StepControl,
) -> tuple[Trajectory, int]:
    """Integrate the free flow on the group chart with the step size and
    tolerance of ``step``.

    The determinant is conserved by the exact flow; whenever the numerical
    state drifts off the unit-determinant slice by more than 1e-10 it is
    rescaled back.  Returns the trajectory and the number of rescalings.
    """
    events = [0]

    def renorm(x: np.ndarray) -> np.ndarray:
        # one state (8,) or a stack (m, 8); with none off the slice, x
        # itself comes back, which the integrator reads as unmoved
        m = matrix_from_real8(x)
        det = _det(m)
        off = np.abs(det - 1.0) > _RENORM_TRIGGER
        if not off.any():
            return x
        roots = np.array([cmath.sqrt(d) for d in det[off]])
        events[0] += roots.size
        x = x.copy()
        x[off] = real8_from_matrix(m[off] / roots[:, None, None])
        return x

    ctrl = StepControl(h=step.h, tol=step.tol, poststep=renorm)
    traj = integrate_flow(
        sl2c_bivector(epsilon),
        free_hamiltonian_field(),
        real8_from_matrix(g0.matrix),
        t_end,
        step=ctrl,
    )
    return traj, events[0]


def _body_velocities(alpha: np.ndarray, gamma: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Body-frame angular velocity ``log(u_k^H u_{k+1}) / (t_{k+1} - t_k)``
    on every interval of a sampled unitary path ``u_k = [[alpha_k,
    -conj(gamma_k)], [gamma_k, conj(alpha_k)]]``, shape ``(N - 1, 2, 2)``.

    The logarithm of a special unitary ``q`` is ``theta / sin(theta) *
    (q - q^H) / 2`` with ``theta = atan2(|Im part|, Re alpha_q)``.  A free
    flow is ``u(t) = u0 exp(t omega)``, so on it every interval reads
    ``omega`` to rounding, at any spacing.  The domain is a turn below pi per
    interval (a larger one aliases); the su2 configs sample every ``step``,
    which turns the state by at most ``_MAX_TURN`` = 1 radian.
    """
    a0, c0, a1, c1 = alpha[:-1], gamma[:-1], alpha[1:], gamma[1:]
    # q = u_k^H u_{k+1} = [[qa, -conj(qc)], [qc, conj(qa)]]
    qa = np.conj(a0) * a1 + np.conj(c0) * c1
    qc = a0 * c1 - c0 * a1
    theta = np.arctan2(np.hypot(qa.imag, np.abs(qc)), qa.real)
    scale = 1.0 / (np.sinc(theta / np.pi) * np.diff(times))  # theta / sin(theta) / dt
    half = np.array([[1j * qa.imag, -np.conj(qc)], [qc, -1j * qa.imag]])  # (q - q^H) / 2
    return np.moveaxis(scale * half, -1, 0)


def flow_diagnostics(traj: Trajectory, epsilon: float) -> dict:
    """Conservation and factorization report for a free-flow trajectory.

    Returns max determinant residual, drift of the triangular factor, the
    worst deviation of the measured unitary body velocity
    (:func:`_body_velocities`, exact at any sample spacing) from its
    closed-form value, and the endpoint distance to the closed-form flow.
    A sample off the unit-determinant slice by more than 1e-9, or NaN, is a
    ``ContractViolation``.
    """
    return _diagnostics(traj, epsilon)[0]


def _diagnostics(traj: Trajectory, epsilon: float) -> tuple[dict, np.ndarray, np.ndarray,
                                                             np.ndarray]:
    """:func:`flow_diagnostics`' report, with the per-sample arrays it reads:
    the determinant residual and the triangular factor's ``rho`` and ``n``."""
    mats = matrix_from_real8(traj.points)
    det_residual = np.abs(_det(mats) - 1.0)
    off = np.flatnonzero(~(det_residual <= _UNIMODULAR_TOL))
    if off.size:
        raise ContractViolation(f"sample {off[0]}: determinant deviates from 1 by "
                                f"{det_residual[off[0]]}, more than {_UNIMODULAR_TOL}")
    alpha, gamma, rho, n = iwasawa(mats)
    u0, b0 = SU2Element(alpha[0], gamma[0]), SB2Element(rho[0], n[0])

    omega = legendre_velocity(b0, epsilon)
    est = _body_velocities(alpha, gamma, traj.times)

    end = _rotated(u0, omega, b0, float(traj.times[-1]))
    report = {
        "det_residual": float(np.max(det_residual)),
        "b_factor_drift": float(max(np.max(np.abs(rho - rho[0])), np.max(np.abs(n - n[0])))),
        "omega_deviation": float(np.max(np.abs(est - omega))),
        "endpoint_deviation": float(np.max(np.abs(mats[-1] - end))),
    }
    return report, det_residual, rho, n


# ---------------------------------------------------------------------------
# momentum chart


def momentum_bivector(epsilon: float) -> BivectorSpec:
    """Deformed rotation brackets on ``(zeta, w_re, w_im)``.

    ``{zeta, w_re} = w_im``, ``{zeta, w_im} = -w_re``,
    ``{w_re, w_im} = sinh(2 eps zeta) / (2 eps)`` (the last is ``zeta`` at
    ``eps = 0``, giving the linear structure back).
    """
    return BivectorSpec(
        dim=3,
        coord_names=MOMENTUM_COORD_NAMES,
        components={
            (0, 1): lambda x: x[2],
            (0, 2): lambda x: -x[1],
            (1, 2): lambda x: x[0] * _sinhc(2.0 * epsilon * x[0]),
        },
    )


def linear_momentum_bivector() -> BivectorSpec:
    """Rotation-algebra brackets on ``(x, y, z)``: the undeformed limit."""
    return BivectorSpec(
        dim=3,
        coord_names=LINEAR_COORD_NAMES,
        components={
            (0, 1): lambda p: p[2],
            (0, 2): lambda p: -p[1],
            (1, 2): lambda p: p[0],
        },
    )


def _chart_factor(s2: np.ndarray, z: np.ndarray, epsilon: float) -> np.ndarray:
    """The factor by which :func:`momentum_isomorphism` rescales ``x + i y``,
    from ``s2 = x^2 + y^2``: the square root of
    ``(sinh^2(eps r) - sinh^2(eps z)) / (eps^2 (r^2 - z^2))``, written as
    ``sinhc(eps (r + |z|)) sinhc(eps (r - |z|))`` with ``r - |z|`` as
    ``s2 / (r + |z|)``.  No two nearly equal numbers are subtracted, so the
    one formula holds on and near the axis and at every ``eps``, 0 included.
    ``|z|`` continues analytically as ``+-z`` by the sign of ``Re z``.
    """
    s = np.sqrt(s2 + z * z) + np.where(np.real(z) >= 0, z, -z)
    d = np.divide(s2, s, out=np.zeros_like(s), where=s != 0)  # both vanish only at the origin
    return np.sqrt(_sinhc(epsilon * s) * _sinhc(epsilon * d))


def momentum_isomorphism(xyz: np.ndarray, epsilon: float) -> np.ndarray:
    """Map the linear chart ``(x, y, z)`` onto the deformed chart, at one
    point or a stack ``(..., 3)``.

    ``zeta = z`` and ``w`` rescales ``x + i y`` so that the squared-radius
    functions correspond: ``|w|^2 + (sinh(eps zeta)/eps)^2 = (sinh(eps r)/eps)^2``
    with ``r = |(x, y, z)|``.  The rescaling factor is one closed formula,
    smooth through the axis ``x = y = 0`` and equal to 1 at ``eps = 0``.
    """
    p = np.asarray(xyz)
    if p.shape[-1:] != (3,):
        raise ContractViolation(f"linear chart points have 3 components, got {p.shape}")
    x, y, z = np.moveaxis(p, -1, 0)
    factor = _chart_factor(x * x + y * y, z, epsilon)
    return np.stack([z, factor * x, factor * y], axis=-1)


def casimir_radius_squared(zw: np.ndarray, epsilon: float) -> np.ndarray:
    """Central function ``|w|^2 + (sinh(eps zeta)/eps)^2`` of the deformed
    chart, at one point or a stack ``(..., 3)``.

    Pulls back to ``(sinh(eps r)/eps)^2`` under the isomorphism; at
    ``eps = 0`` it is the plain squared radius.
    """
    zeta, wx, wy = np.moveaxis(np.asarray(zw, dtype=float), -1, 0)
    sz = zeta * _sinhc(epsilon * zeta)
    return wx * wx + wy * wy + sz * sz


# ---------------------------------------------------------------------------
# energy normalizations, as pure functions of scalars


@dataclass(frozen=True)
class EnergyRelations:
    """One free-motion energy expressed in all three normalizations.

    ``trace`` is the flow generator, ``classical`` halves the squared geodesic
    radius, ``normalized`` halves the squared-radius Casimir; ``radius2`` is
    the Casimir itself.
    """

    trace: float
    classical: float
    normalized: float
    radius2: float


def energy_relations(
    epsilon: float,
    *,
    trace: float | None = None,
    classical: float | None = None,
    radius2: float | None = None,
) -> EnergyRelations:
    """Convert between the energy normalizations at deformation ``epsilon``.

    Exactly one of ``trace``, ``classical``, ``radius2`` must be given.  The
    identities used: ``trace = cosh(2 eps r)`` with ``r`` the geodesic radius,
    ``classical = r^2 / 2``, ``radius2 = (sinh(eps r)/eps)^2``, and
    ``normalized = radius2 / 2``.
    """
    given = [name for name, val in
             (("trace", trace), ("classical", classical), ("radius2", radius2))
             if val is not None]
    if len(given) != 1:
        raise ContractViolation(
            f"exactly one energy must be given, got {given or 'none'}"
        )

    if classical is not None and classical < 0.0:
        raise NumericDomainError(f"classical energy must be >= 0, got {classical}")
    if radius2 is not None and radius2 < 0.0:
        raise NumericDomainError(f"squared radius must be >= 0, got {radius2}")

    if epsilon == 0.0:
        if trace is not None:
            raise NumericDomainError(
                "trace energy is identically 1 at epsilon = 0; start from "
                "classical or radius2 instead"
            )
        if classical is not None:
            return EnergyRelations(1.0, classical, classical, 2.0 * classical)
        return EnergyRelations(1.0, radius2 / 2.0, radius2 / 2.0, radius2)

    e2 = epsilon * epsilon
    if trace is not None:
        if trace < 1.0:
            raise NumericDomainError(
                f"trace energy must be >= 1 (minimum on the group), got {trace}"
            )
        radius2 = (trace - 1.0) / (2.0 * e2)
    elif classical is not None:
        r = math.sqrt(2.0 * classical)
        sr = math.sinh(epsilon * r) / epsilon
        radius2 = sr * sr

    r = math.asinh(abs(epsilon) * math.sqrt(radius2)) / abs(epsilon)
    return EnergyRelations(
        trace=1.0 + 2.0 * e2 * radius2,
        classical=0.5 * r * r,
        normalized=0.5 * radius2,
        radius2=radius2,
    )


def classical_limit_deviation(epsilon: float) -> float:
    """Gap between the normalized and classical energies at geodesic radius 1.

    Vanishes quadratically in ``epsilon``: the deformation correction to the
    energy of a trajectory of classical energy 1/2.
    """
    rel = energy_relations(epsilon, classical=0.5)
    return abs(rel.normalized - 0.5)


# ---------------------------------------------------------------------------
# the certificate's sample points


def sample_unimodular(n: int, seed: int) -> np.ndarray:
    """``n`` seeded unimodular points ``u B``, shape ``(n, 2, 2)``.  ``u`` is
    a Gaussian 4-vector normalized onto the special unitaries, and ``B =
    [[rho, m], [0, 1/rho]]`` has ``log rho``, ``Re m`` and ``Im m`` normal
    of spread ``_SAMPLE_SPREAD``.  Row ``k`` of the one ``(n, 7)`` draw is
    point ``k``, bit for bit the point drawn ``k``-th one at a time from the
    same generator: the norm rounds as ``np.dot`` of one row, ``rho`` comes
    from ``math.exp`` (numpy's ``exp`` differs in the last bit on some rows),
    and ``u B`` is numpy's batched product (``einsum`` rounds differently)."""
    z = np.random.default_rng(seed).normal(size=(n, 7))
    alpha, gamma = (z[:, :4] / np.sqrt(z[:, None, :4] @ z[:, :4, None])[:, 0]).view(complex).T
    rho = np.array([math.exp(t) for t in (_SAMPLE_SPREAD * z[:, 4]).tolist()])
    m = (_SAMPLE_SPREAD * z[:, 5:]).view(complex)[:, 0]
    u = np.stack([alpha, -np.conj(gamma), gamma, np.conj(alpha)], axis=-1)
    b = np.stack([rho, m, np.zeros(n), 1.0 / rho], axis=-1)
    return u.reshape(n, 2, 2) @ b.reshape(n, 2, 2)


# ---------------------------------------------------------------------------
# checks shared by the certificate and the acceptance tests


def dual_path_deviation(epsilon: float, n_points: int, seed: int) -> float:
    """Worst gap between the two routes to the free dynamics at ``n_points``
    seeded unimodular points: the bracket-table Hamiltonian vector field of
    the trace energy against the matrix form :func:`flow_rhs`.  A non-finite
    gap at any point makes the result non-finite."""
    mats = sample_unimodular(n_points, seed)
    via_bracket = hamiltonian_vector_field(sl2c_bivector(epsilon), free_hamiltonian_field(),
                                           real8_from_matrix(mats))
    gaps = np.abs(via_bracket - real8_from_matrix(flow_rhs(mats, epsilon)))
    return float(np.max(gaps, initial=0.0))


def isomorphism_deviation(epsilon: float, n_points: int, seed: int) -> tuple[float, float]:
    """Pushforward and Casimir defects of :func:`momentum_isomorphism`.

    At ``n_points`` seeded points of the linear chart, uniform in the cube of
    half-width :data:`_CUBE` (the axis and the origin included), the
    complex-step pushforward of the linear bivector should equal the
    deformed one, and ``eps R = sinh(eps r)`` should hold for the radius
    Casimirs (``R = r`` at ``eps = 0``).  Returns the worst of each; NaN and
    inf propagate.
    """
    # one draw of (n_points, 3) continues the same stream as one per point
    p = np.random.default_rng(seed).uniform(-_CUBE, _CUBE, size=(n_points, 3))
    img = momentum_isomorphism(p, epsilon)
    phi = functools.partial(momentum_isomorphism, epsilon=epsilon)
    got = pushforward_bivector(linear_momentum_bivector(), phi, p)
    push = np.abs(got - momentum_bivector(epsilon).matrix(img))
    r = np.sqrt(_squared_norm(p))
    big_r = np.sqrt(casimir_radius_squared(img, epsilon))
    cas = np.abs(epsilon * big_r - np.sinh(epsilon * r)) if epsilon else np.abs(big_r - r)
    return float(np.max(push, initial=0.0)), float(np.max(cas, initial=0.0))


def energy_pipeline_deviation(traj: Trajectory, epsilon: float) -> float:
    """Worst gap along a free-flow trajectory between the trace energy and
    ``cosh(2 eps sqrt(2 h))`` of the classical energy ``h`` that
    :func:`energy_relations` gives for the start's trace energy (the start's
    own trace energy at ``eps = 0``); NaN and inf propagate."""
    energy = 0.5 * _squared_norm(traj.points)
    h0 = float(energy[0])
    if epsilon != 0.0:
        target = energy_relations(epsilon, trace=h0)
        expected = math.cosh(2.0 * epsilon * math.sqrt(2.0 * target.classical))
    else:
        expected = h0
    return float(np.max(np.abs(energy - expected)))


# ---------------------------------------------------------------------------
# scenario record

# The start is B = [[rho, n], [0, 1/rho]].  With rho, 1/rho, |n_re| and |n_im|
# at most S, its energy free_energy(B) = |B|^2 / 2 is at most 2 S^2, and each
# entry of H B + Y conj(B) Y, which is flow_rhs(B, epsilon) without its
# factor i epsilon, is at most 2 sqrt(2) S^3 + sqrt(2) S < 8 S^3.  So both
# are finite at the start for S = (DBL_MAX / 8)^(1/3), about 2.8e102.
_MAX_ENTRY = (sys.float_info.max / 8.0) ** (1.0 / 3.0)

PARAMS = {
    "epsilon": Param(REAL),
    "t_end": Param(REAL, 1.0, positive=True),
    "rho": Param(REAL, 1.4, positive=True, minimum=1.0 / _MAX_ENTRY, maximum=_MAX_ENTRY),
    "n_re": Param(REAL, 0.3, minimum=-_MAX_ENTRY, maximum=_MAX_ENTRY),
    "n_im": Param(REAL, 0.2, minimum=-_MAX_ENTRY, maximum=_MAX_ENTRY),
    "tol": Param(REAL, 1e-8, positive=True),
    "step": Param(REAL, 1e-3, positive=True),
}

# A run stores its samples on the grid t += step, t_end / step of them and
# the start, 8 floats each; 2^21 of them keep it within 2^24 floats.
_MAX_SAMPLES = 2**21

# The integrator picks its first trial step from ``tol`` (flow._first_step),
# not from ``step``: at most 100 h0 = |y0| / |f0| in the max norm, with f0 the
# start's velocity, and never past t_end but for the 1% stretch onto it.
# From g = u B the free flow turns the unitary factor at the constant rate
# theta = |eps| sqrt(H^2 - 1), where H = free_energy(B) >= 1:
# legendre_velocity(B) = omega = i eps [[a, n/rho], [conj(n)/rho, -a]] with
# a = (rho^2 - rho^-2 + |n|^2) / 2, and omega^2 = -theta^2 since
# a^2 + |n|^2/rho^2 = H^2 - 1.  So omega / theta is unitary, f0 = omega B has
# the Frobenius norm theta |B|, and over the 8 real entries |y0| <= |B| and
# |f0| >= theta |B| / sqrt(8): the first trial step turns the state by at
# most 1.01 theta min(t_end, |y0| / |f0|) <= 1.01 sqrt(8), about 2.86
# radians.  The right-hand side is cubic off the unit-determinant slice, and
# the Runge-Kutta stages leave the circle the flow follows as the turn grows.
# Measured over 300 seeded random starts (rho in [e^-3, e^3], n of spread up
# to e^2, |eps| in [e^-3, e^3]), the largest stage state of a first
# Dormand-Prince step was 1.03 |B| at a turn of 1 radian, 1.3 |B| at 1.5,
# 5.4e4 |B| at 2 and 2.5e25 |B| at 3; from there the stages overflow and the
# run fails at t = 0.  The rule stays far from that: over 3000 seeded starts
# in those ranges, at a turn of 0.05 to 1 per ``step`` over 100 samples and
# at tol 1e-8 and 0.01 S, S the start's largest entry, theta |y0| / |f0| was
# at most 1.59, the first trial step turned the state by at most 1.07
# radians (99th percentile 1.002), and its largest stage state was 1.44 S.
# The samples lie every ``step``, which turns the state by at most
# step |eps| H radians; a start or strength for which that passes one radian
# is a config error, which keeps the turn between two samples far below the
# pi at which _body_velocities aliases.
_MAX_TURN = 1.0

# A step grows until its error estimate meets ``tol``, so tol bounds the turn
# of every step past the first.  Measured over 300 seeded random starts as
# above (a turn of 0.05 to 1 per ``step``, 100 samples), at tol = 0.01 S no
# attempted step turned the state by more than 1.03 radians and the largest
# stage state was 1.40 S; at tol = 0.1 S a step turned by 2.06 radians with a
# stage of 9.7e4 S, and at tol = S by 2.98 radians with a stage of 5.5e24 S,
# on the way to the overflow in the stages that tol 1e10 reached from rho 1.4
# at a turn of 0.5 per step.  No step is longer than t_end, but for the 1%
# stretch onto it, so only a run whose horizon turns the state by more than
# _MAX_TURN needs tol <= _TOL_PER_ENTRY S.
_TOL_PER_ENTRY = 1e-2

# The error control compares an absolute estimate with ``tol``.  The
# Dormand-Prince estimate of a step is h times a weighted difference of its
# stage slopes (weights of absolute sum 0.160), and each stage state carries
# the rounding of the state's largest entry, u S with u = 2^-53, which the
# right-hand side (derivative at most 3 |eps| H) passes on to its slope.  So
# the estimate of a step as long as the sample spacing holds up to about
# 0.48 turn u S of rounding, where turn = step |eps| H, and a shorter step's
# less.  With turn u S <= tol every step up to that length can meet tol, and
# the control shrinks a step below it only for its truncation error; past it
# the control chases rounding, and far past it no step above flow._MIN_H
# meets tol (rho = 1e50 at a turn of 0.95 failed with a step size underflow
# at t = 0).  At eps = 0 nothing moves and any start is valid.
_UNIT_ROUNDOFF = 2.0**-53


def _check(p: Params) -> None:
    # integrate_flow's sample grid steps while t < t_end - _END_SLACK
    # max(1, t_end), which at t = 0 holds only for t_end above _END_SLACK;
    # below, the lone sample leaves no flow to diagnose
    if not p["t_end"] > _END_SLACK:
        raise ConfigError("params.t_end", f"must exceed {_END_SLACK:g}, the integrator's end "
                          f"tolerance, or the flow takes no step; got {p['t_end']!r}")
    n = p["t_end"] / p["step"]
    if not n <= _MAX_SAMPLES:
        raise ConfigError("params.step", f"t_end / step = {n:.6g} samples, above the 2^21 a run may store")
    entries = {"rho": max(p["rho"], 1.0 / p["rho"]), "n_re": abs(p["n_re"]), "n_im": abs(p["n_im"])}
    entry = max(entries, key=entries.get)
    energy = float(free_energy(SB2Element(p["rho"], complex(p["n_re"], p["n_im"])).matrix))
    turn = p["step"] * abs(p["epsilon"]) * energy
    # an error names the factor furthest above its scale: step against its
    # default, |epsilon| against 1, and the start entry that dominates H
    # against 1, H's least value
    factors = {"step": p["step"] / PARAMS["step"].default, "epsilon": abs(p["epsilon"]), entry: energy}
    if not turn <= _MAX_TURN:
        raise ConfigError(
            f"params.{max(factors, key=factors.get)}",
            f"the sample spacing turns the state by up to step * |epsilon| * H = {turn!r} radians "
            f"(H = {energy:.6g} at the start), above {_MAX_TURN:g}, the bound that keeps "
            "the body velocity read between two samples clear of its aliasing at pi",
        )
    horizon = p["t_end"] * abs(p["epsilon"]) * energy
    if horizon > _MAX_TURN and not p["tol"] <= _TOL_PER_ENTRY * entries[entry]:
        raise ConfigError(
            "params.tol",
            f"a step grows until its error estimate meets tol, and past {_TOL_PER_ENTRY:g} S = "
            f"{_TOL_PER_ENTRY * entries[entry]:.6g} (S = {entries[entry]:.6g}, the start's largest "
            f"entry) it can turn the state by more than {_MAX_TURN:g} radian; got {p['tol']!r} "
            f"over a horizon that turns it by up to t_end * |epsilon| * H = {horizon:.6g}",
        )
    rounding = turn * _UNIT_ROUNDOFF * entries[entry]
    if not rounding <= p["tol"]:
        # the entry enters through H and through its own rounding; tol
        # against its default
        factors.update({entry: energy * entries[entry], "tol": PARAMS["tol"].default / p["tol"]})
        raise ConfigError(
            f"params.{max(factors, key=factors.get)}",
            f"a step as long as the sample spacing carries about step * |epsilon| * H * u * S = "
            f"{rounding:.6g} of rounding (S = {entries[entry]:.6g}, the start's largest entry, "
            f"u = 2^-53), above tol = {p['tol']!r}: the absolute error control cannot "
            "resolve a state of that size",
        )


def _start(rho: float, n_re: float, n_im: float) -> SL2CElement:
    return SL2CElement.from_matrix(SB2Element(rho, complex(n_re, n_im)).matrix)


def _flow(p: Params) -> tuple[Trajectory, int]:
    step = StepControl(h=p["step"], tol=p["tol"])
    return free_flow(_start(p["rho"], p["n_re"], p["n_im"]), p["epsilon"], p["t_end"], step=step)


def _trajectory(p: Params) -> ArtifactData:
    traj, n_renorm = _flow(p)
    diag, det_residual, rho, n = _diagnostics(traj, p["epsilon"])
    diag["renormalizations"] = n_renorm
    diag["h_drift"] = traj.h_drift
    columns = {
        "t": traj.times,
        **dict(zip(GROUP_COORD_NAMES, traj.points.T)),
        "rho": rho,
        "n_re": n.real,
        "n_im": n.imag,
        "H": 0.5 * _squared_norm(traj.points),
        "det_residual": det_residual,
    }
    return ArtifactData("trajectory", columns, diag)


# The energy pipeline reads the start's squared Casimir radius from its trace
# energy H as (H - 1) / (2 eps^2) (energy_relations), then the classical
# energy r^2 / 2, which is at most half of it (asinh x <= x), and doubles that
# back.  All of them are finite, with a factor 2 to spare for rounding, for
# eps^2 >= (H - 1) / DBL_MAX.  eps^2 must also not round to 0, which it does
# below 2^-537 (there even H = 1 divides 0 by 0).  Within that bound a
# subnormal eps^2 rounds by at most 2^-1075, a relative 2^-1075 DBL_MAX /
# (H - 1) ~ 4u / (H - 1) (u = 2^-53), which moves the pipeline's expected
# energy 1 + (H - 1) by at most about 4u.
def _least_epsilon(energy: float) -> float:
    """The least |epsilon| != 0 at which the pipeline reads a start of trace
    energy ``energy``."""
    return math.sqrt(max((energy - 1.0) / sys.float_info.max, 5e-324))


def _certificate_check(p: Params, field: str) -> None:
    """The certificate's domain: the momentum isomorphism's Casimir must not
    overflow a float anywhere in the sampling cube, and the energy pipeline
    must read the start's energy."""
    epsilon = p["epsilon"]
    exponent = abs(epsilon) * _CUBE * math.sqrt(3.0)  # |eps| r at the cube's corners
    if not exponent < LOG_SQRT_DBL_MAX:
        raise ConfigError(field, f"the momentum isomorphism overflows a float: |epsilon| r "
                          f"reaches {exponent:.6g} in the sampling cube, at or above "
                          f"log(DBL_MAX) / 2 = {LOG_SQRT_DBL_MAX:.6g}")
    energy = free_energy(SB2Element(p["rho"], complex(p["n_re"], p["n_im"])).matrix)
    least = _least_epsilon(energy)
    if epsilon != 0.0 and not abs(epsilon) >= least:
        raise ConfigError(field, f"the energy pipeline reads the start's squared radius "
                          f"(H - 1) / (2 epsilon^2) at H = {energy:.6g}, which needs "
                          f"|epsilon| >= {least:.6g} (or epsilon = 0)")


# The certificate's flow to t = 1 turns the unitary factor at the rate
# |eps| sqrt(H^2 - 1) < |eps| H (see _MAX_TURN), and the body velocity it is
# checked against is read exactly at any spacing, so its sample spacing is
# set by the turn: at most 1/80 radian, between 1e-3 (the fixed spacing it
# replaced, so never more samples) and 0.05 (at least 20 samples; eps = 0
# stands still).  The steps come from tol alone.
_CERT_TURN = 1.0 / 80.0
_CERT_STEP_MIN, _CERT_STEP_MAX = 1e-3, 0.05


def _certificate_step(epsilon: float, energy: float) -> float:
    """Sample spacing of the certificate's flow from a start of energy H."""
    rate = abs(epsilon) * energy
    if rate * _CERT_STEP_MAX <= _CERT_TURN:
        return _CERT_STEP_MAX
    return max(_CERT_STEP_MIN, _CERT_TURN / rate)


def _certificate(p: Params, seed: int, n_points: int) -> list[CertCheck]:
    """Jacobi checks of the three shipped brackets, conservation along the
    free flow from the configured start to t = 1, the energy pipeline, the
    dual-path dynamics and the momentum isomorphism."""
    epsilon = p["epsilon"]
    push, cas = isomorphism_deviation(epsilon, n_points, seed + 4)

    # conservation along the flow, against the closed-form solution (t = 1)
    start = _start(p["rho"], p["n_re"], p["n_im"])
    step = StepControl(h=_certificate_step(epsilon, float(free_energy(start.matrix))), tol=1e-8)
    traj, _ = free_flow(start, epsilon, 1.0, step=step)
    diag = flow_diagnostics(traj, epsilon)

    dual = dual_path_deviation(epsilon, n_points, seed + 3)
    return [
        jacobi_check("jacobi_group", sl2c_bivector(epsilon), n_points, seed),
        jacobi_check("jacobi_momentum", momentum_bivector(epsilon), n_points, seed + 1),
        jacobi_check("jacobi_linear", linear_momentum_bivector(), n_points, seed + 2),
        threshold_check("flow_det_drift", diag["det_residual"], 1e-8),
        threshold_check("flow_momentum_drift", diag["b_factor_drift"], 1e-6),
        threshold_check("flow_body_velocity", diag["omega_deviation"], 1e-5),
        threshold_check("flow_closed_form_endpoint", diag["endpoint_deviation"], 1e-7),
        threshold_check("energy_pipeline", energy_pipeline_deviation(traj, epsilon), 1e-6),
        threshold_check("dual_path_dynamics", dual, 1e-6),
        threshold_check("isomorphism_pushforward", push, 1e-5),
        threshold_check("isomorphism_casimir", cas, 1e-12),
    ]


def _sweep_row(p: Params) -> dict:
    traj, _ = _flow(p)
    diag = flow_diagnostics(traj, p["epsilon"])
    return {
        "classical_limit_dev": classical_limit_deviation(p["epsilon"]),
        "det_residual": diag["det_residual"],
        "b_factor_drift": diag["b_factor_drift"],
        "endpoint_deviation": diag["endpoint_deviation"],
    }


MODEL = Model(
    name="su2",
    params=PARAMS,
    check=_check,
    artifacts={"trajectory": _trajectory},
    certificate=_certificate,
    certificate_check=_certificate_check,
    sweep_row=_sweep_row,
)
