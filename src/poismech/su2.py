"""Free motion on a compact group with a deformed momentum space.

The configuration space is the unit-determinant complex 2x2 group carrying a
multiplicative Poisson structure with deformation strength ``epsilon``: the
Heisenberg double ``-(epsilon / 2) (r^L + r^R)`` of the Iwasawa Manin triple
sl(2, C) = su(2) + sb(2), whose ``r`` pairs su(2) with its dual in sb(2).  Points
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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .bracket import _CHUNK_BYTES, BivectorSpec, ScalarField, hamiltonian_vector_field, pushforward_bivector
from .errors import ConfigError, ContractViolation, NumericDomainError
from .flow import _END_SLACK, StepControl, Trajectory, _sample_times, integrate_flow
from .model import REAL, ArtifactData, Bracket, CertCheck, Model, Param, Params

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
# free_flow rescales accepted states off by more; the margin keeps the samples
# between them, which it does not rescale, inside _UNIMODULAR_TOL
_RENORM_TRIGGER = _UNIMODULAR_TOL / 10
# half-width of the linear-chart cube the isomorphism certificate samples
_CUBE = 1.2
# largest exponent x whose exp(x) still squares to a finite float
LOG_SQRT_DBL_MAX = 0.5 * math.log(sys.float_info.max)
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


def _unitary_contract(alpha: complex, gamma: complex) -> None:
    """The first column ``(alpha, gamma)`` of a special unitary is a unit vector."""
    norm = abs(alpha) ** 2 + abs(gamma) ** 2
    if not abs(norm - 1.0) <= _UNITARY_TOL:  # NaN fails too
        raise ContractViolation(f"|alpha|^2 + |gamma|^2 = {norm} deviates from 1 beyond {_UNITARY_TOL}")


def _triangular_contract(rho: float, n: complex) -> None:
    """``[[rho, n], [0, 1/rho]]`` has a positive, finite ``rho`` and a finite ``n``."""
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ContractViolation(f"diagonal scale must be positive, got {rho}")
    if not cmath.isfinite(n):
        raise ContractViolation(f"off-diagonal entry must be finite, got {n}")


@dataclass(frozen=True)
class SU2Element:
    """Special unitary ``[[alpha, -conj(gamma)], [gamma, conj(alpha)]]``."""

    alpha: complex
    gamma: complex

    def __post_init__(self):
        _unitary_contract(self.alpha, self.gamma)

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
        _triangular_contract(self.rho, self.n)

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
    up to rounding.  A first column whose norm ``rho`` is 0 or not a float
    (as at ``a = c = 1.5e308``) is a ``NumericDomainError``."""
    g = np.asarray(g, dtype=complex)
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        rho = np.hypot(np.abs(g[..., 0, 0]), np.abs(g[..., 1, 0]))
    if rho.size and not (rho.min() > 0.0 and rho.max() < np.inf):  # NaN fails too
        raise NumericDomainError("first column vanishes, no triangular factor" if rho.min() == 0.0
                                 else "the first column's norm is not a finite float")
    alpha = g[..., 0, 0] / rho
    gamma = g[..., 1, 0] / rho
    n = np.conj(alpha) * g[..., 0, 1] + np.conj(gamma) * g[..., 1, 1]
    return alpha, gamma, rho, n


# ---------------------------------------------------------------------------
# the multiplicative bracket in the real chart

# The group chart carries the Heisenberg double of the Iwasawa Manin triple
# sl(2, C) = su(2) + sb(2), paired by Im tr (Semenov-Tian-Shansky 1985;
# Lu-Weinstein 1990): a basis of su(2), (iH, E12 - E21, i (E12 + E21)), and
# its dual basis in sb(2), (H / 2, -i E12, E12), with Im tr(_SU2[i] _SB2[j])
# = delta_ij and Im tr vanishing within each; r = sum_k _SU2[k] ^ _SB2[k].
_SU2 = np.array([[[1j, 0], [0, -1j]], [[0, 1], [-1, 0]], [[0, 1j], [1j, 0]]])
_SB2 = np.array([[[0.5, 0], [0, -0.5]], [[0, -1j], [0, 0]], [[0, 1], [0, 0]]])


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 2x2 products of two broadcasting stacks (..., 2, 2) as broadcast
    sums: a process's first complex matmul or einsum adds about 0.5 MB to
    its peak memory."""
    return (a[..., :, :, None] * b[..., None, :, :]).sum(-2)


@functools.cache
def _sl2c_coefficients() -> np.ndarray:
    """Constant 64x64 matrix ``A`` with ``vec(P(x)) = eps * (A @ vec(x x^T))``
    for the bracket ``P = -(eps / 2) (r^L + r^R)`` of the Manin triple's
    ``r = sum_k su2_k ^ sb2_k``.

    The left field of ``X`` at ``g`` is ``g X`` and the right field ``X g``,
    both linear in the chart point ``x``, so ``P`` is a quadratic form.  Its
    coefficients, antisymmetric in the two output indices and symmetrized in
    the two ``x`` indices, are exact multiples of 1/4, so ``P`` comes out
    exactly antisymmetric from one product.
    """
    g = matrix_from_real8(np.eye(8))[:, None]  # the chart's unit vectors e_p
    # su[p, k, i]: entry i of the k-th field at e_p, left fields then right
    su = real8_from_matrix(np.concatenate([_times(g, _SU2), _times(_SU2, g)], axis=1))
    sb = real8_from_matrix(np.concatenate([_times(g, _SB2), _times(_SB2, g)], axis=1))
    # sum_pq x_p x_q r[p, q, i, j] = sum_k su_k^i(x) sb_k^j(x), half of r's wedge
    r = (su[:, None, :, :, None] * sb[None, :, :, None, :]).sum(2)
    minus_r = r.transpose(0, 1, 3, 2) - r
    coeff = 0.25 * (minus_r + minus_r.transpose(1, 0, 2, 3))
    # in C order, since the product's order of summation, and so the bits of
    # P, follow the layout
    coeff = np.ascontiguousarray(coeff.transpose(2, 3, 0, 1).reshape(64, 64))
    coeff.setflags(write=False)  # one cached array serves every bivector
    return coeff


def sl2c_bivector(epsilon: float) -> BivectorSpec:
    """Multiplicative bracket on the 8-dimensional real group chart,
    ``-(eps / 2) (r^L + r^R)`` of the Iwasawa Manin triple's ``r``.

    Satisfies the Jacobi identity identically on the ambient chart (not just
    on the unit-determinant slice), so certificates sampled from a box are
    meaningful.  ``P(x)`` is one matrix-vector product per point with
    :func:`_sl2c_coefficients`' quadratic form, so a point has the same
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
# the declared data the certificate proves Poisson


def _sl2c_coordinates(m: np.ndarray) -> np.ndarray:
    """The coordinates (..., 6) of traceless 2x2 matrices (..., 2, 2) in the
    real basis ``(_SU2, _SB2)`` of sl(2, C): ``Im tr(m _SB2[k])`` on
    ``_SU2[k]`` and ``Im tr(m _SU2[k])`` on ``_SB2[k]``, as the pairing makes
    the two bases dual and each isotropic."""
    def pair(basis):
        return np.imag((m[..., None, :, :] * np.swapaxes(basis, -1, -2)).sum((-2, -1)))

    return np.concatenate([pair(_SB2), pair(_SU2)], axis=-1)


@functools.lru_cache(maxsize=8)
def _ad_defect(x_bytes: bytes, y_bytes: bytes) -> float:
    """The largest entry of ad_e [[r, r]] over the basis e of the real
    sl(2, C), for r = sum_k X_k ^ Y_k given by the bytes of the complex
    stacks X and Y; cached per r."""
    X, Y = (np.frombuffer(b, complex).reshape(-1, 2, 2) for b in (x_bytes, y_bytes))
    e = np.concatenate([_SU2, _SB2])
    c = _sl2c_coordinates(_times(e[:, None], e[None]) - _times(e[None], e[:, None]))  # [e_i, e_j] = c_ijk e_k
    x, y = _sl2c_coordinates(X), _sl2c_coordinates(Y)
    R = x.T @ y - y.T @ x  # r = sum_k x_k ^ y_k as a 6x6 antisymmetric matrix
    # [[r, r]] up to a constant factor: [r12, r13] + [r12, r23] + [r13, r23]
    S = (np.einsum("lma,lb,mc->abc", c, R, R) + np.einsum("lmb,al,mc->abc", c, R, R)
         + np.einsum("lmc,al,bm->abc", c, R, R))
    ad = (np.einsum("xma,mbc->xabc", c, S) + np.einsum("xmb,amc->xabc", c, S)
          + np.einsum("xmc,abm->xabc", c, S))
    return float(np.max(np.abs(ad)))


class ManinR(NamedTuple):
    """The declared data of :func:`sl2c_bivector`: ``r = sum_k X[k] ^ Y[k]``
    for stacks ``X`` and ``Y`` (m, 2, 2) of traceless complex matrices, and
    the bracket ``-(eps / 2) (r^L + r^R)`` it defines on the group chart."""

    epsilon: float
    X: np.ndarray
    Y: np.ndarray

    proof = "the Schouten square of r is ad-invariant"

    def jacobi_defect(self) -> float:
        """Left- and right-invariant fields commute, so ``[r^L + r^R, r^L +
        r^R] = [[r, r]]^L - [[r, r]]^R``, and the bracket is Poisson on the
        whole chart when ``[[r, r]]`` is ad-invariant: the largest entry of
        ``ad_e [[r, r]]`` over the basis of the 6-dim real sl(2, C).  The
        structure constants of ``(_SU2, _SB2)`` are 0, +-1 and +-2, so for
        dyadic r every sum is exact and 0 means invariant."""
        return _ad_defect(np.asarray(self.X, complex).tobytes(), np.asarray(self.Y, complex).tobytes())

    def pi_r(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``-(eps / 2) sum_k (g X_k ^ g Y_k + X_k g ^ Y_k g)`` at the real
        points x (m, 8), through 2x2 products, and its term sizes: the real
        and imaginary part of an entry of ``g X`` sum terms of at most
        ``|g| |X|`` in size, entrywise moduli."""
        g = matrix_from_real8(x)[..., None, :, :]
        ag, aX, aY = np.abs(g), np.abs(self.X), np.abs(self.Y)
        P = T = 0.0
        for u, v, su, sv in ((_times(g, self.X), _times(g, self.Y), _times(ag, aX), _times(ag, aY)),
                             (_times(self.X, g), _times(self.Y, g), _times(aX, ag), _times(aY, ag))):
            uv = np.swapaxes(real8_from_matrix(u), -1, -2) @ real8_from_matrix(v)  # sum_k u_k v_k^T
            su, sv = (np.repeat(s.reshape(s.shape[:-2] + (4,)), 2, axis=-1) for s in (su, sv))
            st = np.swapaxes(su, -1, -2) @ sv
            P = P + (uv - np.swapaxes(uv, -1, -2))
            T = T + (st + np.swapaxes(st, -1, -2))
        return -0.5 * self.epsilon * P, 0.5 * abs(self.epsilon) * T


@functools.lru_cache(maxsize=8)
def _lie_jacobi_defect(c_bytes: bytes, n: int) -> float:
    """The largest entry of sum_m c_ijm c_mkl + cyclic in (i, j, k) for the
    structure constants given by their bytes; cached per algebra."""
    c = np.frombuffer(c_bytes).reshape(n, n, n)
    jac = (np.einsum("ijm,mkl->ijkl", c, c) + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    return float(np.max(np.abs(jac)))


class LiePoisson(NamedTuple):
    """The declared data of a linear bracket ``{x_i, x_j} = sum_k c[i, j, k]
    x_k``: the structure constants ``c`` (n, n, n) of its Lie algebra."""

    c: np.ndarray

    proof = "the structure constants satisfy Jacobi"

    def jacobi_defect(self) -> float:
        """A Lie-Poisson bracket is Poisson when its structure constants
        satisfy the Jacobi identity; for integer constants every sum is
        exact and 0 means they do."""
        return _lie_jacobi_defect(np.asarray(self.c, float).tobytes(), len(self.c))

    def pi_r(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sum_k c[i, j, k] x_k`` at the real points x (m, n), and its
        term sizes ``sum_k |c[i, j, k]| |x_k|``."""
        return np.einsum("ijk,...k->...ij", self.c, x), np.einsum("ijk,...k->...ij", np.abs(self.c), np.abs(x))


# so(3): {x, y} = z, {y, z} = x, {z, x} = y, the linear bracket's constants
_SO3 = np.zeros((3, 3, 3))
_SO3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_SO3[[1, 2, 0], [0, 1, 2], [2, 0, 1]] = -1.0
_SO3.setflags(write=False)


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
    the generator of the deformed free flow, which reads only the gradient:
    the float point itself, which its readers never write.  ``fn`` takes one
    point; ``0.5 * _squared_norm`` gives its bits on a stack."""
    return ScalarField(fn=lambda x: 0.5 * float(np.dot(x, x)), grad=lambda x: x)


def flow_rhs(m: np.ndarray, epsilon: float) -> np.ndarray:
    """Right-hand side of the free flow, ``i eps (H m + Y conj(m) Y)``, at
    each matrix of a stack ``(..., 2, 2)``."""
    m = np.asarray(m, dtype=complex)
    return 1j * epsilon * (free_energy(m)[..., None, None] * m + _Y @ np.conj(m) @ _Y)


def _sinhc(u):
    """``sinh(u) / u`` for a real or complex array ``u``, continued by its
    limit 1 at ``u = 0``; ``sinh(eps x) / eps`` is ``x * _sinhc(eps x)`` at
    every eps."""
    u = np.asarray(u)
    out = np.ones(u.shape, np.result_type(u, float))
    return np.divide(np.sinh(u), u, out=out, where=u != 0)


def _free_motion(alpha: complex, gamma: complex, rho: float, n: complex, epsilon: float,
                 t: float) -> tuple[tuple, tuple, tuple]:
    """The free motion through ``u0 B`` in closed form, in Python complex
    scalars, for ``u0 = [[alpha, -conj(gamma)], [gamma, conj(alpha)]]`` and
    ``B = [[rho, n], [0, 1/rho]]``: the constant body velocity ``omega = i eps
    [[a, n/rho], [conj(n)/rho, -a]]``, ``a = (rho^2 - rho^-2 + |n|^2) / 2``;
    ``exp(t omega) = cos(theta t) I + sin(theta t)/theta omega`` (``t`` at
    ``theta t = 0``), as ``omega^2 = -theta^2 I`` with ``theta = |eps|
    sqrt(a^2 + |n|^2/rho^2)``; and ``u0 exp(t omega) B``.  Each is a nested
    2x2 tuple; ``omega`` is traceless and anti-Hermitian, and ``exp(t omega)``
    of the special unitary form, exactly, not to rounding."""
    r2, m = rho * rho, abs(n)
    w, v = complex(0.0, epsilon * 0.5 * (r2 - 1.0 / r2 + m * m)), 1j * epsilon * n / rho
    x = math.hypot(w.imag, abs(v)) * t  # theta t
    if not math.isfinite(x):
        raise NumericDomainError(f"the closed form turns the unitary factor by theta t = {x}")
    s = t * (math.sin(x) / x) if x else t
    e, f = complex(math.cos(x), s * w.imag), -s * v.conjugate()
    # u0 exp(t omega) is special unitary with the first column (al, ga)
    al, ga = alpha * e - gamma.conjugate() * f, gamma * e + alpha.conjugate() * f
    return (((w, v), (-v.conjugate(), -w)), ((e, -f.conjugate()), (f, e.conjugate())),
            ((al * rho, al * n - ga.conjugate() / rho), (ga * rho, ga * n + al.conjugate() / rho)))


def closed_form_flow(u0: SU2Element, b_part: SB2Element, epsilon: float, t: float) -> np.ndarray:
    """Exact free trajectory through ``u0 * B`` at ``t``: rotate the unitary
    factor (:func:`_free_motion`)."""
    return np.array(_free_motion(u0.alpha, u0.gamma, b_part.rho, b_part.n, epsilon, t)[2])


def free_flow(
    g0: SL2CElement,
    epsilon: float,
    t_end: float,
    step: StepControl,
) -> tuple[Trajectory, int]:
    """Integrate the free flow on the group chart with the step size and
    tolerance of ``step``.

    The determinant is conserved by the exact flow; whenever an accepted
    state drifts off the unit-determinant slice by more than 1e-10 it is
    rescaled back, and the next step starts from it; the samples inside a
    step are not rescaled.  Returns the trajectory and the number of
    rescaled accepted states.
    """
    events = [0]

    def renorm(x: np.ndarray) -> np.ndarray:
        # one accepted state (8,); on the slice, x itself comes back, which
        # the integrator reads as unmoved
        m = matrix_from_real8(x)
        det = _det(m)
        if abs(det - 1.0) > _RENORM_TRIGGER:
            events[0] += 1
            x = real8_from_matrix(m / cmath.sqrt(det))
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


def flow_diagnostics(traj: Trajectory, epsilon: float) -> dict:
    """Conservation and factorization report for a free-flow trajectory.

    Returns max determinant residual, drift of the triangular factor, the
    worst deviation of the measured unitary body velocity (exact at any
    sample spacing) from its closed-form value, and the endpoint distance to
    the closed-form flow, both from :func:`_free_motion` at the first sample.
    Fewer than two samples, or one off the unit-determinant slice by more
    than 1e-9 or NaN, is a ``ContractViolation``.

    The body velocity of an interval is ``log(q) / (t_{k+1} - t_k)``, and the
    logarithm of the special unitary ``q = u_k^H u_{k+1} = [[qa, -conj(qc)],
    [qc, conj(qa)]]`` is ``theta / sin(theta) (q - q^H) / 2``, ``theta =
    atan2(|Im part|, Re qa)``.  A free flow is ``u(t) = u0 exp(t omega)``, so
    every interval reads ``omega`` to rounding, at any spacing.  The domain is
    a turn below pi per interval (a larger one aliases).
    """
    if traj.times.size < 2:
        raise ContractViolation(f"a flow to diagnose needs at least two samples, got {traj.times.size}")
    mats = matrix_from_real8(traj.points)
    det_residual = np.abs(_det(mats) - 1.0)
    off = np.flatnonzero(~(det_residual <= _UNIMODULAR_TOL))
    if off.size:
        raise ContractViolation(f"sample {off[0]}: determinant deviates from 1 by "
                                f"{det_residual[off[0]]}, more than {_UNIMODULAR_TOL}")
    alpha, gamma, rho, n = iwasawa(mats)
    a0, c0, r0, n0 = alpha[0].item(), gamma[0].item(), rho[0].item(), n[0].item()
    _unitary_contract(a0, c0)
    _triangular_contract(r0, n0)
    ((w, v), _), _, end = _free_motion(a0, c0, r0, n0, epsilon, traj.times[-1].item())

    qa = np.conj(alpha[:-1]) * alpha[1:] + np.conj(gamma[:-1]) * gamma[1:]
    qc = alpha[:-1] * gamma[1:] - gamma[:-1] * alpha[1:]
    theta = np.arctan2(np.hypot(qa.imag, np.abs(qc)), qa.real)
    scale = 1.0 / (np.sinc(theta / np.pi) * np.diff(traj.times))  # theta / sin(theta) / dt
    # scale (q - q^H) / 2 = scale [[i Im qa, -conj(qc)], [qc, -i Im qa]] against omega =
    # [[w, v], [-conj(v), -w]]: the diagonal entries differ by +-i (scale Im qa - Im w),
    # the lower one by scale qc + conj(v) and the upper one by minus its conjugate
    omega_deviation = max(np.abs(scale * qa.imag - w.imag).max(),
                          np.abs(scale * qc + v.conjugate()).max())
    endpoint = zip(mats[-1].ravel().tolist(), end[0] + end[1])
    return {
        "det_residual": float(det_residual.max()),
        "b_factor_drift": float(max(np.abs(rho - rho[0]).max(), np.abs(n - n[0]).max())),
        "omega_deviation": float(omega_deviation),
        "endpoint_deviation": max(abs(g - e) for g, e in endpoint),
    }


# ---------------------------------------------------------------------------
# momentum chart


def momentum_bivector(epsilon: float) -> BivectorSpec:
    """Deformed rotation brackets on ``(zeta, w_re, w_im)``, the so(3)
    Lie-Poisson form ``{x_i, x_j} = e_ijk v_k`` with ``v = (zeta sinhc(2 eps
    zeta), w_re, w_im)``: ``{w_re, w_im} = sinh(2 eps zeta) / (2 eps)``.  Each
    entry is assigned alone, so none is a product with zero, and an infinite
    coordinate leaves the zeros zero."""
    def dense(x: np.ndarray) -> np.ndarray:
        P = np.zeros(x.shape[:-1] + (3, 3), dtype=np.result_type(x, float))
        x0, x1, x2 = np.moveaxis(x, -1, 0)
        for (i, j), v in (((0, 1), x2), ((0, 2), -x1), ((1, 2), x0 * _sinhc(2.0 * epsilon * x0))):
            P[..., i, j] = v
            P[..., j, i] = -v
        return P

    return BivectorSpec(dim=3, coord_names=MOMENTUM_COORD_NAMES, dense=dense)


def linear_momentum_bivector() -> BivectorSpec:
    """Rotation-algebra brackets on ``(x, y, z)``: the momentum brackets at
    ``eps = 0``, where ``_sinhc`` is exactly 1."""
    return replace(momentum_bivector(0.0), coord_names=LINEAR_COORD_NAMES)


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
    seeded unimodular points: the bracket's Hamiltonian vector field of
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
    Casimirs (``R = r`` at ``eps = 0``), read relative to its sizes as
    ``|eps R - sinh(eps r)| / (|sinh(eps r)| (1 + |eps| r))`` (``|R - r| /
    r`` at ``eps = 0``; at ``r = 0`` the gap itself).  Returns the worst of
    each; NaN and inf propagate.
    """
    # one draw of (n_points, 3) continues the same stream as one per point
    p = np.random.default_rng(seed).uniform(-_CUBE, _CUBE, size=(n_points, 3))
    img = momentum_isomorphism(p, epsilon)
    phi = functools.partial(momentum_isomorphism, epsilon=epsilon)
    got = pushforward_bivector(linear_momentum_bivector(), phi, p)
    push = np.abs(got - momentum_bivector(epsilon).matrix(img))
    r = np.sqrt(_squared_norm(p))
    big_r = np.sqrt(casimir_radius_squared(img, epsilon))
    if epsilon:
        sinh = np.sinh(epsilon * r)
        gap, size = np.abs(epsilon * big_r - sinh), np.abs(sinh) * (1.0 + abs(epsilon) * r)
    else:
        gap, size = np.abs(big_r - r), r
    cas = np.divide(gap, size, out=gap.copy(), where=size != 0)
    return float(np.max(push, initial=0.0)), float(np.max(cas, initial=0.0))


def energy_pipeline_deviation(points: np.ndarray, epsilon: float) -> float:
    """Worst gap along the group-chart samples ``points``, shape ``(n, 8)``,
    of a free motion between the trace energy and ``cosh(2 eps sqrt(2 h))``
    of the classical energy ``h`` that :func:`energy_relations` gives for
    the first sample's trace energy (its own trace energy at ``eps = 0``);
    NaN and inf propagate."""
    energy = 0.5 * _squared_norm(points)
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
    "step": Param(REAL, 1e-3, positive=True),
}

# A run stores its samples on the grid t += step, t_end / step of them and
# the start, 8 floats each; 2^21 of them keep it within 2^24 floats.
_MAX_SAMPLES = 2**21

# At a sample x = g of energy H, every entry at most |x| = sqrt(2 H), P(x) is
# eps times _sl2c_coefficients (rows of absolute sum 5) applied to x x^T, so
# the field's terms sum_j |P_ij| |x_j| <= 10 |eps| H |x|_1 <= 40 |eps|
# H^(3/2); omega's entries are at most theta < |eps| H, so the velocity's
# terms sum_k |omega_ik| |g_kj| <= 2 |eps| H^(3/2).  No float of the field
# residual passes their sum.  It takes P on _CHUNK_BYTES of samples at a time.
_FIELD_TERMS = 42.0
_FIELD_CHUNK = _CHUNK_BYTES // (64 * 8)


def _start_energy(p: Params) -> tuple[float, str]:
    """The start's trace energy ``H`` and the start field that drives it:
    the one of the largest entry among rho, 1/rho, |n_re| and |n_im|."""
    entries = {"rho": max(p["rho"], 1.0 / p["rho"]), "n_re": abs(p["n_re"]), "n_im": abs(p["n_im"])}
    b = np.array([[p["rho"], complex(p["n_re"], p["n_im"])], [0.0, 1.0 / p["rho"]]], dtype=complex)
    return float(free_energy(b)), max(entries, key=entries.get)


def _check(p: Params) -> None:
    if not p["t_end"] > _END_SLACK:
        raise ConfigError("params.t_end", f"must exceed {_END_SLACK:g}, the sample grid's end "
                          f"tolerance (it ends within that of t_end), or the grid has one "
                          f"sample; got {p['t_end']!r}")
    n = p["t_end"] / p["step"]
    if not n <= _MAX_SAMPLES:
        raise ConfigError("params.step", f"t_end / step = {n:.6g} samples, above the 2^21 a run may store")
    # every float the run writes is finite while |eps| H t_end > theta t_end
    # and the field residual's terms are; the samples' entries are at most 2 S
    energy, entry = _start_energy(p)
    rate = abs(p["epsilon"]) * energy
    turn, terms = rate * p["t_end"], _FIELD_TERMS * rate * math.sqrt(energy)
    if not max(turn, terms) <= sys.float_info.max:
        # name the factor with the largest share of the overflow, in orders of magnitude
        shares = {"epsilon": math.log(abs(p["epsilon"])),
                  entry: math.log(energy) * (1.0 if turn > sys.float_info.max else 1.5)}
        if turn > sys.float_info.max:
            shares["t_end"] = math.log(p["t_end"])
        raise ConfigError(f"params.{max(shares, key=shares.get)}", f"the run's floats overflow: "
                          f"|epsilon| H t_end = {turn:.6g} bounds the turn, and {_FIELD_TERMS:g} "
                          f"|epsilon| H^(3/2) = {terms:.6g} the field residual's terms (H = "
                          f"{energy:.6g} at the start); neither may pass DBL_MAX")


def _exact_motion(p: Params, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact free motion from ``B`` at ``times``, :func:`_free_motion`
    at ``u0 = I`` from one stacked cos and sin: the samples, shape
    ``(len(times), 2, 2)``, and the body velocity ``omega``."""
    rho, n = p["rho"], complex(p["n_re"], p["n_im"])
    (w, v), _ = _free_motion(1.0, 0.0, rho, n, p["epsilon"], 0.0)[0]
    x = math.hypot(w.imag, abs(v)) * times  # theta t
    s = times * np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)  # sin(theta t) / theta
    e, f = np.cos(x) + 1j * (s * w.imag), -s * v.conjugate()
    mats = np.stack([e * rho, e * n - np.conj(f) / rho, f * rho, f * n + np.conj(e) / rho], axis=-1)
    return mats.reshape(-1, 2, 2), np.array([[w, v], [-v.conjugate(), -w]])


def _field_residual(epsilon: float, mats: np.ndarray, omega: np.ndarray) -> float:
    """The largest gap, entry by entry over the samples ``mats`` of the free
    motion of body velocity ``omega``, between the bracket's field of the
    trace energy, hamiltonian_vector_field's ``-P(x) grad H``, and the exact
    velocity ``exp(t omega) omega B = omega g``, over the sizes of their
    terms; 0/0 reads 0, as everywhere at ``eps = 0``."""
    biv, H = sl2c_bivector(epsilon), free_hamiltonian_field()
    worst = []
    for k in range(0, len(mats), _FIELD_CHUNK):
        g = mats[k:k + _FIELD_CHUNK]
        x = real8_from_matrix(g)
        P, grad = biv.matrix(x), H.gradient(x)[..., None]
        # omega g as its two terms; an entry's term sizes serve its real and imaginary part
        velocity = omega[:, :1] * g[:, :1] + omega[:, 1:] * g[:, 1:]
        gap = np.abs(-(P @ grad)[..., 0] - real8_from_matrix(velocity))
        terms = (np.abs(P) @ np.abs(grad))[..., 0] + np.repeat(
            (np.abs(omega) @ np.abs(g)).reshape(-1, 4), 2, axis=-1)
        worst.append(np.max(np.divide(gap, terms, out=np.zeros_like(gap), where=terms != 0)))
    return float(np.max(worst))


def _trajectory(p: Params) -> ArtifactData:
    """The exact free motion from ``B`` on the grid ``t += step``, with its
    determinant residual and the bracket's field residual along it."""
    times = _sample_times(p["t_end"], p["step"])
    mats, omega = _exact_motion(p, times)
    points = real8_from_matrix(mats)
    det_residual = np.abs(_det(mats) - 1.0)
    _, _, b_rho, b_n = iwasawa(mats)
    columns = {
        "t": times,
        **dict(zip(GROUP_COORD_NAMES, points.T)),
        "rho": b_rho,
        "n_re": b_n.real,
        "n_im": b_n.imag,
        "H": 0.5 * _squared_norm(points),
        "det_residual": det_residual,
    }
    summary = {"det_residual": float(det_residual.max()),
               "field_residual": _field_residual(p["epsilon"], mats, omega)}
    return ArtifactData("trajectory", columns, summary)


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


# The certificate reads the exact motion to t = 1 at 21 samples, t += 0.05.
# Its checks are pointwise, so the spacing sets only how many points of the
# motion they read, at any turn rate.
_CERT_TIMES = _sample_times(1.0, 0.05)
_CERT_TIMES.setflags(write=False)

# flow_field_residual's threshold, in units of u = 2^-53.  On the genuine
# bracket the gap is rounding: to first order each float the check forms is
# off by u times the terms it sums, which are the ones the residual divides
# by (|P| |grad H| and |omega| |g|) or, inside P's entries, which cancel in
# part, at most c = 4 times those along an orbit (3.95 at most over 2e5
# random orbit points, rho and |n| in [1e-5, 1e5]).  P x counts 9 roundings
# of P's terms (x_p x_q, at most 7 sums of 8 terms with power-of-two
# coefficients, and |eps|) and 8 of its own; omega g counts 3; the sample is
# off the orbit by 9 (cos, sin, the divisions and products that build e, f
# and u B), which moves the cubic field 3 times and the velocity once; omega
# is off by 6.  That is (9 + 27) c + 8 + 3 + 9 + 6 = 170 at c = 4, below
# 256; 14000 random genuine starts read at most 6.2 u.
_FIELD_TOL = 256 * 2.0**-53

# energy_pipeline's threshold, in units of u H = 2^-53 H at the start's trace
# energy H.  Along the exact motion the deviation is rounding.  Each
# sample's energy is within 25 u H of H: the unitary factor is unit to 8 u,
# each entry of u B rounds by 3 u of its terms, whose squares sum to at most
# 2 |B|^2 (8.5 u H), and the dot product adds 8 u H.  The expected cosh(z),
# z = acosh(H) <= L = log(2 H), is within (5.5 L + 9) u H of the first
# sample's energy: energy_relations carries 3.5 u into asinh, whose value
# z / 2 is then off by u z + 3.5 u, and the rest of the chain adds 3.5 u of
# z, so z is off by (5.5 z + 7) u, which cosh passes on relatively, adding
# 2 u of its own; a subnormal eps^2 adds 4 u (_least_epsilon).  So k = 2 *
# 25 + 13 + 5.5 L bounds the deviation in u H at every H the start's bounds
# allow (H < 1.6e205, L < 474), where every value it forms is finite; 34940
# random accepted starts, H up to 3.9e204, read at most 788 u H.
def _pipeline_tol(energy: float) -> float:
    """energy_pipeline's threshold at the start's trace energy ``energy``."""
    return (63.0 + 5.5 * math.log(2.0 * energy)) * 2.0**-53 * energy


# isomorphism_casimir's threshold, in units of u = 2^-53, on the gap of
# eps R = sinh(eps r) over |sinh(eps r)| (1 + |eps| r).  r is off by 2.5 u
# (three squares, two sums and a root), so eps r by 3.5 u, which sinh, of
# condition |eps| r coth(eps r) <= 1 + |eps| r, passes on, adding 1 u of its
# own.  R reads the image (z, f x, f y): each sinhc of f = sqrt(sinhc(eps
# s) sinhc(eps d)) has condition below |eps| r as well and is off by about
# 2.5 u plus that times its argument's 2.5 u, and the Casimir's squares,
# sums and root add 3 u.  To first order the gap is below (8.5 + 6 |eps|
# r) u of |sinh(eps r)|, so below 9 u of the scale; 199 seeds of 100 points
# at eps 0, +-0.2, +-0.3, 1, 3, +-5, 10, 40, 100 and 150 read at most 4.3 u.
_CASIMIR_TOL = 16 * 2.0**-53


def _epsilon_check(epsilon: float, field: str) -> None:
    """The momentum isomorphism's Casimir must not overflow a float anywhere
    in the sampling cube.  Below this bound classical_limit_deviation's sinh
    is finite too, so it is a sweep row's one bound."""
    exponent = abs(epsilon) * _CUBE * math.sqrt(3.0)  # |eps| r at the cube's corners
    if not exponent < LOG_SQRT_DBL_MAX:
        raise ConfigError(field, f"the momentum isomorphism overflows a float: |epsilon| r "
                          f"reaches {exponent:.6g} in the sampling cube, at or above "
                          f"log(DBL_MAX) / 2 = {LOG_SQRT_DBL_MAX:.6g}")


def _certificate_check(p: Params, field: str) -> None:
    """The certificate's two bounds on epsilon: :func:`_epsilon_check`, and the
    pipeline must read the start's energy (at ``epsilon = 0`` it reads it exactly)."""
    epsilon = p["epsilon"]
    _epsilon_check(epsilon, field)
    energy = _start_energy(p)[0]
    least = _least_epsilon(energy)
    if epsilon != 0.0 and not abs(epsilon) >= least:
        raise ConfigError(field, f"the energy pipeline reads the start's squared radius "
                          f"(H - 1) / (2 epsilon^2) at H = {energy:.6g}, which needs "
                          f"|epsilon| >= {least:.6g} (or epsilon = 0)")


def _certificate(p: Params, seed: int, n_points: int) -> list[CertCheck]:
    """The bracket's field and the energy pipeline along the exact motion
    from the configured start to t = 1, the dual-path dynamics and the
    momentum isomorphism."""
    epsilon = p["epsilon"]
    push, cas = isomorphism_deviation(epsilon, n_points, seed + 1)
    mats, omega = _exact_motion(p, _CERT_TIMES)
    dual = dual_path_deviation(epsilon, n_points, seed)
    pipeline = energy_pipeline_deviation(real8_from_matrix(mats), epsilon)
    return [
        CertCheck("flow_field_residual", _field_residual(epsilon, mats, omega), _FIELD_TOL),
        CertCheck("energy_pipeline", pipeline, _pipeline_tol(_start_energy(p)[0])),
        CertCheck("dual_path_dynamics", dual, 1e-6),
        CertCheck("isomorphism_pushforward", push, 1e-5),
        CertCheck("isomorphism_casimir", cas, _CASIMIR_TOL),
    ]


def _sweep_row(p: Params) -> dict:
    """The classical-limit gap, and the determinant and field residuals of
    the certificate's motion.  The row reads no energy pipeline, so it
    needs none of the pipeline's bounds on the start."""
    _epsilon_check(p["epsilon"], "params.epsilon")
    mats, omega = _exact_motion(p, _CERT_TIMES)
    return {
        "classical_limit_dev": classical_limit_deviation(p["epsilon"]),
        "det_residual": float(np.abs(_det(mats) - 1.0).max()),
        "field_residual": _field_residual(p["epsilon"], mats, omega),
    }


MODEL = Model(
    name="su2",
    params=PARAMS,
    check=_check,
    artifacts={"trajectory": _trajectory},
    # the group and linear brackets with the data the certificate proves
    # them from; the momentum bracket's Jacobi is sampled
    brackets={"group": Bracket(lambda p: sl2c_bivector(p["epsilon"]),
                               r=lambda p: ManinR(p["epsilon"], _SU2, _SB2)),
              "momentum": Bracket(lambda p: momentum_bivector(p["epsilon"])),
              "linear": Bracket(lambda p: linear_momentum_bivector(), r=lambda p: LiePoisson(_SO3))},
    certificate=_certificate,
    certificate_check=_certificate_check,
    sweep_row=_sweep_row,
)
