"""Coordinate Poisson-bracket engine.

A bivector field on an n-dimensional chart is read only through its full
antisymmetric matrix  P(x) = (pi^{ij}(x)).  Brackets of scalar fields are

    {f, g}(x) = grad f . P(x) . grad g
              = sum_{i<j} P_ij(x) * (d_i f d_j g - d_j f d_i g),

with the analytic gradient every scalar field carries.  The Jacobi identity
[pi, pi] = 0 is checked through the Jacobiator tensor

    J^{ijk} = sum_l pi^{il} d_l pi^{jk} + cyclic,

built from one P and one dP per chunk of points.  Every derivative a
certificate takes is the complex step d_l F(x) = Im F(x + i h e_l) / h
(Squire-Trapp, SIAM Review 1998), one call of F on the n shifted copies of
each point: it subtracts nothing, so it has no step to tune.  Bivectors, and
the maps passed to pushforward_bivector, take (..., n) stacks with
coordinates last, real or complex.

P is evaluated on a stack: BivectorSpec.matrix takes real or complex points
(..., n) and returns (..., n, n), and at one point (n,) it returns (n, n);
a dense form that returns any other shape is a ContractViolation.  A
component callable receives the coordinate-leading view
np.moveaxis(x, -1, 0), so x[a] is coordinate a of every point and a scalar
return broadcasts; at one point that view is x itself.  The global dynamical
sign convention is

    xdot = {H, x},

which every flow in the package inherits.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ContractViolation

__all__ = [
    "ScalarField",
    "BivectorSpec",
    "coordinate_field",
    "eval_bracket",
    "hamiltonian_vector_field",
    "jacobi_certificate",
    "JacobiCertificate",
    "pushforward_bivector",
]

_CS_STEP = 1e-30  # far below sqrt(u) |x|: its O(h^2) error is below rounding
_JACOBI_THRESHOLD = 1e-6  # largest Jacobiator entry a Poisson bivector may show

# A certificate takes its points in chunks whose complex-step dP, n**3
# complex128 entries per point, holds at most this many bytes; a chunk has at
# least one point, so at dim 64 it is one point of 4 MiB.
_CHUNK_BYTES = 2**22


def _complex_step(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """d_l fn(x) = Im fn(x + i h e_l) / h, l = 0..n-1, at the points x (..., n),
    shape (..., n, *out): one call of fn, analytic in x, on the stack
    (..., n, n) of every point's n shifted copies."""
    return np.imag(fn(x[..., None, :] + 1j * _CS_STEP * np.eye(x.shape[-1]))) / _CS_STEP


@dataclass(frozen=True)
class ScalarField:
    """A real scalar function on the chart and its analytic gradient.  The
    brackets and the flow read only the gradient."""

    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(np.asarray(x, dtype=float)), dtype=float)


def coordinate_field(index: int, dim: int) -> ScalarField:
    """The coordinate function x^index, with its exact gradient."""
    if not 0 <= index < dim:
        raise ContractViolation(f"coordinate index {index} outside chart of dim {dim}")
    e = np.zeros(dim)
    e[index] = 1.0
    return ScalarField(fn=lambda x: float(x[index]), grad=lambda x: e)


@dataclass(frozen=True)
class BivectorSpec:
    """Bivector field pi on an n-dim chart, declared in exactly one form.

    ``components`` maps (i, j) with i < j to a callable x -> pi^{ij}(x);
    missing pairs are identically zero.  ``dense`` instead returns the full
    antisymmetric matrix in one call.  Every reader goes through
    :meth:`matrix`, which takes one point (n,) or a stack (..., n), real or
    complex.  ``dense`` receives that array and must return (..., n, n); any
    other shape is a ContractViolation.  A component callable receives the
    coordinate-leading view ``np.moveaxis(x, -1, 0)``, so ``x[a]`` reads
    coordinate a of every point and a scalar return broadcasts; at one point
    it receives x itself.
    """

    dim: int
    coord_names: tuple[str, ...]
    components: Mapping[tuple[int, int], Callable[[np.ndarray], float]] = field(default_factory=dict)
    dense: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ContractViolation("bivector needs dim >= 1")
        if len(self.coord_names) != self.dim:
            raise ContractViolation("coord_names length must equal dim")
        if len(set(self.coord_names)) != self.dim:
            raise ContractViolation("coord_names must be distinct")
        if self.components and self.dense is not None:
            raise ContractViolation("declare either components or dense, not both")
        for (i, j) in self.components:
            if not (0 <= i < j < self.dim):
                raise ContractViolation(f"component key {(i, j)} must satisfy 0 <= i < j < dim")

    def matrix(self, x: np.ndarray) -> np.ndarray:
        """Full antisymmetric matrices P(x), P[..., i, j] = {x^i, x^j}(x), of
        the points x (..., n); complex at complex x."""
        x = np.asarray(x)
        if self.dense is not None:
            P = np.asarray(self.dense(x))
            if P.shape != x.shape[:-1] + (self.dim, self.dim):
                raise ContractViolation(f"dense returned shape {P.shape} for points of shape "
                                        f"{x.shape}; it must be (..., {self.dim}, {self.dim})")
            return P
        P = np.zeros(x.shape[:-1] + (self.dim, self.dim), dtype=np.result_type(x, float))
        coords = x if x.ndim == 1 else np.moveaxis(x, -1, 0)
        for (i, j), fn in self.components.items():
            v = fn(coords)
            P[..., i, j] = v
            P[..., j, i] = -v
        return P


def add_bivectors(a: BivectorSpec, b: BivectorSpec) -> BivectorSpec:
    """Pointwise sum of two bivectors on the same chart."""
    if a.dim != b.dim:
        raise ContractViolation("bivector sum needs equal dims")
    return BivectorSpec(a.dim, a.coord_names, dense=lambda x: a.matrix(x) + b.matrix(x))


def eval_bracket(biv: BivectorSpec, f: ScalarField, g: ScalarField, x: np.ndarray) -> float:
    """{f, g}(x) = sum_{i<j} P_ij(x) (d_i f d_j g - d_j f d_i g).

    Swapping f and g negates every term exactly, so antisymmetry holds at
    machine level along the identical code path.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (biv.dim,):
        raise ContractViolation(f"point shape {x.shape} does not match chart dim {biv.dim}")
    w = np.outer(f.gradient(x), g.gradient(x))
    i, j = np.triu_indices(biv.dim, 1)
    return float(np.sum(biv.matrix(x)[i, j] * (w[i, j] - w[j, i])))


def hamiltonian_vector_field(biv: BivectorSpec, H: ScalarField, x: np.ndarray) -> np.ndarray:
    """xdot with xdot^i = {H, x^i}(x) at the points x (..., n); H's gradient
    must take the same stack.

    Computed as the contraction -Pi(x) grad H(x); componentwise this equals
    eval_bracket(biv, H, x^i, x) up to floating-point reassociation.
    """
    x = np.asarray(x, dtype=float)
    return -(biv.matrix(x) @ H.gradient(x)[..., None])[..., 0]


def _jacobi_terms(biv: BivectorSpec, x: np.ndarray) -> np.ndarray:
    """T[..., a, b, c] = sum_l pi^{al}(x) d_l pi^{bc}(x) at the points x
    (..., n), from one P and one complex-step dP, whose matrix call takes the
    n shifted copies of every point at once.  One contraction over l, so a
    non-finite P makes T non-finite."""
    return np.einsum("...al,...lbc->...abc", biv.matrix(x), _complex_step(biv.matrix, x))


def _cyclic(T: np.ndarray, i, j, k):
    """Jacobiator J^{ijk} = T[i,j,k] + T[j,k,i] + T[k,i,j] over the last three
    axes; indices may be arrays."""
    return T[..., i, j, k] + T[..., j, k, i] + T[..., k, i, j]


# eight dims cover every chart a default certificate reads (3, 4 and 8) and
# bound what large charts leave behind: kappa's shifted chart at spatial_dim
# 127 has 2.8e6 triples, 66 MB of indices
@functools.lru_cache(maxsize=8)
def _triples(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every triple i < j < k of a chart of ``dim`` coordinates, as three
    read-only index arrays rather than a list of tuples, built once per dim."""
    t = np.arange(dim)
    triples = np.nonzero((t[:, None, None] < t[:, None]) & (t[:, None] < t))
    for a in triples:
        a.setflags(write=False)
    return triples


@dataclass(frozen=True)
class JacobiCertificate:
    """Result of a randomized Jacobi check of one bivector."""

    dim: int
    n_points: int
    n_triples: int
    max_residual: float
    threshold: float
    vacuous: bool

    @property
    def passed(self) -> bool:
        return self.vacuous or self.max_residual < self.threshold


def jacobi_certificate(
    biv: BivectorSpec,
    n_points: int = 100,
    seed: int = 0,
    box: tuple[float, float] = (0.0, 1.0),
) -> JacobiCertificate:
    """Check the Jacobi identity to ``_JACOBI_THRESHOLD`` at seeded uniform
    random points of a box, over every coordinate triple, from one P and one
    dP per chunk of points (see ``_CHUNK_BYTES``).  A non-finite residual at
    any point makes ``max_residual`` non-finite and the certificate fail.

    Charts of dimension < 3 have no triple and certify vacuously.
    """
    if biv.dim < 3:
        return JacobiCertificate(biv.dim, 0, 0, 0.0, _JACOBI_THRESHOLD, vacuous=True)
    i, j, k = _triples(biv.dim)
    rng = np.random.default_rng(seed)
    lo, hi = box
    chunk = max(1, _CHUNK_BYTES // (16 * biv.dim**3))
    peaks = []
    for start in range(0, n_points, chunk):
        # one draw per chunk continues the same stream as one draw per point
        x = rng.uniform(lo, hi, size=(min(chunk, n_points - start), biv.dim))
        peaks.append(np.max(np.abs(_cyclic(_jacobi_terms(biv, x), i, j, k))))
    # np.max propagates NaN, so one non-finite residual fails the certificate
    worst = float(np.max(peaks, initial=0.0))
    return JacobiCertificate(biv.dim, n_points, i.size, worst, _JACOBI_THRESHOLD, vacuous=False)


def pushforward_bivector(
    biv: BivectorSpec,
    phi: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Pushforward (dphi) Pi (dphi)^T at the points x (..., n), with a
    complex-step Jacobian of the analytic map phi of (..., n) stacks; the
    last two axes have the size of phi's output."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (biv.dim,):
        raise ContractViolation(f"point shape {x.shape} does not match chart dim {biv.dim}")
    dphi = _complex_step(phi, x)  # (..., n, m), the transposed Jacobian
    return np.swapaxes(dphi, -1, -2) @ biv.matrix(x) @ dphi
