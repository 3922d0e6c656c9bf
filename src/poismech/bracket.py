"""Coordinate Poisson-bracket engine.

A bivector field on an n-dimensional chart is read only through its full
antisymmetric matrix  P(x) = (pi^{ij}(x)).  Brackets of scalar fields are

    {f, g}(x) = grad f . P(x) . grad g
              = sum_{i<j} P_ij(x) * (d_i f d_j g - d_j f d_i g),

with the analytic gradient every scalar field carries.  The Jacobi identity
[pi, pi] = 0 is checked through the Jacobiator tensor

    J^{ijk} = sum_l pi^{il} d_l pi^{jk} + cyclic,

built from one P and one dP per point.  Every derivative a certificate takes
is the complex step d_l F(x) = Im F(x + i h e_l) / h (Squire-Trapp, SIAM
Review 1998): it subtracts nothing, so it has no step to tune, and bivectors
accept complex points for it.  The global dynamical sign convention is

    xdot = {H, x},

which every flow in the package inherits.
"""
from __future__ import annotations

import itertools
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


def _complex_step(fn: Callable[[np.ndarray], object], x: np.ndarray) -> np.ndarray:
    """Stacked d_l fn(x) for l = 0..n-1, each Im fn(x + i h e_l) / h; fn may
    return a scalar or an array, and must be analytic in x."""
    points = x + 1j * _CS_STEP * np.eye(x.size)
    return np.array([np.imag(fn(z)) for z in points]) / _CS_STEP


@dataclass(frozen=True)
class ScalarField:
    """A real scalar function on the chart and its analytic gradient."""

    fn: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x: np.ndarray) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

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
    antisymmetric n x n matrix in one call.  Every reader goes through
    :meth:`matrix`.
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
        """Full antisymmetric matrix P(x), P[i, j] = {x^i, x^j}(x); complex at complex x."""
        x = np.asarray(x)
        if self.dense is not None:
            return np.asarray(self.dense(x))
        P = np.zeros((self.dim, self.dim), dtype=np.result_type(x, float))
        for (i, j), fn in self.components.items():
            v = fn(x)
            P[i, j] = v
            P[j, i] = -v
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
    """xdot with xdot^i = {H, x^i}(x).

    Computed as the contraction -Pi(x) grad H(x); componentwise this equals
    eval_bracket(biv, H, x^i, x) up to floating-point reassociation.
    """
    x = np.asarray(x, dtype=float)
    P = biv.matrix(x)
    return -P @ H.gradient(x)


def _jacobi_terms(biv: BivectorSpec, x: np.ndarray) -> np.ndarray:
    """T[a, b, c] = sum_l pi^{al}(x) d_l pi^{bc}(x) from a complex-step dP, as
    one contraction over l, so a non-finite P makes T non-finite."""
    P = biv.matrix(x)
    dP = _complex_step(biv.matrix, x)
    return np.einsum("al,lbc->abc", P, dP)


def _cyclic(T: np.ndarray, i, j, k):
    """Jacobiator J^{ijk} = T[i,j,k] + T[j,k,i] + T[k,i,j]; indices may be arrays."""
    return T[i, j, k] + T[j, k, i] + T[k, i, j]


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
    threshold: float = 1e-6,
    box: tuple[float, float] = (0.0, 1.0),
) -> JacobiCertificate:
    """Check the Jacobi identity at seeded uniform random points of a box,
    over every coordinate triple, from one P and one dP per point.  A
    non-finite residual at any point makes ``max_residual`` non-finite and
    the certificate fail.

    Charts of dimension < 3 have no triple and certify vacuously.
    """
    triples = list(itertools.combinations(range(biv.dim), 3))
    if not triples:
        return JacobiCertificate(biv.dim, 0, 0, 0.0, threshold, vacuous=True)
    rng = np.random.default_rng(seed)
    lo, hi = box
    i, j, k = np.array(triples).T
    peaks = []
    for _ in range(n_points):
        x = rng.uniform(lo, hi, size=biv.dim)
        peaks.append(np.max(np.abs(_cyclic(_jacobi_terms(biv, x), i, j, k))))
    # np.max propagates NaN, so one non-finite residual fails the certificate
    worst = float(np.max(peaks, initial=0.0))
    return JacobiCertificate(biv.dim, n_points, len(triples), worst, threshold, vacuous=False)


def pushforward_bivector(
    biv: BivectorSpec,
    phi: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Pointwise pushforward (dphi) Pi (dphi)^T at x, with a complex-step
    Jacobian of the analytic map phi; its row count is the size of phi's output."""
    x = np.asarray(x, dtype=float)
    if x.shape != (biv.dim,):
        raise ContractViolation(f"point shape {x.shape} does not match chart dim {biv.dim}")
    J = _complex_step(phi, x).T
    return J @ biv.matrix(x) @ J.T
