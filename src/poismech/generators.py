"""Generator vector fields with closed-form flows, and bivectors built from
them.

Three kinds are supported: constant translations, linear fields x -> L x, and
scalings of a coordinate subset.  Each knows its exact time-t flow, so
exponential maps of generator combinations never need numerical integration.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bracket import BivectorSpec
from .errors import ContractViolation

__all__ = [
    "GeneratorField",
    "translation",
    "linear",
    "scaling",
    "AbelianRSpec",
    "wedge_bivector",
    "cotangent_lift",
]


@dataclass(frozen=True)
class GeneratorField:
    """A vector field of translation / linear / scaling kind on an n-chart."""

    kind: str
    dim: int
    vector: np.ndarray | None = None   # translation direction
    matrix: np.ndarray | None = None   # linear generator
    subset: tuple[int, ...] | None = None  # scaled coordinate indices

    def value(self, x: np.ndarray) -> np.ndarray:
        """The field at one point (n,) or at each point of a stack (..., n)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "translation":
            return np.broadcast_to(self.vector, x.shape).copy()
        if self.kind == "linear":
            return (self.matrix @ x[..., None])[..., 0]
        out = np.zeros_like(x)
        out[..., self.subset] = x[..., self.subset]
        return out

    def flow(self, t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        """Exact time-t flow map applied to one point (n,) or to a stack of
        points (..., n); t is one time, or one time per point (x.shape[:-1])."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "translation":
            return x + t[..., None] * self.vector
        if self.kind == "linear":
            # scipy is imported only here: no shipped model has a linear generator
            from scipy.linalg import expm

            t = np.broadcast_to(t, x.shape[:-1])
            out = np.empty_like(x)
            for i in np.ndindex(t.shape):
                out[i] = expm(t[i] * self.matrix) @ x[i]
            return out
        out = x.copy()
        out[..., self.subset] = np.exp(t)[..., None] * x[..., self.subset]
        return out


def translation(v: Sequence[float]) -> GeneratorField:
    v = np.asarray(v, dtype=float)
    return GeneratorField(kind="translation", dim=v.size, vector=v)


def linear(L: np.ndarray) -> GeneratorField:
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise ContractViolation("linear generator needs a square matrix")
    return GeneratorField(kind="linear", dim=L.shape[0], matrix=L)


def scaling(subset: Sequence[int], dim: int) -> GeneratorField:
    subset = tuple(sorted(set(int(k) for k in subset)))
    if not subset:
        raise ContractViolation("scaling needs a nonempty coordinate subset")
    if subset[0] < 0 or subset[-1] >= dim:
        raise ContractViolation(f"scaling subset {subset} outside chart of dim {dim}")
    return GeneratorField(kind="scaling", dim=dim, subset=subset)


@dataclass(frozen=True)
class AbelianRSpec:
    """Deformation data: a strength epsilon and two commuting generators.

    As a map from moment covectors to generators,
        r(mu) = epsilon * (<mu, X2> X1 - <mu, X1> X2).
    """

    epsilon: float
    X1: GeneratorField
    X2: GeneratorField

    def __post_init__(self):
        if self.X1.dim != self.X2.dim:
            raise ContractViolation("generators must live on the same chart")

    @property
    def dim(self) -> int:
        return self.X1.dim


def wedge_bivector(
    epsilon: float,
    X1: GeneratorField,
    X2: GeneratorField,
    coord_names: tuple[str, ...],
) -> BivectorSpec:
    """The bivector epsilon * X1 ^ X2:
    pi^{ij}(x) = epsilon * (X1^i X2^j - X1^j X2^i)(x)."""
    dim = X1.dim
    if X2.dim != dim or len(coord_names) != dim:
        raise ContractViolation("wedge bivector dims disagree")

    def dense(x: np.ndarray) -> np.ndarray:
        v1 = X1.value(x)
        v2 = X2.value(x)
        return epsilon * (np.outer(v1, v2) - np.outer(v2, v1))

    return BivectorSpec(dim, coord_names, dense=dense)


def cotangent_lift(gen: GeneratorField, n: int) -> GeneratorField:
    """Lift a base generator to the 2n-chart (x, p).

    Translations lift to translations; a linear field L lifts to
    blockdiag(L, -L^T) so that the pairing <p, x> is preserved; scalings lift
    as their diagonal linear form.
    """
    if gen.dim != n:
        raise ContractViolation("generator dim does not match base dim")
    if gen.kind == "translation":
        return translation(np.concatenate([gen.vector, np.zeros(n)]))
    if gen.kind == "linear":
        L = gen.matrix
    else:
        L = np.zeros((n, n))
        for k in gen.subset:
            L[k, k] = 1.0
    big = np.zeros((2 * n, 2 * n))
    big[:n, :n] = L
    big[n:, n:] = -L.T
    return linear(big)
