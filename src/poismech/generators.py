"""Generator vector fields with closed-form flows, and bivectors built from
them.

Two kinds are supported: constant translations and per-coordinate scalings
x^k -> exp(w_k t) x^k.  Each knows its exact time-t flow, so exponential maps
of generator combinations never need numerical integration.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bracket import BivectorSpec
from .errors import ContractViolation

__all__ = [
    "GeneratorField",
    "translation",
    "scaling",
    "AbelianRSpec",
    "wedge_bivector",
    "cotangent_lift",
]


@dataclass(frozen=True)
class GeneratorField:
    """A translation along ``vector`` or a scaling with one rate per
    coordinate, ``rates`` (zero leaves a coordinate fixed), on an n-chart.
    Points and times may be complex."""

    kind: str
    dim: int
    vector: np.ndarray | None = None   # translation direction
    rates: np.ndarray | None = None    # scaling rate of each coordinate

    def __post_init__(self):
        # generators are shared (module constants, per-dim caches and their
        # cached lifts), so each holds a read-only copy of its array
        for name in ("vector", "rates"):
            a = getattr(self, name)
            if a is not None:
                a = np.array(a, dtype=float)
                a.setflags(write=False)
                object.__setattr__(self, name, a)

    @functools.cached_property
    def _moves(self) -> np.ndarray:
        """Mask of the coordinates with a nonzero rate.  The others keep
        their value exactly: a zero rate times x would turn inf into NaN."""
        moves = self.rates != 0
        moves.setflags(write=False)
        return moves

    @functools.cached_property
    def _lift(self) -> GeneratorField:
        """The cotangent lift (see ``cotangent_lift``), built once per generator."""
        n = self.dim
        if self.kind == "translation":
            return translation(np.concatenate([self.vector, np.zeros(n)]))
        return GeneratorField(kind="scaling", dim=2 * n, rates=np.concatenate([self.rates, -self.rates]))

    def value(self, x: np.ndarray) -> np.ndarray:
        """The field at one point (n,) or at each point of a stack (..., n)."""
        x = np.asarray(x)
        if self.kind == "translation":
            return np.broadcast_to(self.vector, x.shape).copy()
        out = np.zeros(x.shape, np.result_type(x, float))
        return np.multiply(self.rates, x, out=out, where=self._moves)

    def flow(self, t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        """Exact time-t flow map applied to one point (n,) or to a stack of
        points (..., n); t is one time, or one time per point (x.shape[:-1])."""
        x = np.asarray(x)
        t = np.asarray(t)
        if self.kind == "translation":
            return x + t[..., None] * self.vector
        out = np.array(x, np.result_type(x, t, float))
        return np.multiply(np.exp(t[..., None] * self.rates), x, out=out, where=self._moves)


def translation(v: Sequence[float]) -> GeneratorField:
    v = np.asarray(v, dtype=float)
    return GeneratorField(kind="translation", dim=v.size, vector=v)


def scaling(subset: Sequence[int], dim: int) -> GeneratorField:
    """The dilation of the coordinates in ``subset`` at unit rate."""
    subset = sorted(set(int(k) for k in subset))
    if not subset:
        raise ContractViolation("scaling needs a nonempty coordinate subset")
    if subset[0] < 0 or subset[-1] >= dim:
        raise ContractViolation(f"scaling subset {tuple(subset)} outside chart of dim {dim}")
    rates = np.zeros(dim)
    rates[subset] = 1.0
    return GeneratorField(kind="scaling", dim=dim, rates=rates)


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
    pi^{ij}(x) = epsilon * (X1^i X2^j - X1^j X2^i)(x), at one point or a stack."""
    dim = X1.dim
    if X2.dim != dim or len(coord_names) != dim:
        raise ContractViolation("wedge bivector dims disagree")

    def dense(x: np.ndarray) -> np.ndarray:
        v1 = X1.value(x)
        v2 = X2.value(x)
        # epsilon * (v1 v2^T - v2 v1^T) at each point, built in place so a
        # stack holds two of its (..., n, n) arrays at once, not four
        out = v1[..., :, None] * v2[..., None, :]
        out -= v2[..., :, None] * v1[..., None, :]
        out *= epsilon
        return out

    return BivectorSpec(dim, coord_names, dense=dense)


def cotangent_lift(gen: GeneratorField, n: int) -> GeneratorField:
    """Lift a base generator to the 2n-chart (x, p).

    Translations lift to translations; a scaling with rates w lifts to the
    scaling with rates (w, -w), which preserves the pairing <p, x>.  Each
    generator builds its lift once and returns that same lift after.
    """
    if gen.dim != n:
        raise ContractViolation("generator dim does not match base dim")
    return gen._lift
