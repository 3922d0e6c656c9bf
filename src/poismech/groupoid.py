"""Groupoid-style projections of cotangent-bundle states, for deformations
built from two commuting generators.

The canonical moment of a generator X at (x, p) is J = <p, X(x)>.  With
r(mu) = epsilon (<mu,X2> X1 - <mu,X1> X2), the two projections act on the
base point by exponentiating -+ (1/2) r J:

    left(x, p)  = flow_{X1}(-(eps/2) J2) o flow_{X2}(+(eps/2) J1) (x)
    right(x, p) = flow_{X1}(+(eps/2) J2) o flow_{X2}(-(eps/2) J1) (x)

so left with epsilon equals right with -epsilon along the identical code
path.  Because the generators commute, the composition order is immaterial.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .bracket import BivectorSpec, add_bivectors
from .errors import ContractViolation
from .flow import Trajectory
from .generators import (AbelianRSpec, GeneratorField, affine_commutator, affine_wedge, cotangent_lift,
                         wedge_bivector)

__all__ = [
    "groupoid_projection",
    "project_trajectory",
    "canonical_bivector",
    "cotangent_wedge",
    "shifted_bivector",
]


def groupoid_projection(r: AbelianRSpec, x: np.ndarray, p: np.ndarray, side: str) -> np.ndarray:
    """Left or right projected base points of one state (x, p) or of a stack
    of them, real or complex: x and p share one shape (..., n), n the
    generators' dim, and every moment and both flows are taken over the whole
    stack at once."""
    x = np.asarray(x)
    p = np.asarray(p)
    if x.shape != p.shape or x.shape[-1:] != (r.dim,):
        raise ContractViolation("projection needs x, p of one shape with last axis the generators' dim")
    if side not in ("left", "right"):
        raise ContractViolation(f"side must be 'left' or 'right', got {side!r}")
    J1 = np.einsum("...j,...j->...", p, r.X1.value(x))
    J2 = np.einsum("...j,...j->...", p, r.X2.value(x))
    sgn = -1.0 if side == "left" else +1.0
    t1 = sgn * 0.5 * r.epsilon * J2
    t2 = -sgn * 0.5 * r.epsilon * J1
    return r.X1.flow(t1, r.X2.flow(t2, x))


def project_trajectory(r: AbelianRSpec, traj: Trajectory, side: str) -> Trajectory:
    """Projection of a phase-space trajectory (points = (x, p) rows) to a
    base-space curve, preserving the sampling times."""
    n = r.dim
    if traj.dim != 2 * n:
        raise ContractViolation(
            f"trajectory dim {traj.dim} is not twice the base dim {n}"
        )
    x, p = traj.points[:, :n], traj.points[:, n:]
    return Trajectory(traj.times.copy(), groupoid_projection(r, x, p, side))


@functools.lru_cache(maxsize=8)
def _phase_names(n: int) -> tuple[str, ...]:
    """Coordinate names (x0, ..., p0, ...) of the 2n-chart, cached per n."""
    return tuple(f"x{i}" for i in range(n)) + tuple(f"p{i}" for i in range(n))


# bounded like bracket._triples: kappa's chart runs to n = 128, a 512 KiB P
@functools.lru_cache(maxsize=8)
def canonical_bivector(n: int) -> BivectorSpec:
    """The cotangent-bundle structure on the 2n-chart (x, p):
    {x^i, p_j} = delta^i_j, all other coordinate brackets zero.  P is one
    constant read-only matrix, returned itself at one point and as a
    read-only broadcast over a stack.  Cached per n and shared."""
    i = np.arange(n)
    P = np.zeros((2 * n, 2 * n))
    P[i, n + i] = 1.0
    P[n + i, i] = -1.0
    P.setflags(write=False)

    def dense(x: np.ndarray) -> np.ndarray:
        # the flow's one-point calls skip broadcast_to, which costs them time
        return P if x.ndim == 1 else np.broadcast_to(P, x.shape[:-1] + P.shape)

    return BivectorSpec(2 * n, _phase_names(n), dense=dense)


def cotangent_wedge(epsilon: float, gen_a: GeneratorField, gen_b: GeneratorField) -> BivectorSpec:
    """epsilon * (lift of gen_a) ^ (lift of gen_b) on the 2n-chart — the
    r-part of a shifted cotangent structure."""
    n = gen_a.dim
    return wedge_bivector(epsilon, cotangent_lift(gen_a, n), cotangent_lift(gen_b, n), _phase_names(n))


def shifted_bivector(r: AbelianRSpec) -> BivectorSpec:
    """The shifted cotangent structure Pi_can + epsilon (lift of X1) ^ (lift
    of X2) of ``r`` on the 2n-chart, the canonical part shared per n."""
    return add_bivectors(canonical_bivector(r.dim), cotangent_wedge(r.epsilon, r.X1, r.X2))


@functools.lru_cache(maxsize=16)
def _cotangent_affine(gen: GeneratorField) -> tuple[np.ndarray, np.ndarray]:
    """The cotangent lift of the affine field x -> A x + a as an affine field
    of (x, p): (x, p) -> (A x + a, -A^T p), read-only and built once per
    generator; made from ``gen.affine`` alone, not from ``cotangent_lift``."""
    A, a = gen.affine
    n = gen.dim
    L = np.zeros((2 * n, 2 * n))
    L[:n, :n], L[n:, n:] = A, -A.T
    c = np.concatenate([a, np.zeros(n)])
    L.setflags(write=False)
    c.setflags(write=False)
    return L, c


@functools.lru_cache(maxsize=8)
def _symplectic(n: int) -> np.ndarray:
    """Pi_can of the 2n-chart as one read-only matrix, built from its
    definition, apart from canonical_bivector."""
    i = np.arange(n)
    Pi = np.zeros((2 * n, 2 * n))
    Pi[i, n + i], Pi[n + i, i] = 1.0, -1.0
    Pi.setflags(write=False)
    return Pi


@functools.lru_cache(maxsize=8)
def _shifted_defect(X1: GeneratorField, X2: GeneratorField) -> float:
    Pi = _symplectic(X1.dim)
    lifts = _cotangent_affine(X1), _cotangent_affine(X2)
    # a constant Pi is invariant under the affine field L y + c when
    # L Pi + Pi L^T = 0; the entries are integers, so the sums are exact
    return max(affine_commutator(*lifts), *(float(np.max(np.abs(L @ Pi + Pi @ L.T))) for L, _ in lifts))


class ShiftedRSpec(NamedTuple):
    """The declared data of ``shifted_bivector(r)``: Pi_can + eps X1~ ^ X2~
    on the 2n-chart, with X~ the cotangent lift of the generator X."""

    r: AbelianRSpec

    proof = "the lifts commute and preserve Pi_can"

    def jacobi_defect(self) -> float:
        """The Jacobiator of Pi_can + eps W, W = X1~ ^ X2~, is 2 eps [Pi_can,
        W] + eps^2 [W, W]; both vanish when the lifts commute and each lift
        preserves Pi_can.  The largest entry of [X1~, X2~] and of each lift's
        L Pi_can + Pi_can L^T, exact for entries 0 and +-1, computed once
        per pair of generators."""
        return _shifted_defect(self.r.X1, self.r.X2)

    def pi_r(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pi_can + eps X1~ ^ X2~ at the real points y (m, 2n), from the
        lifts' affine forms, and its term sizes, each entry of Pi_can
        counting as one term."""
        P, T = affine_wedge(self.r.epsilon, _cotangent_affine(self.r.X1), _cotangent_affine(self.r.X2), y)
        Pi = _symplectic(self.r.dim)
        return P + Pi, T + np.abs(Pi)
