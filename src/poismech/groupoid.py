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

import numpy as np

from .bracket import BivectorSpec, add_bivectors
from .errors import ContractViolation
from .flow import Trajectory
from .generators import AbelianRSpec, GeneratorField, cotangent_lift, wedge_bivector

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


def _phase_names(n: int) -> tuple[str, ...]:
    """Coordinate names (x0, ..., p0, ...) of the 2n-chart."""
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
