"""The model record: everything the scenario runner knows about one model.

Each worked model module (``minkowski2d``, ``kappa``, ``su2``) exports one
:class:`Model`; the CLI reads all model knowledge through it and holds none
of its own.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .bracket import _CHUNK_BYTES, BivectorSpec
from .errors import ContractViolation

REAL = "real"
INT = "int"

CERT_POINTS = 100  # sample points per randomized certificate check

Params = Mapping[str, Any]


class Param(NamedTuple):
    """One scenario parameter: its kind (``REAL`` or ``INT``), its default
    (None means required) and its bounds: a ``positive`` value must exceed
    0, and a value must reach ``minimum`` and must not pass ``maximum``."""

    kind: str
    default: float | int | None = None
    positive: bool = False
    minimum: float | int | None = None
    maximum: float | int | None = None


@dataclass(frozen=True)
class CertCheck:
    name: str
    value: float
    threshold: float
    note: str = ""

    @property
    def passed(self) -> bool:
        """A check passes strictly below its threshold; NaN fails."""
        return self.value < self.threshold


@dataclass
class ArtifactData:
    """One artifact as columns: ``columns`` maps each column name, in order,
    to its values.  A float column is a 1-D ``float64`` array; a sequence
    whose every value is a float becomes one.  Any other column (str, int,
    bool, or ints or strings mixed with NaN) stays a plain list.  All columns
    have the same length."""

    name: str
    columns: Mapping[str, Any]
    summary: dict
    checks: list[CertCheck] | None = None

    def __post_init__(self):
        columns = {}
        for key, col in self.columns.items():
            if not isinstance(col, np.ndarray):
                col = list(col)
                if all(isinstance(v, float) for v in col):
                    col = np.array(col, dtype=np.float64)
            elif col.ndim != 1 or col.dtype != np.float64:
                raise ContractViolation(
                    f"{self.name}: column {key!r} is a {col.ndim}-D {col.dtype} array; "
                    "an array column must be 1-D float64"
                )
            columns[key] = col
        lengths = {key: len(col) for key, col in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ContractViolation(f"{self.name}: columns differ in length: {lengths}")
        self.columns = columns


class Bracket(NamedTuple):
    """One declared bracket: ``build`` takes params to its bivector, ``r`` to
    the data it is built from, which proves exactly, once, that the bracket
    pi_r it declares is Poisson (``jacobi_defect()``, 0 when it is), names
    that proof (``proof``), and builds pi_r a second way with the sizes of
    the terms each entry sums (``pi_r(x)`` at real points (m, n))."""

    build: Callable[[Params], BivectorSpec]
    r: Callable[[Params], Any]


# The threshold of a declared bracket's check, in units of u = 2^-53: the
# largest gap, entry by entry over the sampled points, between the code's P
# and pi_r, over the sizes of the terms the entry sums plus DBL_MIN.  To
# first order each float is off by u times the terms it sums, and by
# 2^-1075 = u DBL_MIN / 2 where it is subnormal.  A wedge of affine fields
# (kappa's and minkowski2d's, and their lifts) reads each field in at most
# two roundings (one nonzero entry per row of A, plus a), then two products,
# a difference and eps: 7 u of its terms, 8 u with Pi_can added, on each
# side.  su2's group P rounds x_p x_q, then sums at most 8 nonzero terms with
# power-of-two coefficients and scales by |eps|: 9 u; pi_r sums two exact
# products per entry of g X, then three products u_k^i v_k^j, the
# difference, the left and right halves and eps / 2: 9 u.  The rotation
# brackets are exact but {w_re, w_im}: both take sinh of one rounded
# v = 2 eps zeta (1 u); P divides by v and multiplies by zeta, pi_r divides
# by 2 eps: 4 u, more only if sinh's two calls round apart.  So the gap is
# at most 18 u of the terms and at most 20 subnormal roundings, below 32 u
# (T + DBL_MIN).  Genuine brackets read 0 but su2's group (2.4 u at most at
# eps 0.3 to 150, 1e-300 and 1e300 over 50 seeds of 100 points, 8 u at
# subnormal eps) and momentum (2.9 u at eps 0 to +-170 and 1e-150, 50 seeds).
_DECLARED_TOL = 32 * 2.0**-53


def _jacobi_check(name: str, biv: BivectorSpec, r: Any, n_points: int, seed: int) -> CertCheck:
    """The Jacobi check of a bracket declared with its data ``r``: (a) r's
    exact proof that pi_r is Poisson, then (b) the code's P against pi_r at
    ``n_points`` points uniform in (0, 1) at ``seed``, in chunks of
    ``_CHUNK_BYTES`` of P, against ``_DECLARED_TOL``.  A nonzero defect of
    (a) FAILs with value NaN whatever (b) reads; below dim 3 it is vacuous."""
    if biv.dim < 3:
        return CertCheck(name, 0.0, _DECLARED_TOL, "vacuous below dim 3")
    defect = r.jacobi_defect()
    if defect != 0.0:
        return CertCheck(name, math.nan, _DECLARED_TOL, f"proof failed: {r.proof} (off by {defect:.3g})")
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_BYTES // (8 * biv.dim**2))
    worst = 0.0
    for start in range(0, n_points, chunk):
        x = rng.uniform(0.0, 1.0, size=(min(chunk, n_points - start), biv.dim))
        pi, terms = r.pi_r(x)
        # np.max and np.maximum propagate NaN, so one non-finite gap fails the check
        worst = np.maximum(worst, np.max(np.abs(biv.matrix(x) - pi) / (terms + sys.float_info.min)))
    return CertCheck(name, float(worst), _DECLARED_TOL, f"proved: {r.proof}")


class Model(NamedTuple):
    """One model as data.

    ``params`` is the schema; ``artifacts`` maps each output name to its
    builder; ``brackets`` maps each shipped bracket's name to its
    :class:`Bracket`, its builder and the data it declares;
    ``certificate`` takes (params, seed, n_points) and returns the model's
    own checks, not the brackets' (``certify`` gives all), on params that
    have passed ``certificate_check``, which takes (params, field) and raises
    the certificate's precondition as a ``ConfigError`` naming ``field``;
    ``sweep_row`` gives one row of scalar observables for a sweep; ``check``
    runs on fully defaulted, per-field valid params and raises
    ``ConfigError`` for a bad combination.
    """

    name: str
    params: Mapping[str, Param]
    artifacts: Mapping[str, Callable[[Params], ArtifactData]]
    brackets: Mapping[str, Bracket]
    certificate: Callable[[Params, int, int], list[CertCheck]]
    certificate_check: Callable[[Params, str], None]
    sweep_row: Callable[[Params], dict[str, Any]]
    check: Callable[[Params], None]

    @property
    def outputs(self) -> tuple[str, ...]:
        """Every artifact a config may request; the certificate comes last."""
        return (*self.artifacts, "certificate")

    def certify(self, params: Params, seed: int, n_points: int) -> list[CertCheck]:
        """Every check: ``jacobi_<name>`` of each declared bracket in order,
        the k-th by ``_jacobi_check`` at ``seed + k``, then the model's own
        checks at the first seed past the brackets'."""
        checks = [_jacobi_check(f"jacobi_{name}", bracket.build(params), bracket.r(params), n_points, seed + k)
                  for k, (name, bracket) in enumerate(self.brackets.items())]
        return checks + self.certificate(params, seed + len(self.brackets), n_points)
