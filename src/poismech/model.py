"""The model record: everything the scenario runner knows about one model.

Each worked model module (``minkowski2d``, ``kappa``, ``su2``) exports one
:class:`Model`; the CLI reads all model knowledge through it and holds none
of its own.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from .bracket import BivectorSpec, jacobi_certificate
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


class Model(NamedTuple):
    """One model as data.

    ``params`` is the schema; ``artifacts`` maps each output name to its
    builder; ``brackets`` maps each shipped bracket's name to its builder;
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
    brackets: Mapping[str, Callable[[Params], BivectorSpec]]
    certificate: Callable[[Params, int, int], list[CertCheck]]
    certificate_check: Callable[[Params, str], None]
    sweep_row: Callable[[Params], dict[str, Any]]
    check: Callable[[Params], None]

    @property
    def outputs(self) -> tuple[str, ...]:
        """Every artifact a config may request; the certificate comes last."""
        return (*self.artifacts, "certificate")

    def certify(self, params: Params, seed: int, n_points: int) -> list[CertCheck]:
        """Every check of the certificate: ``jacobi_<name>`` of each declared
        bracket in declaration order, the k-th at ``seed + k``, then the
        model's own checks at the first seed past the brackets'."""
        checks = []
        for k, (name, build) in enumerate(self.brackets.items()):
            cert = jacobi_certificate(build(params), n_points=n_points, seed=seed + k)
            note = "vacuous below dim 3" if cert.vacuous else ""
            checks.append(CertCheck(f"jacobi_{name}", cert.max_residual, cert.threshold, note))
        return checks + self.certificate(params, seed + len(self.brackets), n_points)

