"""Poisson-bracket mechanics on deformed configuration spaces.

Bracket engines for bivector-defined Poisson structures, Hamiltonian flow
integration with conservation monitoring, groupoid-style projections of
cotangent states, and three worked models: a 2D light-cone deformation of
Minkowski space-time, a kappa-type time/dilation deformation, and free motion
on the special-unitary group with a deformed momentum space.
"""

__version__ = "0.1.0"

from .bracket import (
    BivectorSpec,
    JacobiCertificate,
    ScalarField,
    add_bivectors,
    coordinate_field,
    eval_bracket,
    hamiltonian_vector_field,
    jacobi_certificate,
    pushforward_bivector,
)
from .errors import (
    ConfigError,
    ContractViolation,
    DivergenceError,
    EstimationError,
    NumericDomainError,
    StiffnessError,
)
from .flow import StepControl, Trajectory, integrate_flow
from .generators import (
    AbelianRSpec,
    GeneratorField,
    cotangent_lift,
    scaling,
    translation,
    wedge_bivector,
)
from .groupoid import (
    canonical_bivector,
    cotangent_wedge,
    groupoid_projection,
    project_trajectory,
)

__all__ = [
    "__version__",
    "BivectorSpec",
    "JacobiCertificate",
    "ScalarField",
    "add_bivectors",
    "coordinate_field",
    "eval_bracket",
    "hamiltonian_vector_field",
    "jacobi_certificate",
    "pushforward_bivector",
    "ConfigError",
    "ContractViolation",
    "DivergenceError",
    "EstimationError",
    "NumericDomainError",
    "StiffnessError",
    "StepControl",
    "Trajectory",
    "integrate_flow",
    "AbelianRSpec",
    "GeneratorField",
    "cotangent_lift",
    "scaling",
    "translation",
    "wedge_bivector",
    "canonical_bivector",
    "cotangent_wedge",
    "groupoid_projection",
    "project_trajectory",
]
