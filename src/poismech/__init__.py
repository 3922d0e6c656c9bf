"""Poisson-bracket mechanics on deformed configuration spaces.

Bracket engines for bivector-defined Poisson structures, Hamiltonian flow
integration with conservation monitoring, groupoid-style projections of
cotangent states, and three worked models: a 2D light-cone deformation of
Minkowski space-time, a kappa-type time/dilation deformation, and free motion
on the special-unitary group with a deformed momentum space.
"""
import importlib

__version__ = "0.1.0"

# each public name under the module that defines it; a name and its module
# load on first use (PEP 562), so ``import poismech`` loads neither numpy nor
# any submodule
_EXPORTS = {
    "bracket": ("BivectorSpec", "JacobiCertificate", "ScalarField", "add_bivectors", "coordinate_field",
                "eval_bracket", "hamiltonian_vector_field", "jacobi_certificate", "pushforward_bivector"),
    "errors": ("ConfigError", "ContractViolation", "DivergenceError", "EstimationError",
               "NumericDomainError", "StiffnessError"),
    "flow": ("StepControl", "Trajectory", "integrate_flow"),
    "generators": ("AbelianRSpec", "GeneratorField", "cotangent_lift", "scaling", "translation",
                   "wedge_bivector"),
    "groupoid": ("canonical_bivector", "cotangent_wedge", "groupoid_projection", "project_trajectory"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOME})
