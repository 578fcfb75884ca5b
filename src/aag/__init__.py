"""Almost-arithmetic numerical semigroups with one extra generator.

Structural computations (Euclid-style tables, Apery staircases, binomial
bases, pseudo-Frobenius sets, symmetry classification) live in the
submodules; ``oracle`` is an independent brute-force cross-check.
"""

from .core import AagParams, Monomial, phi, validate_params
from .errors import (
    AagError,
    AmbiguousFastPath,
    DuplicatePfValue,
    FamilyConstraintViolated,
    GcdViolation,
    HypothesisViolated,
    InternalDispatchGap,
    MalformedPf,
    NoPivot,
    NonPositiveGenerator,
    NonsenseInput,
    NotCoprime,
    NotMinimal,
)

__all__ = [
    "AagParams",
    "Monomial",
    "phi",
    "validate_params",
    "AagError",
    "AmbiguousFastPath",
    "DuplicatePfValue",
    "FamilyConstraintViolated",
    "GcdViolation",
    "HypothesisViolated",
    "InternalDispatchGap",
    "MalformedPf",
    "NoPivot",
    "NonPositiveGenerator",
    "NonsenseInput",
    "NotCoprime",
    "NotMinimal",
]

__version__ = "0.1.0"
