"""finslercheck: numerical verification of spherically symmetric Finsler metrics.

Constructs metrics F(x,y) = phi(|x|, |y|, <x,y>) (builtin classics, parsed
formulas, or the projective integral family) and verifies spherical
symmetry, strong convexity, projectivity and constant flag curvature by
forward-mode jet differentiation and residual evaluation.
"""

from .jets import Jet, JetDomainError, lift_var
from .expr import parse, evaluate, serialize
from .metrics import (
    GeneralMetric,
    MetricSample,
    SphericalMetric,
    builtin,
    builtin_names,
    invariants_of,
)
from .sampling import SampleSpec, sample_domain

__version__ = "0.1.0"

__all__ = [
    "Jet",
    "JetDomainError",
    "lift_var",
    "parse",
    "evaluate",
    "serialize",
    "SphericalMetric",
    "GeneralMetric",
    "MetricSample",
    "builtin",
    "builtin_names",
    "invariants_of",
    "SampleSpec",
    "sample_domain",
    "__version__",
]
