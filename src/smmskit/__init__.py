"""Verification and exploration toolkit for weighted warped-product metrics.

An instance is a warped-product metric g = dt^2 + phi(t)^2 g_N together
with a positive density v = e^{-f/m} and a characteristic constant mu.
The package evaluates the modified curvature tensors from exact jets,
verifies the weighted Einstein condition pointwise, classifies the local
and global structure, transforms instances by paired conformal factors
and ships a catalog of closed-form families with frozen expected
constants.
"""

from .errors import (
    AdmissibilityError,
    ContradictionError,
    DomainError,
    EvalError,
    FormError,
    NestingError,
    PositivityError,
    SmmsError,
    StepError,
    UnsupportedError,
)
from .profiles import Interval, Profile1D
from .geometry import (
    EinsteinFiber,
    FiberObataData,
    NestedFiber,
    PointSpec,
    SpaceForm,
    WarpedMetric,
)
from .weighted import (
    Instance,
    RadialDensity,
    SmmsParams,
    SplitDensity,
    WeightedReport,
    einstein_residuals,
    sample_points,
    solve_mu,
    tau_consistency_residual,
    weyl_norm,
)
from .conformal import ConformalMap, TransformResult, apply_conformal
from .classify import Certificate, Classification, Thresholds, certify
from . import catalog

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError", "ContradictionError", "DomainError", "EvalError",
    "FormError", "NestingError", "PositivityError", "SmmsError", "StepError",
    "UnsupportedError",
    "Interval", "Profile1D",
    "EinsteinFiber", "FiberObataData", "NestedFiber", "PointSpec",
    "SpaceForm", "WarpedMetric",
    "Instance", "RadialDensity", "SmmsParams", "SplitDensity",
    "WeightedReport", "einstein_residuals", "sample_points", "solve_mu",
    "tau_consistency_residual", "weyl_norm",
    "ConformalMap", "TransformResult", "apply_conformal",
    "Certificate", "Classification", "Thresholds", "certify",
    "catalog",
    "__version__",
]
