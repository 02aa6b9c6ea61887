"""Structure classification of verified instances.

Local branches (pointwise structure once the modified Schouten tensor
equals lam g with a constant scale):

* ``Trivial``        constant density; the equation reduces to the metric one
* ``Einstein``       the unweighted metric is Einstein and the density varies
* ``QuasiEinstein``  the scale kappa vanishes identically
* ``Indeterminate``  the residuals do not certify any of the above

The branches overlap (a space form with a kappa = 0 density is both
Einstein and quasi Einstein); the classifier reports the first match in the
order above, which prefers the stronger statement about the metric.

Global branches (meaningful only for complete instances):

* ``ExpQuasiEinstein``  lam < 0, exponential warping, kappa = 0 and the fiber
                        data satisfies the fiber quasi Einstein equation
* ``ExpEinstein``       lam < 0, exponential warping, Ricci-flat fiber and an
                        Einstein metric
* ``SpaceForm``         sectional curvature constant equal to 2 lam
* ``Unclassified``      complete but matching no certified global model
* ``NotApplicable``     incomplete instance, or local verification failed

Exponential-warping detection runs before the space-form test: the
exponentially warped models are space forms in disguise, and the more
specific branch wins.  The warping is exponential when phi'/phi is constant
over the report's base coordinates (``warping_rate_spread``); without that
test a circle fiber (n = 2), which is always flat, would make every
negatively curved Einstein instance ExpEinstein.  A compact instance whose
verdict is not a positively curved space form raises ContradictionError:
closed weighted Einstein spaces are round spheres, so the caller's flags
contradict the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContradictionError
from .geometry import WarpedMetric
from .weighted import (
    Instance,
    WeightedReport,
    einstein_residuals,
    sample_points,
)

LOCAL_BRANCHES = ("Trivial", "Einstein", "QuasiEinstein", "Indeterminate")
GLOBAL_BRANCHES = ("ExpQuasiEinstein", "ExpEinstein", "SpaceForm",
                   "Unclassified", "NotApplicable")


@dataclass(frozen=True)
class Thresholds:
    """Gates used by the classifier (sup norms over the sample grid)."""

    residual: float = 1e-8       # tensor residual gates
    kappa: float = 1e-9          # scale constancy and vanishing gate
    constancy: float = 1e-9      # density spread gate, relative to its level
    sectional: float = 1e-8      # space-form gate on sectional curvature


# gate on warping_rate_spread for the exponential branches
EXPONENTIAL_SPREAD = 1e-8


@dataclass(frozen=True)
class Classification:
    local: str
    global_branch: str
    lam: float
    details: dict = field(default_factory=dict)


def warping_rate_spread(metric: WarpedMetric, points: list) -> float:
    """Spread of phi'/phi over the points' base coordinates, relative to
    its largest size; zero exactly for an exponential warping a e^{w t}.

    NaN when phi'/phi is not finite somewhere, so it never passes a gate.
    """
    phi = metric.phi.jet(np.array([p.t for p in points], dtype=float))
    with np.errstate(all="ignore"):
        rate = phi.d1 / phi.value
        spread = float(rate.max() - rate.min())  # NaN-propagating
        level = float(np.abs(rate).max())
    return spread / level if level > 0.0 else spread


def classify_report(instance: Instance, lam: float, report: WeightedReport,
                    thresholds: Thresholds | None = None) -> Classification:
    """Classify from an existing residual report (with diagnostics)."""
    thr = thresholds or Thresholds()
    details = {
        "residual_P": report.residual_P,
        "residual_QE": report.residual_QE,
        "residual_Einstein": report.residual_Einstein,
        "kappa_mean": report.kappa_mean,
        "kappa_spread": report.kappa_spread,
        "v_spread": report.v_spread,
        "sectional_residual": report.sec_residual,
        "fiber_ricci_flat_residual": report.fiber_flat_residual,
        "fiber_quasi_einstein_residual": report.fiber_be_residual,
        "warping_rate_spread": warping_rate_spread(instance.metric, report.points),
    }

    # precondition: modified Schouten tensor equals lam g with constant scale
    gates = {
        "modified_schouten_residual": (report.residual_P, thr.residual),
        "scale_spread": (report.kappa_spread, thr.kappa),
    }
    # not (val <= gate): a NaN is a violation, and the dominant one
    violated = {name: val / gate if val == val else math.inf
                for name, (val, gate) in gates.items() if not (val <= gate)}
    if violated:
        details["dominant_violation"] = max(violated, key=violated.get)
        local = "Indeterminate"
    else:
        v_level = max(1.0, max(abs(x) for x in report.v))
        if report.v_spread <= thr.constancy * v_level:
            local = "Trivial"
        elif report.residual_Einstein <= thr.residual:
            local = "Einstein"
        elif abs(report.kappa_mean) <= thr.kappa:
            local = "QuasiEinstein"
        else:
            local = "Indeterminate"
            details["dominant_violation"] = "structure_trichotomy"

    complete = instance.complete or instance.compact
    if not complete or local == "Indeterminate":
        global_branch = "NotApplicable"
    else:
        kappa_zero = (abs(report.kappa_mean) <= thr.kappa
                      and report.kappa_spread <= thr.kappa)
        fiber_be = report.fiber_be_residual
        fiber_flat = report.fiber_flat_residual
        sec = report.sec_residual
        exponential = details["warping_rate_spread"] <= EXPONENTIAL_SPREAD
        if (lam < 0.0 and exponential and kappa_zero and fiber_be is not None
                and fiber_be <= thr.residual):
            global_branch = "ExpQuasiEinstein"
        elif (lam < 0.0 and exponential and fiber_flat is not None
                and fiber_flat <= thr.residual
                and report.residual_Einstein <= thr.residual):
            global_branch = "ExpEinstein"
        elif sec is not None and sec <= thr.sectional:
            global_branch = "SpaceForm"
        else:
            global_branch = "Unclassified"

    if instance.compact and local != "Indeterminate":
        if not (global_branch == "SpaceForm" and lam > 0.0):
            raise ContradictionError(
                "a closed weighted Einstein instance must be a round sphere "
                f"with lam > 0; verdict was {global_branch} at lam = {lam!r}")

    return Classification(local, global_branch, lam, details)


def classify(instance: Instance, lam: float, k: int = 400,
             margin: float = 0.05,
             thresholds: Thresholds | None = None) -> Classification:
    """Sample the instance and classify its local and global structure."""
    pts = sample_points(instance.metric, instance.density, k, margin=margin)
    report = einstein_residuals(instance.metric, instance.density,
                                instance.params, lam, pts,
                                with_diagnostics=True)
    return classify_report(instance, lam, report, thresholds=thresholds)
