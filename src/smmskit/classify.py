"""Certificates and structure classification of weighted Einstein instances.

``certify`` is the one route from a grid to a verdict: one kernel pass at
the declared lam, or at the lam it estimates from that pass, the gate rows
of ``Thresholds``, the solved constant mu, the classification below, and
one row per declared expectation.  Each representative of a conformal class
(an instance and its image) gets its own certificate.

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
contradict the data; the exception carries the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContradictionError
from .geometry import PointSpec, WarpedMetric
from .weighted import (Instance, WeightedReport, einstein_residuals,
                       tau_consistency_residual)

LOCAL_BRANCHES = ("Trivial", "Einstein", "QuasiEinstein", "Indeterminate")
GLOBAL_BRANCHES = ("ExpQuasiEinstein", "ExpEinstein", "SpaceForm",
                   "Unclassified", "NotApplicable")


@dataclass(frozen=True)
class Thresholds:
    """Every gate of a certificate (sup norms over the sample grid)."""

    residual: float = 1e-8       # tensor residual gates
    kappa: float = 1e-9          # scale constancy and vanishing gate
    value: float = 1e-6          # expected-vs-measured scalar comparisons
    mu: float = 1e-6             # solved characteristic constant
    conformal: float = 1e-7      # transformation-law residuals
    sectional: float = 1e-8      # space-form gate on sectional curvature
    constancy: float = 1e-9      # density spread gate, relative to its level


# gate on warping_rate_spread for the exponential branches
EXPONENTIAL_SPREAD = 1e-8


@dataclass(frozen=True)
class Classification:
    local: str
    global_branch: str
    lam: float
    details: dict = field(default_factory=dict)


def warping_rate_spread(metric: WarpedMetric, ts: np.ndarray) -> float:
    """Spread of phi'/phi over the base coordinates ts, relative to its
    largest size; zero exactly for an exponential warping a e^{w t}.

    NaN when phi'/phi is not finite somewhere, so it never passes a gate.
    """
    phi = metric.phi.jet(ts)
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
        "warping_rate_spread": warping_rate_spread(instance.metric,
                                                   report.points.t),
    }
    kappa_mean, kappa_spread = details["kappa_mean"], details["kappa_spread"]
    residual_einstein = details["residual_Einstein"]

    # precondition: modified Schouten tensor equals lam g with constant scale
    gates = {
        "modified_schouten_residual": (details["residual_P"], thr.residual),
        "scale_spread": (kappa_spread, thr.kappa),
    }
    # not (val <= gate): a NaN is a violation, and the dominant one, as is
    # any violation of a zero gate
    violated = {name: val / gate if val == val and gate > 0.0 else math.inf
                for name, (val, gate) in gates.items() if not (val <= gate)}
    if violated:
        details["dominant_violation"] = max(violated, key=violated.get)
        local = "Indeterminate"
    else:
        v_level = max(1.0, float(np.abs(report.v).max()))
        if details["v_spread"] <= thr.constancy * v_level:
            local = "Trivial"
        elif residual_einstein <= thr.residual:
            local = "Einstein"
        elif abs(kappa_mean) <= thr.kappa:
            local = "QuasiEinstein"
        else:
            local = "Indeterminate"
            details["dominant_violation"] = "structure_trichotomy"

    complete = instance.complete or instance.compact
    if not complete or local == "Indeterminate":
        global_branch = "NotApplicable"
    else:
        kappa_zero = abs(kappa_mean) <= thr.kappa and kappa_spread <= thr.kappa
        fiber_be = details["fiber_quasi_einstein_residual"]
        fiber_flat = details["fiber_ricci_flat_residual"]
        sec = details["sectional_residual"]
        exponential = details["warping_rate_spread"] <= EXPONENTIAL_SPREAD
        if (lam < 0.0 and exponential and kappa_zero and fiber_be is not None
                and fiber_be <= thr.residual):
            global_branch = "ExpQuasiEinstein"
        elif (lam < 0.0 and exponential and fiber_flat is not None
                and fiber_flat <= thr.residual
                and residual_einstein <= thr.residual):
            global_branch = "ExpEinstein"
        elif sec is not None and sec <= thr.sectional:
            global_branch = "SpaceForm"
        else:
            global_branch = "Unclassified"

    verdict = Classification(local, global_branch, lam, details)
    if instance.compact and local != "Indeterminate":
        if not (global_branch == "SpaceForm" and lam > 0.0):
            raise ContradictionError(
                "a closed weighted Einstein instance must be a round sphere "
                f"with lam > 0; verdict was {global_branch} at lam = {lam!r}",
                verdict)
    return verdict


class Checks:
    """Gate rows in the order they were added."""

    def __init__(self):
        self.rows = []

    def add(self, name: str, value, gate, passed: bool, note: str = ""):
        self.rows.append({"name": name, "value": value, "gate": gate,
                          "passed": bool(passed), "note": note})

    def bound(self, name: str, value: float, gate: float, note: str = ""):
        self.add(name, value, gate, value <= gate, note)

    def close(self, name: str, value: float, expected: float, gate: float):
        self.add(name, abs(value - expected), gate,
                 abs(value - expected) <= gate,
                 f"measured {value!r}, expected {expected!r}")

    def equal(self, name: str, value, expected):
        self.add(name, value, expected, value == expected,
                 f"got {value!r}, expected {expected!r}")

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.rows)


@dataclass
class Certificate:
    """One representative certified on one grid: the kernel pass with
    diagnostics (its lam the declared or the estimated one), solve_mu's
    (mean, spread) from it (None at m = 1), the gate rows and the
    classification.  Flags that contradict the data give the global branch
    "ContradictionError", with the message as details["contradiction"].
    """

    report: WeightedReport
    tau_residual: float
    mu: tuple | None
    checks: Checks
    verdict: Classification


def certify(instance: Instance, points: PointSpec, tol: Thresholds,
            expect: dict) -> Certificate:
    """Certify instance as weighted Einstein on points: one kernel pass at
    expect["lambda"] (estimated from the pass when it is absent), its five
    gates, the solved constant, the classification, and one row per
    expectation among "kappa", "mu", "branch_local" and "branch_global"
    (mu_expected only where mu is solved); other keys are not read."""
    lam = expect.get("lambda")
    rep = einstein_residuals(instance.metric, instance.density, instance.params,
                             None if lam is None else float(lam), points)
    lam = rep.lam
    tau_res = tau_consistency_residual(rep)
    checks = Checks()
    checks.bound("modified_schouten_residual", rep.residual_P, tol.residual)
    checks.bound("scale_spread", rep.kappa_spread, tol.kappa)
    checks.bound("tau_consistency_residual", tau_res, tol.residual,
                 note="weighted scalar curvature disagrees with the trace "
                      "identity; a wrong characteristic constant mu shows up here")
    mu = rep.mu
    if mu is not None:
        checks.bound("mu_spread", mu[1], tol.mu)
        checks.close("mu_consistency", mu[0], instance.params.mu, tol.mu)
    try:
        verdict = classify_report(instance, lam, rep, thresholds=tol)
    except ContradictionError as exc:
        verdict = Classification(exc.verdict.local, "ContradictionError", lam,
                                 {**exc.verdict.details, "contradiction": str(exc)})
    if "kappa" in expect:
        checks.close("kappa_expected", rep.kappa_mean, float(expect["kappa"]),
                     tol.value)
    if "mu" in expect and mu is not None:
        checks.close("mu_expected", mu[0], float(expect["mu"]), tol.mu)
    if "branch_local" in expect:
        checks.equal("branch_local", verdict.local, expect["branch_local"])
    if "branch_global" in expect:
        checks.equal("branch_global", verdict.global_branch,
                     expect["branch_global"])
    return Certificate(rep, tau_res, mu, checks, verdict)
