"""Local and global branch decisions of the classifier."""

import dataclasses
import math

import numpy as np
import pytest

import smmskit.catalog as cat
from conftest import poison_ricci_at
from smmskit.classify import EXPONENTIAL_SPREAD, Thresholds, certify, classify_report
from smmskit.weighted import einstein_residuals, sample_points, solve_mu

# (family, overrides, expected local branch, expected global branch)
BRANCH_MATRIX = [
    ("weighted_sphere", {}, "Einstein", "SpaceForm"),
    ("weighted_sphere", {"b": 0.0}, "Trivial", "SpaceForm"),
    ("weighted_euclidean", {}, "Einstein", "SpaceForm"),
    ("weighted_euclidean", {"b": 0.0}, "Trivial", "SpaceForm"),
    ("weighted_hyperbolic", {}, "Einstein", "SpaceForm"),
    ("weighted_hyperbolic", {"a": 0.0}, "Einstein", "SpaceForm"),
    ("weighted_hyperbolic", {"a": 1.0, "b": 0.0}, "Trivial", "SpaceForm"),
    ("warping_density", {"lam": 0.5}, "QuasiEinstein", "NotApplicable"),
    ("warping_density", {"lam": 0.0}, "QuasiEinstein", "NotApplicable"),
    ("warping_density", {"lam": -0.5}, "QuasiEinstein", "NotApplicable"),
    ("exponential_warped", {}, "Einstein", "ExpEinstein"),
    ("exponential_warped", {"kappa": 0.0}, "Einstein", "ExpQuasiEinstein"),
    ("exponential_warped", {"kappa": 0.4}, "Einstein", "NotApplicable"),
    ("exponential_warped", {"b": 0.0, "kappa": -0.6}, "Trivial", "ExpEinstein"),
    ("neck_warped", {}, "QuasiEinstein", "ExpQuasiEinstein"),
    ("neck_warped", {"m": 2.5}, "QuasiEinstein", "ExpQuasiEinstein"),
    ("cone_product", {}, "QuasiEinstein", "NotApplicable"),
    ("skew_sphere_density", {}, "Einstein", "SpaceForm"),
    ("constant_density", {}, "Trivial", "SpaceForm"),
    ("constant_density", {"lam": -0.5}, "Trivial", "SpaceForm"),
]


@pytest.mark.parametrize("name,overrides,local,global_branch", BRANCH_MATRIX)
def test_branch_matrix(name, overrides, local, global_branch):
    b = cat.make(name, **overrides)
    assert b.branch_local == local
    assert b.branch_global == global_branch
    pts = sample_points(b.instance.metric, b.instance.density, 64)
    c = certify(b.instance, pts, Thresholds(), {"lambda": b.lam}).verdict
    assert c.local == local
    assert c.global_branch == global_branch
    assert c.lam == b.lam


def test_compact_flag_with_nonpositive_scale_contradicts():
    b = cat.make("weighted_hyperbolic")
    forged = dataclasses.replace(b.instance, compact=True)
    pts = sample_points(forged.metric, forged.density, 48)
    c = certify(forged, pts, Thresholds(), {"lambda": b.lam}).verdict
    assert c.global_branch == "ContradictionError"
    b0 = cat.make("weighted_euclidean")
    forged0 = dataclasses.replace(b0.instance, compact=True)
    pts0 = sample_points(forged0.metric, forged0.density, 48)
    c0 = certify(forged0, pts0, Thresholds(), {"lambda": 0.0}).verdict
    assert c0.global_branch == "ContradictionError"


def test_noncanonical_constant_density_contradiction_and_unclassified():
    b = cat.make("constant_density", mu=0.4)
    assert b.branch_global == "ContradictionError"
    pts = sample_points(b.instance.metric, b.instance.density, 48)
    c = certify(b.instance, pts, Thresholds(), {"lambda": b.lam}).verdict
    assert c.global_branch == "ContradictionError"
    b2 = cat.make("constant_density", lam=0.0, mu=0.8)
    pts2 = sample_points(b2.instance.metric, b2.instance.density, 48)
    c = certify(b2.instance, pts2, Thresholds(), {"lambda": b2.lam}).verdict
    assert c.local == "Trivial"
    assert c.global_branch == "Unclassified"


def test_violated_preconditions_are_indeterminate():
    b = cat.make("weighted_sphere")
    bad_params = dataclasses.replace(b.instance.params, mu=b.instance.params.mu + 1.0)
    forged = dataclasses.replace(b.instance, params=bad_params)
    pts = sample_points(forged.metric, forged.density, 48)
    c = certify(forged, pts, Thresholds(), {"lambda": b.lam}).verdict
    assert c.local == "Indeterminate"
    assert c.global_branch == "NotApplicable"
    assert "dominant_violation" in c.details


def test_wrong_scale_is_indeterminate():
    b = cat.make("weighted_sphere")
    pts = sample_points(b.instance.metric, b.instance.density, 48)
    c = certify(b.instance, pts, Thresholds(), {"lambda": b.lam + 0.2}).verdict
    assert c.local == "Indeterminate"


def test_threshold_override_changes_verdict():
    b = cat.make("weighted_sphere")
    strict = Thresholds(residual=1e-30, kappa=1e-30, constancy=1e-30,
                        sectional=1e-30)
    pts = sample_points(b.instance.metric, b.instance.density, 48)
    c = certify(b.instance, pts, strict, {"lambda": b.lam}).verdict
    assert c.local == "Indeterminate"


@pytest.mark.parametrize("name, global_branch, exponential", [
    ("weighted_hyperbolic", "SpaceForm", False),   # sinh warping, circle fiber
    ("exponential_warped", "ExpEinstein", True),
])
def test_circle_fiber_needs_exponential_warping(name, global_branch, exponential):
    # at n = 2 the fiber is a circle, flat whatever the warping, so only the
    # constancy of phi'/phi tells the exponential branches from a space form
    b = cat.make(name, n=2)
    pts = sample_points(b.instance.metric, b.instance.density, 200)
    c = certify(b.instance, pts, Thresholds(), {"lambda": b.lam}).verdict
    assert (c.local, c.global_branch) == ("Einstein", global_branch)
    assert c.global_branch == b.branch_global
    spread = c.details["warping_rate_spread"]
    assert (spread <= EXPONENTIAL_SPREAD) == exponential
    if not exponential:
        assert c.details["sectional_residual"] < 1e-8
        assert c.details["fiber_ricci_flat_residual"] == 0.0


def test_classify_report_reuses_precomputed_data():
    b = cat.make("weighted_sphere")
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 64)
    rep = einstein_residuals(inst.metric, inst.density, inst.params, b.lam, pts)
    c = classify_report(inst, b.lam, rep)
    assert (c.local, c.global_branch) == (b.branch_local, b.branch_global)
    assert c.details["residual_P"] == rep.residual_P


@pytest.mark.parametrize("name", ["weighted_sphere", "exponential_warped",
                                  "warping_density", "skew_sphere_density"])
def test_nan_at_random_grid_position_fails_closed(monkeypatch, name):
    # one NaN Ricci component at one random grid point makes the Schouten
    # residual NaN, and a NaN never passes the classifier's gates
    rng = np.random.default_rng(sum(map(ord, name)))
    b = cat.make(name)
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 36)
    for _ in range(4):
        pt = pts.at(int(rng.integers(len(pts))))
        component = int(rng.integers(1 + len(inst.metric.layout(pts))))
        with monkeypatch.context() as mp:
            poison_ricci_at(mp, pt.t, component)
            rep = einstein_residuals(inst.metric, inst.density, inst.params,
                                     b.lam, pts)
            mu_spread = solve_mu(inst.metric, inst.density, inst.params,
                                 b.lam, pts)[1]
        assert math.isnan(rep.residual_P), (name, pt)
        assert math.isnan(rep.kappa_spread), (name, pt)
        assert math.isnan(mu_spread), (name, pt)
        c = classify_report(inst, b.lam, rep)
        assert (c.local, c.global_branch) == ("Indeterminate", "NotApplicable")
        assert c.details["dominant_violation"] == "modified_schouten_residual"
