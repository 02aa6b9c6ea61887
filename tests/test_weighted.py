"""Weighted curvature tensors, scale extraction and diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

import smmskit.catalog as cat
from smmskit.errors import UnsupportedError
from smmskit.geometry import PointSpec, SpaceForm, WarpedMetric
from smmskit.profiles import Interval, Profile1D
from smmskit.weighted import (
    RadialDensity,
    SmmsParams,
    bakry_emery,
    einstein_residuals,
    point_fields,
    sample_points,
    solve_mu,
    tau_consistency_residual,
    weyl_norm,
)


def sphere_example():
    # lam = 1/2, n = 3, m = 2, v = 2 + cos t on the round unit three-sphere
    return cat.make("weighted_sphere", n=3, m=2.0, lam=0.5, a=2.0, b=1.0)


def report_for(bundle, k=64, **kw):
    inst = bundle.instance
    pts = sample_points(inst.metric, inst.density, k)
    return einstein_residuals(inst.metric, inst.density, inst.params,
                              bundle.lam, pts, **kw)


def test_sphere_example_frozen_values():
    b = sphere_example()
    rep = report_for(b)
    # the weighted Schouten tensor is exactly lam g while the plain
    # quasi-Einstein deviation stays an order-one obstruction (kappa != 0)
    assert rep.residual_P < 1e-8
    assert rep.residual_Einstein < 1e-8
    assert rep.residual_QE > 0.1
    assert rep.kappa_mean == pytest.approx(2.0, abs=1e-12)
    assert rep.kappa_spread < 1e-12
    inst = b.instance
    P = point_fields(inst.metric, inst.density, inst.params, PointSpec(1.0)).p
    assert P.tt == pytest.approx(0.5, abs=1e-12)
    assert all(c == pytest.approx(0.5, abs=1e-12) for c in P.blocks)


def test_bakry_emery_density_and_exponent_routes_agree():
    b = sphere_example()
    inst = b.instance
    for t in (0.4, 1.1, 2.3):
        a = point_fields(inst.metric, inst.density, inst.params, PointSpec(t)).be
        c = bakry_emery(inst.metric, inst.density, inst.params, PointSpec(t))
        assert a.tt == pytest.approx(c.tt, abs=1e-11)
        for x, y in zip(a.blocks, c.blocks):
            assert x == pytest.approx(y, abs=1e-11)
        assert a.mixed == pytest.approx(c.mixed, abs=1e-11)


def test_exponential_family_radial_identity():
    # rho_f(dt, dt) = 2 (m + n - 1) lam - m kappa / v on the horospherical form
    b = cat.make("exponential_warped", n=3, m=2.0, lam=-0.5, a=1.0, b=1.0,
                 kappa=-1.0)
    inst = b.instance
    n, m = inst.params.n, inst.params.m
    for t in (-1.5, 0.0, 1.2):
        be = point_fields(inst.metric, inst.density, inst.params, PointSpec(t)).be
        v = inst.density.v.value(t)
        expected = 2.0 * (n + m - 1.0) * b.lam - m * b.kappa / v
        assert be.tt == pytest.approx(expected, rel=1e-12)


def test_unweighted_flat_space_has_zero_tensors():
    iv = Interval(0.0, math.inf)
    metric = WarpedMetric(iv, Profile1D.from_string("t", iv), SpaceForm(2, 1.0))
    density = RadialDensity(Profile1D.constant(1.0, iv, var="t"))
    params = SmmsParams(3, 2.0, 0.0)
    pt = PointSpec(2.0)
    fields = point_fields(metric, density, params, pt)
    be = fields.be
    assert be.tt == 0.0 and all(c == 0.0 for c in be.blocks)
    assert fields.tau_f == 0.0
    j, P = fields.j, fields.p
    assert j == 0.0
    assert P.tt == 0.0 and all(c == 0.0 for c in P.blocks)


def test_constant_density_shifted_characteristic_constant():
    # non-canonical mu shifts the effective scale of the weighted Schouten
    n, m, lam, a, mu = 4, 3.0, 0.5, 1.5, 0.4
    b = cat.make("constant_density", n=n, m=m, lam=lam, a=a, mu=mu)
    D = (n + m - 1.0) * (n + m - 2.0)
    mu_term = mu / (a * a)
    lam_eff = ((n - 1.0) * (n + 2.0 * m - 2.0) * lam / D
               - m * (m - 1.0) * mu_term / (2.0 * D))
    inst = b.instance
    for pt in sample_points(inst.metric, inst.density, 8):
        P = point_fields(inst.metric, inst.density, inst.params, pt).p
        assert P.sup_dev(lam_eff) < 1e-12
    # at m = 1 the density measure is inert: the scale stays lam for any mu
    b1 = cat.make("constant_density", n=n, m=1.0, lam=lam, a=a, mu=mu)
    inst1 = b1.instance
    for pt in sample_points(inst1.metric, inst1.density, 8):
        P1 = point_fields(inst1.metric, inst1.density, inst1.params, pt).p
        assert P1.sup_dev(lam) < 1e-12


def test_weyl_vanishes_on_weighted_space_forms():
    for name in ("weighted_sphere", "weighted_euclidean", "weighted_hyperbolic",
                 "exponential_warped"):
        b = cat.make(name)
        inst = b.instance
        for pt in sample_points(inst.metric, inst.density, 6):
            assert weyl_norm(inst.metric, inst.density, inst.params, pt) < 1e-8, name


def test_weyl_detects_nonconstant_curvature():
    b = cat.make("cone_product")
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 8)
    vals = [weyl_norm(inst.metric, inst.density, inst.params, p) for p in pts]
    assert max(vals) > 1e-3


def test_weyl_needs_determined_sectional_data():
    # an abstract Einstein fiber of dimension >= 4 leaves sectional curvature
    # undetermined; in dimension <= 3 Einstein implies constant curvature
    b = cat.make("warping_density", n=5)
    with pytest.raises(UnsupportedError):
        weyl_norm(b.instance.metric, b.instance.density, b.instance.params,
                  PointSpec(1.0))
    b4 = cat.make("warping_density", n=4)
    assert weyl_norm(b4.instance.metric, b4.instance.density,
                     b4.instance.params, PointSpec(1.0)) > 1e-3


def test_solve_mu_recovers_declared_value():
    for name in ("weighted_sphere", "exponential_warped", "warping_density",
                 "cone_product"):
        b = cat.make(name)
        inst = b.instance
        pts = sample_points(inst.metric, inst.density, 32)
        mean, spread = solve_mu(inst.metric, inst.density, inst.params, b.lam, pts)
        assert mean == pytest.approx(inst.params.mu, abs=1e-9), name
        assert spread < 1e-9, name


def test_solve_mu_rejects_inert_weight():
    b = cat.make("weighted_sphere", m=1.0)
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 8)
    with pytest.raises(UnsupportedError):
        solve_mu(inst.metric, inst.density, inst.params, b.lam, pts)


def test_inert_weight_ignores_mu_bitwise():
    b = cat.make("weighted_sphere", m=1.0)
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 24)
    reports = []
    for mu in (0.0, 0.3, -1.7):
        params = dataclasses.replace(inst.params, mu=mu)
        reports.append(einstein_residuals(inst.metric, inst.density, params,
                                          b.lam, pts))
    base = reports[0]
    for other in reports[1:]:
        for fieldname in ("be_tt", "be_blocks", "rho_dev", "qe_dev", "p_dev",
                          "tau_f", "j_f", "kappa", "v", "sec_dev"):
            assert getattr(base, fieldname) == getattr(other, fieldname), fieldname


def test_tau_consistency_flags_wrong_mu():
    b = cat.make("weighted_sphere")
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 24)
    good = einstein_residuals(inst.metric, inst.density, inst.params, b.lam, pts)
    assert tau_consistency_residual(good) < 1e-9
    bad_params = dataclasses.replace(inst.params, mu=inst.params.mu + 0.5)
    bad = einstein_residuals(inst.metric, inst.density, bad_params, b.lam, pts)
    assert tau_consistency_residual(bad) > 1e-3


def test_report_scale_matches_kappa():
    b = cat.make("weighted_hyperbolic")
    inst = b.instance
    rep = einstein_residuals(inst.metric, inst.density, inst.params, b.lam,
                             sample_points(inst.metric, inst.density, 8))
    for k in rep.kappa:
        assert k == pytest.approx(b.kappa, abs=1e-11)


def test_sample_points_activates_split_axis():
    rad = cat.make("weighted_sphere").instance
    assert all(p.s is None for p in sample_points(rad.metric, rad.density, 9))
    split = cat.make("skew_sphere_density").instance
    assert all(p.s is not None for p in sample_points(split.metric, split.density, 9))



def test_report_aggregates_propagate_nan():
    # the builtin max drops a NaN unless it comes first; every aggregate of a
    # report must instead come out NaN whatever the NaN's position
    b = cat.make("neck_warped")
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 16)
    rng = np.random.default_rng(5)
    aggregates = {
        "p_dev": lambda r: r.residual_P,
        "qe_dev": lambda r: r.residual_QE,
        "rho_dev": lambda r: r.residual_Einstein,
        "kappa": lambda r: r.kappa_spread,
        "v": lambda r: r.v_spread,
        "tau_f": tau_consistency_residual,
        "sec_dev": lambda r: r.sec_residual,
        "fiber_flat_dev": lambda r: r.fiber_flat_residual,
        "fiber_be_dev": lambda r: r.fiber_be_residual,
    }
    for fieldname, aggregate in aggregates.items():
        for _ in range(3):
            rep = einstein_residuals(inst.metric, inst.density, inst.params,
                                     b.lam, pts)
            assert not math.isnan(aggregate(rep)), fieldname
            getattr(rep, fieldname)[int(rng.integers(1, len(pts)))] = math.nan
            assert math.isnan(aggregate(rep)), fieldname
