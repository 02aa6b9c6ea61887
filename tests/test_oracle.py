"""Finite-difference coordinate oracle versus the exact-jet route."""

import math

import numpy as np
import pytest

from conftest import random_warped_metric
from smmskit.errors import UnsupportedError
from smmskit.jets import BiJet2
from smmskit.geometry import (
    EinsteinFiber,
    PointSpec,
    SpaceForm,
    WarpedMetric,
    field_components,
    hessian_radial,
    ricci,
    sectional_blocks,
)
from smmskit.oracle import (
    CoordinateChart,
    density_chart_function,
    hessian_fd,
    ricci_fd,
    sectional_fd,
    weyl_norm_fd,
)
from smmskit.profiles import Interval, Profile1D
from smmskit.weighted import SplitDensity, point_fields, weyl_norm
import smmskit.catalog as cat


def ortho_ricci_prediction(metric, point):
    r = ricci(metric, point)
    chart = CoordinateChart(metric)
    coeffs = [r.tt] + [r.blocks[0]] * (chart.n - 1)
    return chart, np.diag(coeffs)


def test_unit_sphere_oracle_convention():
    iv = Interval(0.0, math.pi)
    m = WarpedMetric(iv, Profile1D.from_string("sin(t)", iv), SpaceForm(2, 1.0))
    chart = CoordinateChart(m)
    x = chart.embed(PointSpec(1.1, 0.9))
    ric = ricci_fd(chart, x)
    assert np.max(np.abs(ric - 2.0 * np.eye(3))) < 1e-7
    sec = sectional_fd(chart, x)
    off = sec[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off - 1.0)) < 1e-7


def test_oracle_matches_exact_route_frozen_profile():
    iv = Interval(0.0, math.pi)
    phi = Profile1D.from_string("2 + sin(t)/3", iv)
    m = WarpedMetric(iv, phi, SpaceForm(2, 1.0))
    chart, pred = ortho_ricci_prediction(m, PointSpec(1.0, 0.8))
    x = chart.embed(PointSpec(1.0, 0.8))
    rel = np.max(np.abs(ricci_fd(chart, x) - pred)) / max(1.0, np.max(np.abs(pred)))
    assert rel < 1e-5


def test_oracle_random_profiles_both_dimensions():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        for _ in range(4):
            m = random_warped_metric(rng, n)
            pt = PointSpec(float(rng.uniform(-1.2, 1.2)), 0.8)
            chart, pred = ortho_ricci_prediction(m, pt)
            x = chart.embed(pt)
            rel = (np.max(np.abs(ricci_fd(chart, x) - pred))
                   / max(1.0, np.max(np.abs(pred))))
            assert rel < 1e-5, (n, m.phi.to_string())


def test_oracle_hessian_matches_exact_route():
    iv = Interval(0.0, math.pi)
    m = WarpedMetric(iv, Profile1D.from_string("sin(t)", iv), SpaceForm(2, 1.0))
    w = Profile1D.from_string("cos(t) + 0.2*t", iv)
    pt = PointSpec(1.2, 0.7)
    chart = CoordinateChart(m)
    x = chart.embed(pt)
    hess, lap, grad_sq, _ = hessian_fd(chart, lambda y: math.cos(y[0]) + 0.2 * y[0], x)
    h = hessian_radial(m, w, pt)
    pred = np.diag([h.tt] + [h.blocks[0]] * 2)
    assert np.max(np.abs(hess - pred)) < 1e-6
    assert lap == pytest.approx(h.trace(), abs=1e-6)
    fc = field_components(m, BiJet2.lift_t(w.jet(pt.t)), pt)
    assert grad_sq == pytest.approx(fc.grad_sq, abs=1e-8)


def test_weyl_norm_block_route_matches_oracle():
    b = cat.make("weighted_sphere")
    inst = b.instance
    pt = PointSpec(1.0, 0.9)
    P = point_fields(inst.metric, inst.density, inst.params, pt).p
    chart = CoordinateChart(inst.metric)
    x = chart.embed(pt)
    p_axes = np.array([P.tt] + [P.blocks[0]] * (chart.n - 1))
    fd = weyl_norm_fd(chart, x, p_axes)
    block = weyl_norm(inst.metric, inst.density, inst.params, pt)
    # a weighted space form has vanishing deviation along both routes
    assert block < 1e-10
    assert abs(fd - block) < 1e-5


def test_density_chart_function_values():
    b = cat.make("weighted_sphere")
    chart = CoordinateChart(b.instance.metric)
    f = density_chart_function(chart, b.instance.density, b.instance.params.m)
    x = chart.embed(PointSpec(1.3, 0.5))
    v = b.instance.density.v.value(1.3)
    assert f(x) == pytest.approx(-b.instance.params.m * math.log(v), rel=1e-14)

    bsk = cat.make("skew_sphere_density")
    chart_s = CoordinateChart(bsk.instance.metric)
    fs = density_chart_function(chart_s, bsk.instance.density, bsk.instance.params.m)
    xs = chart_s.embed(PointSpec(1.1, 0.7))
    phi = bsk.instance.metric.phi.value(1.1)
    vn = bsk.instance.density.v_n.value(0.7)
    al = bsk.instance.density.alpha.value(1.1)
    expect = -bsk.instance.params.m * math.log(phi * vn + al)
    assert fs(xs) == pytest.approx(expect, rel=1e-14)


def test_chart_refuses_unrealizable_inputs():
    iv = Interval(0.0, 2.0)
    phi = Profile1D.from_string("1 + t", iv)
    with pytest.raises(UnsupportedError):
        CoordinateChart(WarpedMetric(iv, phi, EinsteinFiber(4, 3.0)))
    # split density over a circle fiber has no probe axis in the chart
    circle = WarpedMetric(iv, phi, SpaceForm(1, 0.0))
    chart = CoordinateChart(circle)
    vn = Profile1D.from_string("cos(t)", Interval(0.0, math.pi), var="t")
    al = Profile1D.from_string("2.0", iv)
    with pytest.raises(UnsupportedError):
        density_chart_function(chart, SplitDensity(vn, al), 2.0)
