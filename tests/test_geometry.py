"""Curvature and field operators of warped-product metrics."""

import math

import numpy as np
import pytest

from smmskit.errors import NestingError, UnsupportedError
from smmskit.geometry import (
    EinsteinFiber,
    FiberObataData,
    NestedFiber,
    PointSpec,
    SpaceForm,
    WarpedMetric,
    field_components,
    hessian_radial,
    hessian_split,
    ricci,
    sectional_blocks,
    sectional_residual,
)
from smmskit.jets import BiJet2
from smmskit.profiles import Interval, Profile1D


def unit_sphere(n=3):
    iv = Interval(0.0, math.pi)
    phi = Profile1D.from_string("sin(t)", iv)
    return WarpedMetric(iv, phi, SpaceForm(n - 1, 1.0))


def flat_space(n=3):
    iv = Interval(0.0, math.inf)
    phi = Profile1D.from_string("t", iv)
    return WarpedMetric(iv, phi, SpaceForm(n - 1, 1.0))


def test_exponential_warping_ricci_frozen():
    # g = dt^2 + e^{2t} g_flat in dimension 3: both Ricci coefficients are -2
    iv = Interval(-2.0, 2.0)
    m = WarpedMetric(iv, Profile1D.from_string("exp(t)", iv), SpaceForm(2, 0.0))
    r = ricci(m, PointSpec(0.0))
    assert r.tt == pytest.approx(-2.0, abs=1e-12)
    assert r.blocks[0] == pytest.approx(-2.0, abs=1e-12)
    assert r.mixed == 0.0


def test_round_sphere_ricci_and_sectional():
    m = unit_sphere()
    for t in (0.4, 1.0, 2.2):
        r = ricci(m, PointSpec(t))
        assert r.tt == pytest.approx(2.0, abs=1e-10)
        assert r.blocks[0] == pytest.approx(2.0, abs=1e-10)
        sec = sectional_blocks(m, PointSpec(t))
        planes = [k for _, k in sec.pairs() if k is not None]
        assert planes and all(k == pytest.approx(1.0, abs=1e-10) for k in planes)
        assert sectional_residual(m, PointSpec(t), 1.0) < 1e-10


def test_hyperbolic_space_sectional():
    iv = Interval(0.0, 5.0)
    m = WarpedMetric(iv, Profile1D.from_string("sinh(t)", iv), SpaceForm(2, 1.0))
    assert sectional_residual(m, PointSpec(1.3), -1.0) < 1e-10
    r = ricci(m, PointSpec(1.3))
    assert r.tt == pytest.approx(-2.0, abs=1e-10)


def test_sectional_table_lists_only_plane_pairs():
    # a 1-dimensional block spans no plane, so (i, i) appears only for
    # blocks of dimension 2 or more, and None means undetermined alone
    iv = Interval(0.0, 5.0)
    circle = WarpedMetric(iv, Profile1D.from_string("1 + t", iv), SpaceForm(1, 0.0))
    assert list(dict(sectional_blocks(circle, PointSpec(1.0)).pairs())) == [(0, 1)]
    split = sectional_blocks(unit_sphere(4), PointSpec(1.0, 0.7))
    assert [d for _, d in split.blocks] == [1, 1, 2]
    assert list(dict(split.pairs())) == [(0, 1), (0, 2), (1, 2), (2, 2)]
    assert all(k is not None for _, k in split.pairs())


def test_sectional_undetermined_by_einstein_fiber_data():
    # an abstract Einstein 4-manifold pins its Ricci down, not its curvature
    iv = Interval(0.0, 3.0)
    m = WarpedMetric(iv, Profile1D.from_string("1 + t", iv), EinsteinFiber(4, 3.0))
    assert sectional_blocks(m, PointSpec(1.0)).k[(1, 1)] is None
    with pytest.raises(UnsupportedError, match="not determined by fiber data"):
        sectional_residual(m, PointSpec(1.0), 1.0)


def test_hessian_radial_frozen():
    # phi = sin t, w = cos t at t = pi/4: both coefficients equal -cos(pi/4)
    m = unit_sphere()
    w = Profile1D.from_string("cos(t)", m.interval)
    h = hessian_radial(m, w, PointSpec(math.pi / 4))
    assert h.tt == pytest.approx(-math.cos(math.pi / 4), abs=1e-12)
    assert h.blocks[0] == pytest.approx(-math.cos(math.pi / 4), abs=1e-12)
    pt = PointSpec(math.pi / 4)
    grad_sq = field_components(m, BiJet2.lift_t(w.jet(pt.t)), pt).grad_sq
    assert grad_sq == pytest.approx(0.5, abs=1e-12)


def test_laplacian_frozen_cases():
    m = unit_sphere()
    w = Profile1D.from_string("cos(t)", m.interval)
    for t in (0.7, 1.1, 2.0):
        assert hessian_radial(m, w, PointSpec(t)).trace() == pytest.approx(
            -3.0 * math.cos(t), abs=1e-10)
    flat = flat_space()
    radial = Profile1D.from_string("t", flat.interval)
    pt = PointSpec(2.0)
    fc = field_components(flat, BiJet2.lift_t(radial.jet(pt.t)), pt)
    assert hessian_radial(flat, radial, pt).trace() == pytest.approx(1.0, abs=1e-12)
    assert fc.laplacian == pytest.approx(1.0, abs=1e-12)
    assert fc.grad_sq == pytest.approx(1.0, abs=1e-12)


def test_constant_field_has_zero_derivatives():
    m = unit_sphere()
    w = Profile1D.from_string("4.2", m.interval)
    h = hessian_radial(m, w, PointSpec(1.0))
    assert h.tt == 0.0 and all(b == 0.0 for b in h.blocks)
    assert h.trace() == 0.0
    pt = PointSpec(1.0)
    assert field_components(m, BiJet2.lift_t(w.jet(pt.t)), pt).grad_sq == 0.0


def skew_structure(lam=0.5, amp=1.0, b=1.0, kappa=2.0):
    w = math.sqrt(2.0 * lam)
    iv = Interval(0.0, math.pi / w)
    phi = Profile1D.from_string(f"sin({w!r}*t)/{w!r}", iv)
    v_n = Profile1D.from_string(f"{amp!r}*cos(t)", Interval(0.0, math.pi), var="t")
    fiber = EinsteinFiber(2, 1.0, obata=FiberObataData(v_n, 0.0, 1.0))
    metric = WarpedMetric(iv, phi, fiber)
    alpha = Profile1D.from_string(f"{b!r}*cos({w!r}*t) + {kappa / (2 * lam)!r}", iv)
    return metric, v_n, alpha


def test_hessian_split_skew_structure_frozen():
    # v(t, s) = phi(t) v_N(s) + alpha(t) on the round sphere; when the fiber
    # coefficient is the warping itself the mixed component vanishes exactly
    metric, v_n, alpha = skew_structure()
    t = s = math.pi / 3
    h = hessian_split(metric, v_n, alpha, PointSpec(t, s))
    assert h.mixed == 0.0
    pj = metric.phi.jet(t)
    aj = alpha.jet(t)
    expected_tt = v_n.value(s) * pj.d2 + aj.d2
    assert h.tt == pytest.approx(expected_tt, rel=1e-12)
    # a rotated height function on the round sphere satisfies Hes v = -v g
    vval = metric.phi.value(t) * v_n.value(s) + (alpha.value(t) - 2.0)
    halt = hessian_split(metric, v_n,
                         Profile1D.from_string(f"cos({1.0!r}*t)", metric.interval),
                         PointSpec(t, s))
    assert halt.tt == pytest.approx(-vval, rel=1e-10)
    assert halt.blocks[0] == pytest.approx(-vval, rel=1e-10)
    assert halt.blocks[-1] == pytest.approx(-vval, rel=1e-10)


def test_fiber_obata_orthogonal_hessian_block():
    # orth block of Hes(phi v_N): phi' alpha' terms vanish (alpha = 0) and the
    # fiber contribution enters through the Obata coefficient -(xi + c v_N)
    metric, v_n, _ = skew_structure()
    zero = Profile1D.from_string("0.0", metric.interval)
    t, s = 0.9, 1.2
    h = hessian_split(metric, v_n, zero, PointSpec(t, s))
    phi, dphi = metric.phi.value(t), metric.phi.jet(t).d1
    ob = metric.fiber.obata
    # orthonormal coefficient: (phi'^2 / phi) v_N - (xi + c v_N) / phi
    expected = (dphi ** 2 / phi) * v_n.value(s) - (ob.xi + ob.c * v_n.value(s)) / phi
    assert h.blocks[-1] == pytest.approx(expected, rel=1e-12)


def test_nested_fiber_cone_coefficients():
    # dr^2 + r^2 g_E over an Einstein fiber: the cone direction is flat when
    # the fiber constant matches the cone normalization
    inner_iv = Interval(0.0, 8.0)
    r = Profile1D.from_string("t", inner_iv)
    # cone over the unit round sphere (beta = dim - 1) is flat
    inner = WarpedMetric(inner_iv, r, EinsteinFiber(2, 1.0))
    outer_iv = Interval(-5.0, 5.0)
    one = Profile1D.from_string("1.0", outer_iv)
    m = WarpedMetric(outer_iv, one, NestedFiber(inner))
    pt = PointSpec(0.3, 2.0)
    rr = ricci(m, pt)
    assert rr.tt == pytest.approx(0.0, abs=1e-12)
    assert all(b == pytest.approx(0.0, abs=1e-12) for b in rr.blocks)


def test_nested_fiber_depth_guard():
    inner_iv = Interval(0.0, 8.0)
    r = Profile1D.from_string("t", inner_iv)
    inner = WarpedMetric(inner_iv, r, EinsteinFiber(2, 2.0))
    mid = WarpedMetric(inner_iv, r, NestedFiber(inner))
    with pytest.raises(NestingError):
        NestedFiber(mid)


def test_grid_skips_split_axis_only_when_needed():
    m = unit_sphere()
    pts = m.grid(10)
    assert pts.s is None
    assert len(pts) == 10 and pts.t.shape == (10,)
    pts_s = m.grid(16, s_active=True)
    assert pts_s.t.shape == pts_s.s.shape == (16,)
    assert len(pts_s) == 16
    # t-major over a square grid: each t once with every s
    ts, ss = np.unique(pts_s.t), np.unique(pts_s.s)
    assert np.array_equal(pts_s.t, np.repeat(ts, 4))
    assert np.array_equal(pts_s.s, np.tile(ss, 4))
