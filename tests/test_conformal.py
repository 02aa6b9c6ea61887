"""Conformal density transforms: maps, pullbacks, transformation laws."""

import json
import math

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
import smmskit.weighted as weighted
from conftest import draw_positive_factor
from smmskit.conformal import (
    ConformalMap,
    ReparamProfile,
    apply_conformal,
    conformal_law_residuals,
    inverse_factor,
    involution_residual,
)
from smmskit.errors import DomainError, EvalError, PositivityError
from smmskit.geometry import Tensor2Blocks
from smmskit.profiles import Interval, Profile1D
from smmskit.weighted import einstein_residuals, sample_points

IV = Interval(-2.0, 2.0)


def quad_factor():
    return Profile1D.from_string("1 + 0.3*t**2", IV)


def test_forward_inverse_round_trip():
    cmap = ConformalMap(quad_factor(), IV)
    for t in (-1.6, -0.2, 0.9, 1.7):
        q = cmap.forward(t)
        assert cmap.inverse(q) == pytest.approx(t, abs=1e-10)


def test_derivative_is_reciprocal_factor():
    u = quad_factor()
    cmap = ConformalMap(u, IV)
    for t in (-1.0, 0.3, 1.4):
        assert cmap.derivative(t) == pytest.approx(1.0 / u.value(t), rel=1e-12)


def test_pullback_jet_chain():
    u = quad_factor()
    cmap = ConformalMap(u, IV)
    w = Profile1D.from_string("sin(0.7*t)", IV)
    t = 0.8
    q = cmap.forward(t)
    j = cmap.pullback_jet(w, q)
    wj = w.jet(t)
    uj = u.jet(t)
    assert j.value == pytest.approx(wj.value, rel=1e-12)
    # d/dq = u(t) d/dt along the arc-length style reparametrization
    assert j.d1 == pytest.approx(wj.d1 * uj.value, rel=1e-10)
    assert j.d2 == pytest.approx(wj.d2 * uj.value ** 2 + wj.d1 * uj.d1 * uj.value,
                                 rel=1e-10)


def test_identity_factor_translates_window():
    u = Profile1D.constant(1.0, IV, var="t")
    cmap = ConformalMap(u, IV)
    img = cmap.image_interval()
    assert img.hi - img.lo == pytest.approx(4.0, abs=1e-9)
    t0 = cmap.inverse(0.0)
    for dt in (-1.0, 0.5, 1.3):
        assert cmap.forward(t0 + dt) == pytest.approx(dt, abs=1e-10)


def test_rejects_nonpositive_factor():
    with pytest.raises(PositivityError):
        ConformalMap(Profile1D.from_string("t", IV), IV)


def test_identity_factor_preserves_instance():
    b = cat.make("weighted_sphere")
    inst = b.instance
    u = Profile1D.constant(1.0, inst.metric.interval, var="t")
    res = apply_conformal(inst, u)
    hat = res.instance
    assert hat.params == inst.params
    t = 1.1
    q = res.cmap.forward(t)
    assert hat.metric.phi.value(q) == pytest.approx(inst.metric.phi.value(t),
                                                    rel=1e-12)
    assert hat.density.v.value(q) == pytest.approx(inst.density.v.value(t),
                                                   rel=1e-12)


def test_constant_factor_laws_hold():
    b = cat.make("weighted_hyperbolic")
    inst = b.instance
    u = Profile1D.constant(1.7, inst.metric.interval, var="t")
    res = apply_conformal(inst, u)
    ts = [0.5, 1.2, 2.5]
    laws = conformal_law_residuals(inst, u, res, ts)
    assert max(laws.values()) < 1e-10


def test_transformation_laws_random_factors():
    rng = np.random.default_rng(23)
    for name in ("weighted_sphere", "cone_product", "neck_warped"):
        b = cat.make(name)
        inst = b.instance
        u = draw_positive_factor(rng, inst.metric.interval)
        res = apply_conformal(inst, u)
        iv = inst.metric.interval
        lo, hi = max(iv.lo, -10.0), min(iv.hi, 10.0)
        ts = [float(x) for x in np.linspace(lo + 0.1 * (hi - lo),
                                            hi - 0.1 * (hi - lo), 5)]
        laws = conformal_law_residuals(inst, u, res, ts)
        assert set(laws) >= {"ricci", "modified_ricci", "schouten", "scalar"}
        assert max(laws.values()) < 1e-7, name


def test_involution_returns_to_start():
    rng = np.random.default_rng(31)
    for name in ("weighted_sphere", "weighted_hyperbolic"):
        b = cat.make(name)
        inst = b.instance
        u = draw_positive_factor(rng, inst.metric.interval)
        iv = inst.metric.interval
        lo, hi = max(iv.lo, -10.0), min(iv.hi, 10.0)
        ts = [float(x) for x in np.linspace(lo + 0.1 * (hi - lo),
                                            hi - 0.1 * (hi - lo), 5)]
        assert involution_residual(inst, u, ts) < 1e-7, name


def test_inverse_factor_composes_to_identity():
    b = cat.make("weighted_sphere")
    inst = b.instance
    u = quad_factor_on(inst.metric.interval)
    res = apply_conformal(inst, u)
    back = inverse_factor(res)
    for t in (0.6, 1.3, 2.2):
        q = res.cmap.forward(t)
        assert back.value(q) == pytest.approx(1.0 / u.value(t), rel=1e-10)


def quad_factor_on(iv):
    return Profile1D.from_string("1 + 0.05*t**2", iv)


def test_sphere_pair_factor_constant_hat_density():
    # u = nu/(2 lam) - cos(w t)/(2 lam) with nu = 2, lam = 1/2 equals the
    # density of the sphere bundle with a = 2, b = -1; the transformed
    # density is constant and the new scale is lam (a^2 - b^2)
    b = cat.make("weighted_sphere", n=3, m=2.0, lam=0.5, a=2.0, b=-1.0)
    inst = b.instance
    res = apply_conformal(inst, inst.density.v)
    hat = res.instance
    pts = sample_points(hat.metric, hat.density, 48)
    lam_hat = 0.5 * (4.0 - 1.0)
    rep = einstein_residuals(hat.metric, hat.density, hat.params, lam_hat, pts)
    assert rep.v_spread < 1e-10
    assert rep.residual_P < 1e-8
    assert b.pair.lam_hat == pytest.approx(lam_hat, abs=1e-12)


# ---------------------------------------------------------------------------
# the coordinate inverse on transformed grids

def hat_grid(name: str, k: int = 250):
    """The paired transform of a catalog family and its distinct grid q's."""
    b = cat.make(name)
    cfg = b.config(k=k)
    iv = b.instance.metric.interval
    u = Profile1D.from_string(cfg["conformal"]["u"], iv, var="t")
    res = apply_conformal(b.instance, u)
    hat = res.instance
    pts = sample_points(hat.metric, hat.density, k)
    return b.instance, u, res, sorted({p.t for p in pts})


@pytest.mark.parametrize("name", ["weighted_sphere", "neck_warped"])
def test_inverse_of_shuffled_grid_matches_sorted(name):
    inst, u, res, qs = hat_grid(name)
    shuffled = list(qs)
    np.random.default_rng(7).shuffle(shuffled)
    fresh = apply_conformal(inst, u).cmap
    by_q = {q: fresh.inverse(q) for q in shuffled}
    for q in qs:
        t = res.cmap.inverse(q)
        assert abs(by_q[q] - t) <= 1e-14 * max(1.0, abs(t)), (name, q)


def test_repeated_inverse_is_bitwise_identical():
    cmap = ConformalMap(quad_factor(), IV)
    qs = [cmap.forward(t) + 1e-3 for t in (-1.5, -0.4, 0.7, 1.6)]
    first = [cmap.inverse(q) for q in qs]
    for t in np.linspace(-1.9, 1.9, 37):
        cmap.forward(t)  # new anchors must not move a memoized inverse
    assert [cmap.inverse(q) for q in qs] == first


def test_inverse_beyond_image_raises_every_call():
    cmap = ConformalMap(quad_factor(), IV)
    beyond = cmap.image_interval().hi + 0.5
    for _ in range(3):
        with pytest.raises(DomainError):
            cmap.inverse(beyond)
    # a failure leaves the map usable
    q = cmap.forward(1.2)
    assert cmap.inverse(q) == 1.2


def test_forward_rejects_nan_without_new_anchor():
    cmap = ConformalMap(quad_factor(), IV)
    cmap.forward(0.9)
    ts, qs = list(cmap._ts), list(cmap._qs)
    with pytest.raises(DomainError):
        cmap.forward(math.nan)
    assert cmap._ts == ts and cmap._qs == qs


@pytest.mark.parametrize("name", cat.available())
def test_catalog_grid_round_trips(name):
    _, _, res, qs = hat_grid(name)
    cmap = res.cmap
    for q in qs:
        assert abs(cmap.forward(cmap.inverse(q)) - q) <= 1e-14 * max(1.0, abs(q)), q


# ---------------------------------------------------------------------------
# reparameterized profiles and fail-closed sups

def test_reparam_jet_rejects_nonfinite():
    cmap = ConformalMap(quad_factor(), IV)
    # at t = 1.9 the t-jet of exp(30000 t - 56311.5) is finite (value 1e299,
    # d2 9e307), but the chain-rule factor u^2 = 4.3 pushes d2 in q past
    # the float range
    prof = ReparamProfile(cmap, num=Profile1D.from_string("exp(30000*t - 56311.5)", IV))
    with pytest.raises(EvalError):
        prof.jet(cmap.forward(1.9))


def test_reparam_check_positive_margin_is_sampling_margin():
    cmap = ConformalMap(quad_factor(), IV)
    small = ReparamProfile(cmap, num=Profile1D.from_string("0.2 + 0*t", IV))
    small.check_positive(samples=64, margin=0.3)
    odd = ReparamProfile(cmap, num=Profile1D.from_string("t", IV))
    with pytest.raises(PositivityError):
        odd.check_positive(samples=64, margin=0.3)
    odd_den = ReparamProfile(cmap, den=Profile1D.from_string("t", IV))
    with pytest.raises(PositivityError):
        odd_den.check_positive(samples=64, margin=0.3)


def test_inverse_factor_positivity_is_checked_in_the_base_frame(monkeypatch):
    b = cat.make("weighted_sphere")
    first = apply_conformal(b.instance, b.pair.u)
    real = first.cmap.inverse
    calls = []

    def counted(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(first.cmap, "inverse", counted)
    ConformalMap(inverse_factor(first), first.cmap.image_interval())
    assert calls == []


def test_nan_law_deviation_fails_closed(monkeypatch, tmp_path):
    """One NaN component at one point must make the law residual NaN."""
    real = weighted.ricci_blocks_for
    hat_calls = []

    def poisoned(metric, point, structure):
        rho = real(metric, point, structure)
        if isinstance(metric.phi, ReparamProfile):
            hat_calls.append(point)
            if len(hat_calls) == 3:
                return Tensor2Blocks(rho.structure, rho.tt,
                                     (math.nan,) + tuple(rho.blocks[1:]), rho.mixed)
        return rho

    monkeypatch.setattr(weighted, "ricci_blocks_for", poisoned)
    b = cat.make("weighted_sphere")
    inst = b.instance
    u = quad_factor_on(inst.metric.interval)
    laws = conformal_law_residuals(inst, u, apply_conformal(inst, u),
                                   [0.4, 0.9, 1.4, 1.9, 2.4])
    assert math.isnan(laws["ricci"])

    hat_calls.clear()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(b.config(k=16)))
    assert cli.main(["conformal", "--config", str(path)]) == 1


@pytest.mark.parametrize("u", ["1 + 0*t", "2 + 0.3*t", "sqrt(1 + t)"])
def test_divergent_image_endpoint_is_infinite(u):
    # quad returns a finite value with a tiny error estimate for some of these
    # divergent integrals of 1/u over [t_ref, inf)
    iv = Interval(0.0, math.inf)
    cmap = ConformalMap(Profile1D.from_string(u, iv), iv)
    image = cmap.image_interval()
    assert math.isfinite(image.lo) and image.hi == math.inf


def test_convergent_image_endpoint_keeps_quad_value():
    iv = Interval(0.0, math.inf)
    cmap = ConformalMap(Profile1D.from_string("1 + 0.8*t**2", iv), iv)
    t_ref = cmap.t_ref
    exact = (math.pi / 2 - math.atan(math.sqrt(0.8) * t_ref)) / math.sqrt(0.8)
    assert cmap.image_interval().hi == pytest.approx(exact, abs=1e-12)


def test_conformal_with_constant_factor_on_half_line(tmp_path):
    # weighted_euclidean with b = 0 pairs with a constant factor, whose image
    # of the half line is a half line
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cat.make("weighted_euclidean", b=0.0).config(k=64)))
    assert cli.main(["conformal", "--config", str(path)]) == 0
    assert cli.main(["verify", "--config", str(path)]) == 0
