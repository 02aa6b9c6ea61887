"""Weighted curvature tensors, scale extraction and diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.weighted as weighted
from conftest import left_to_right_mean
from smmskit.classify import classify_report
from smmskit.errors import DomainError, UnsupportedError
from smmskit.geometry import (
    FiberDesc,
    PointSpec,
    SpaceForm,
    Tensor2Blocks,
    WarpedMetric,
    sectional_residual,
)
from smmskit.profiles import Interval, Profile1D
from smmskit.weighted import (
    RadialDensity,
    SmmsParams,
    _fiber_diagnostics,
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


def each_point(pts):
    """The points of a grid, each with float coordinates."""
    return [pts.at(i) for i in range(len(pts))]


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
    for pt in each_point(sample_points(inst.metric, inst.density, 8)):
        P = point_fields(inst.metric, inst.density, inst.params, pt).p
        assert P.sup_dev(lam_eff) < 1e-12
    # at m = 1 the density measure is inert: the scale stays lam for any mu
    b1 = cat.make("constant_density", n=n, m=1.0, lam=lam, a=a, mu=mu)
    inst1 = b1.instance
    for pt in each_point(sample_points(inst1.metric, inst1.density, 8)):
        P1 = point_fields(inst1.metric, inst1.density, inst1.params, pt).p
        assert P1.sup_dev(lam) < 1e-12


def test_weyl_vanishes_on_weighted_space_forms():
    for name in ("weighted_sphere", "weighted_euclidean", "weighted_hyperbolic",
                 "exponential_warped"):
        b = cat.make(name)
        inst = b.instance
        for pt in each_point(sample_points(inst.metric, inst.density, 6)):
            assert weyl_norm(inst.metric, inst.density, inst.params, pt) < 1e-8, name


def test_weyl_detects_nonconstant_curvature():
    b = cat.make("cone_product")
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 8)
    vals = [weyl_norm(inst.metric, inst.density, inst.params, p)
            for p in each_point(pts)]
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
            assert (getattr(base, fieldname).tobytes()
                    == getattr(other, fieldname).tobytes()), fieldname


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
    pts = sample_points(rad.metric, rad.density, 9)
    assert pts.s is None and pts.t.shape == (9,)
    split = cat.make("skew_sphere_density").instance
    pts = sample_points(split.metric, split.density, 9)
    assert pts.t.shape == pts.s.shape == (9,)
    assert np.isfinite(pts.s).all()



def test_fiber_diagnostic_needs_its_condition_at_every_grid_point():
    # v / phi = 2 + (t - t4)^2 is stationary only at the grid point t4: the
    # fiber quasi-Einstein deviation is defined there alone, so on the grid
    # (where it certifies v_N constant) it is undefined
    iv = Interval(0.0, math.pi)
    metric = WarpedMetric(iv, Profile1D.from_string("sin(t)", iv), SpaceForm(2, 1.0))
    pts = sample_points(metric, RadialDensity(Profile1D.constant(1.0, iv)), 9)
    t4 = float(pts.t[4])
    density = RadialDensity(Profile1D.from_string(f"sin(t)*(2 + (t - {t4!r})**2)", iv))
    params = SmmsParams(3, 2.0)
    structure = density.structure(metric)
    flat, be = _fiber_diagnostics(metric, density, params, pts, structure)
    assert be is None and flat is not None
    flat4, be4 = _fiber_diagnostics(metric, density, params, pts.at(4), structure)
    assert be4 == flat4
    rep = einstein_residuals(metric, density, params, 0.5, pts)
    assert rep.fiber_be_dev is None and rep.fiber_be_residual is None
    assert rep.fiber_flat_residual is not None


class _FailingFiber(FiberDesc):
    """A one-block fiber whose Ricci coefficients raise a given error."""

    dim = 2

    def __init__(self, error):
        self.error = error

    def blocks(self, split):
        return (("fiber", self.dim),)

    def ricci_coeffs(self, s, split):
        raise self.error


def test_fiber_diagnostics_catch_only_package_errors():
    # an undefined fiber Ricci is "diagnostic undefined"; a programming
    # error in a fiber must not silently become one
    iv = Interval(0.0, math.pi)
    phi = Profile1D.from_string("sin(t)", iv)
    density = RadialDensity(Profile1D.constant(1.0, iv))
    params = SmmsParams(3, 2.0)
    pts = sample_points(WarpedMetric(iv, phi, SpaceForm(2, 1.0)), density, 9)

    undefined = WarpedMetric(iv, phi, _FailingFiber(DomainError("no probe here")))
    structure = density.structure(undefined)
    assert _fiber_diagnostics(undefined, density, params, pts, structure) == (None, None)

    broken = WarpedMetric(iv, phi, _FailingFiber(TypeError("a bug in the fiber")))
    with pytest.raises(TypeError, match="a bug in the fiber"):
        _fiber_diagnostics(broken, density, params, pts, structure)


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
            values = getattr(rep, fieldname).copy()
            values[int(rng.integers(1, len(pts)))] = math.nan
            setattr(rep, fieldname, values)
            assert math.isnan(aggregate(rep)), fieldname


# ---------------------------------------------------------------------------
# the grid kernel against a loop of scalar point_fields calls

REPORT_LISTS = ("be_tt", "be_blocks", "be_mixed", "rho_dev", "qe_dev", "p_dev",
                "tau_f", "j_f", "kappa", "v", "sec_dev", "fiber_flat_dev",
                "fiber_be_dev")


def _pointwise_report(inst, lam, pts):
    """Every report field as a list over the points, each entry from a
    scalar kernel call (None where a diagnostic is undefined)."""
    metric, density, params = inst.metric, inst.density, inst.params
    n, m = params.n, params.m
    structure = density.structure(metric)
    ref = {fieldname: [] for fieldname in REPORT_LISTS}
    for p in each_point(pts):
        pf = point_fields(metric, density, params, p)
        ref["be_tt"].append(pf.be.tt)
        ref["be_blocks"].append(pf.be.blocks)
        ref["be_mixed"].append(pf.be.mixed)
        ref["rho_dev"].append(pf.rho.sup_dev(2.0 * (n - 1.0) * lam))
        ref["qe_dev"].append(pf.be.sup_dev(2.0 * (n + m - 1.0) * lam))
        ref["p_dev"].append(pf.p.sup_dev(lam))
        ref["tau_f"].append(pf.tau_f)
        ref["j_f"].append(pf.j)
        ref["kappa"].append(((m + n) * lam - pf.j) * pf.v / m)
        ref["v"].append(pf.v)
        try:
            ref["sec_dev"].append(sectional_residual(metric, p, 2.0 * lam,
                                                     s_active=len(structure) > 1))
        except UnsupportedError:
            ref["sec_dev"].append(None)
        flat_dev, be_dev = _fiber_diagnostics(metric, density, params, p, structure)
        ref["fiber_flat_dev"].append(flat_dev)
        ref["fiber_be_dev"].append(be_dev)
    return ref


def _pointwise_tau(params, lam, ref):
    """tau_consistency_residual as a float loop over the reference lists."""
    n, m = params.n, params.m
    kbar = left_to_right_mean(ref["kappa"])
    out = 0.0
    for tau, v in zip(ref["tau_f"], ref["v"]):
        out = max(out, abs(tau - 2.0 * (n + m - 1.0) * ((m + n) * lam - m * kbar / v)))
    return out


def _pointwise_mu(inst, lam, pts):
    n, m = inst.params.n, inst.params.m
    base = SmmsParams(n, m, 0.0)
    vals = []
    for p in each_point(pts):
        pf = point_fields(inst.metric, inst.density, base, p)
        j_target = pf.be.tt - (n + m - 2.0) * lam
        vals.append((2.0 * (n + m - 1.0) * j_target - pf.tau_f) * pf.v * pf.v
                    / (m * (m - 1.0)))
    return left_to_right_mean(vals), max(vals) - min(vals)


@pytest.mark.parametrize("name", cat.available())
def test_grid_kernel_matches_pointwise_loop_bitwise(name):
    # every report array holds the floats of the scalar loop bit for bit,
    # and every aggregate is the builtin max/min/sum over those floats
    b = cat.make(name)
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 64)
    rep = einstein_residuals(inst.metric, inst.density, inst.params, b.lam, pts)
    ref = _pointwise_report(inst, b.lam, pts)
    assert rep.points is pts
    for fieldname in REPORT_LISTS:
        got, want = getattr(rep, fieldname), ref[fieldname]
        if None in want:
            assert want == [None] * len(pts) and got is None, fieldname
            continue
        want = np.array(want, dtype=float)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64, fieldname
        assert got.shape == want.shape and got.shape[0] == len(pts), fieldname
        assert got.tobytes() == want.tobytes(), fieldname
    aggregates = {
        "residual_P": max(ref["p_dev"]),
        "residual_QE": max(ref["qe_dev"]),
        "residual_Einstein": max(ref["rho_dev"]),
        "kappa_mean": left_to_right_mean(ref["kappa"]),
        "kappa_spread": max(ref["kappa"]) - min(ref["kappa"]),
        "v_spread": max(ref["v"]) - min(ref["v"]),
    }
    for prop, fieldname in (("sec_residual", "sec_dev"),
                            ("fiber_flat_residual", "fiber_flat_dev"),
                            ("fiber_be_residual", "fiber_be_dev")):
        aggregates[prop] = None if None in ref[fieldname] else max(ref[fieldname])
    for prop, want in aggregates.items():
        got = getattr(rep, prop)
        assert type(got) is type(want) and repr(got) == repr(want), prop
    assert repr(tau_consistency_residual(rep)) == repr(_pointwise_tau(inst.params,
                                                                      b.lam, ref))
    if inst.params.m != 1.0:
        got = solve_mu(inst.metric, inst.density, inst.params, b.lam, pts)
        assert repr(got) == repr(_pointwise_mu(inst, b.lam, pts))


@pytest.mark.parametrize("target, part", [
    ("hessian_radial", "tt"), ("hessian_radial", "block"),
    ("field_components", "laplacian"), ("field_components", "grad_sq"),
])
def test_nan_in_one_grid_entry_fails_closed(monkeypatch, target, part):
    # a NaN at one entry of an array the grid kernel builds makes the
    # Schouten residual NaN, and NaN passes no classifier gate
    b = cat.make("weighted_sphere")
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 40)
    real = getattr(weighted, target)
    rng = np.random.default_rng(len(target) + len(part))
    for i in rng.integers(0, len(pts), size=3):
        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            if target == "hessian_radial":
                tt, blocks = out.tt.copy(), [x.copy() for x in out.blocks]
                (tt if part == "tt" else blocks[0])[i] = math.nan
                return Tensor2Blocks(out.structure, tt, tuple(blocks), out.mixed)
            vals = getattr(out, part).copy()
            vals[i] = math.nan
            return dataclasses.replace(out, **{part: vals})
        with monkeypatch.context() as mp:
            mp.setattr(weighted, target, poisoned)
            rep = einstein_residuals(inst.metric, inst.density, inst.params,
                                     b.lam, pts)
        assert math.isnan(rep.p_dev[i]) and math.isnan(rep.residual_P)
        assert sum(map(math.isnan, rep.p_dev)) == 1
        c = classify_report(inst, b.lam, rep)
        assert c.local == "Indeterminate"
        assert c.details["dominant_violation"] == "modified_schouten_residual"
