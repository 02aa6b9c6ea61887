"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Seeds are fixed so the randomized parameter sweeps are
deterministic; every gate below is asserted, never clamped or rounded.
"""

import dataclasses
import math

import numpy as np

import smmskit.catalog as cat
from conftest import (
    draw_positive_factor,
    interior_points,
    jet_vs_finite_difference,
    random_warped_metric,
)
from smmskit.classify import Thresholds, certify
from smmskit.conformal import apply_conformal, conformal_law_residuals
from smmskit.geometry import PointSpec, ricci
from smmskit.odes import (
    ObataSolution,
    nu_identity_residual,
    ode_residual,
    rk4_integrate,
)
from smmskit.oracle import CoordinateChart, ricci_fd
from smmskit.weighted import (
    einstein_residuals,
    point_fields,
    sample_points,
    solve_mu,
)

ALL_FAMILIES = (
    "weighted_sphere", "weighted_euclidean", "weighted_hyperbolic",
    "warping_density", "exponential_warped", "neck_warped",
    "cone_product", "skew_sphere_density", "constant_density",
)


def _report(instance, lam, k, diagnostics=False):
    pts = sample_points(instance.metric, instance.density, k)
    return einstein_residuals(instance.metric, instance.density,
                              instance.params, lam, pts,
                              with_diagnostics=diagnostics)


def _draw_space_form(rng, name):
    n = int(rng.integers(2, 6))
    m = float(rng.uniform(0.8, 3.5))
    if name == "weighted_sphere":
        lam = float(rng.uniform(0.3, 1.2))
        a = float(rng.uniform(0.8, 2.5))
        b = float(rng.uniform(-0.8, 0.8)) * a
        return cat.make(name, n=n, m=m, lam=lam, a=a, b=b), 2.0 * lam * a
    if name == "weighted_euclidean":
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.0, 1.5))
        return cat.make(name, n=n, m=m, a=a, b=b), 2.0 * b
    lam = float(rng.uniform(-1.2, -0.3))
    a = float(rng.uniform(0.0, 1.5))
    b = float(rng.uniform(0.3, 1.5))
    return cat.make(name, n=n, m=m, lam=lam, a=a, b=b), 2.0 * lam * a


def test_criterion_01_space_form_families_solve_at_declared_scale():
    # 20 draws per constant-curvature family: the modified Schouten tensor
    # equals lam g to 1e-8 over 1000 interior points, the scale matches its
    # closed form to 1e-8, and its spread stays below 1e-9.
    rng = np.random.default_rng(101)
    worst_p, worst_scale, worst_spread = 0.0, 0.0, 0.0
    for name in ("weighted_sphere", "weighted_euclidean", "weighted_hyperbolic"):
        for _ in range(20):
            bundle, target = _draw_space_form(rng, name)
            rep = _report(bundle.instance, bundle.lam, 1000)
            assert rep.residual_P < 1e-8, name
            assert abs(rep.kappa_mean - target) < 1e-8, name
            assert rep.kappa_spread < 1e-9, name
            worst_p = max(worst_p, rep.residual_P)
            worst_scale = max(worst_scale, abs(rep.kappa_mean - target))
            worst_spread = max(worst_spread, rep.kappa_spread)
    print(f"criterion 01: worst residual {worst_p:.2e}, scale error "
          f"{worst_scale:.2e}, spread {worst_spread:.2e} over 60 draws")


def test_criterion_02_every_catalog_family_keeps_its_scale_constant():
    # The scale function kappa computed pointwise has spread < 1e-9 on the
    # default instance of every family in the catalog.
    worst = 0.0
    for name in ALL_FAMILIES:
        bundle = cat.make(name)
        rep = _report(bundle.instance, bundle.lam, 256)
        assert rep.kappa_spread < 1e-9, name
        worst = max(worst, rep.kappa_spread)
    print(f"criterion 02: worst scale spread {worst:.2e} over "
          f"{len(ALL_FAMILIES)} families")


def test_criterion_03_conformal_transformation_laws_hold():
    # 50 random (instance, positive factor) pairs drawn across the whole
    # catalog: the transformation laws for the Ricci tensor, the modified
    # Ricci tensor and the modified Schouten tensor hold to 1e-7.
    rng = np.random.default_rng(303)
    worst = 0.0
    for i in range(50):
        bundle = cat.make(ALL_FAMILIES[i % len(ALL_FAMILIES)])
        iv = bundle.instance.metric.interval
        u = draw_positive_factor(rng, iv)
        res = apply_conformal(bundle.instance, u)
        ts = interior_points(iv, 9)
        laws = conformal_law_residuals(bundle.instance, res, ts)
        for key in ("ricci", "modified_ricci", "schouten"):
            assert laws[key] < 1e-7, (bundle.name, key)
        worst = max(worst, max(laws[k] for k in
                               ("ricci", "modified_ricci", "schouten")))
    print(f"criterion 03: worst law residual {worst:.2e} over 50 pairs")


def _warping_row(rng, sign):
    n = int(rng.integers(3, 6))
    m = float(rng.uniform(1.4, 4.0))
    c = float(rng.uniform(0.5, 2.0))
    if sign > 0:
        lam = float(rng.uniform(0.3, 1.2))
        w = math.sqrt(2.0 * lam)
        k = c / w + float(rng.uniform(0.1, 1.5))
    elif sign == 0:
        lam = 0.0
        k = float(rng.uniform(0.5, 2.0))
    else:
        lam = float(rng.uniform(-1.2, -0.3))
        k = float(rng.uniform(0.2, 2.0))
    bundle = cat.make("warping_density", n=n, m=m, lam=lam, c=c, pair_k=k)
    nu = bundle.pair.nu
    if sign > 0:
        closed = nu * nu / (4.0 * lam) - c * c / 2.0
    elif sign == 0:
        closed = nu * k  # u(0) = k and u'(0) = 0 on this row
    else:
        p, q = c / 2.0, -c / 2.0
        closed = nu * nu / (4.0 * lam) - 2.0 * p * q
    return bundle, closed


def test_criterion_04_warping_pairs_reach_their_conserved_scale():
    # 10 draws per curvature sign of the warping-equals-density family: the
    # conserved level recomputed from the factor coefficients matches the
    # shipped pair value to 1e-12, and the transformed instance solves the
    # equation at that level to 1e-8.
    rng = np.random.default_rng(404)
    worst_gap, worst_res = 0.0, 0.0
    for sign in (1, 0, -1):
        for _ in range(10):
            bundle, closed = _warping_row(rng, sign)
            gap = abs(closed - bundle.pair.lam_hat)
            assert gap < 1e-12, sign
            hat = apply_conformal(bundle.instance, bundle.pair.u).instance
            rep = _report(hat, closed, 48)
            assert rep.residual_P < 1e-8, sign
            worst_gap = max(worst_gap, gap)
            worst_res = max(worst_res, rep.residual_P)
    print(f"criterion 04: worst closed-form gap {worst_gap:.2e}, "
          f"transformed residual {worst_res:.2e} over 30 draws")


def test_criterion_05_density_ode_closed_forms_and_integrator_drift():
    # Closed-form solutions of u'' + 2 lam u = nu leave a residual below
    # 1e-10 for every curvature sign; the bundled RK4 keeps the conserved
    # level within 1e-6 over [0, 10] at step 1e-3; the first-derivative
    # identity holds to 1e-9 on the warping-table solutions.
    rng = np.random.default_rng(505)
    worst_ode = 0.0
    for lam in (0.7, 0.0, -0.6):
        for _ in range(6):
            nu = float(rng.uniform(-2.0, 2.0))
            a = float(rng.uniform(-1.5, 1.5))
            b = float(rng.uniform(-1.5, 1.5))
            sol = ObataSolution.from_coefficients(lam, nu, a, b)
            ts = np.linspace(-2.0, 2.0, 41)
            r = ode_residual(sol, ts)
            assert r < 1e-10, lam
            worst_ode = max(worst_ode, r)

    lam, nu, u0, du0 = 0.5, 1.0, 2.2, 0.4
    ts, ys = rk4_integrate(
        lambda t, w, dw: nu - 2.0 * lam * w, u0, du0, 0.0, 10.0, 1e-3)
    level = 0.5 * (2.0 * nu * ys[:, 0] - ys[:, 1] ** 2 - 2.0 * lam * ys[:, 0] ** 2)
    drift = float(np.max(np.abs(level - level[0])))
    assert drift < 1e-6

    worst_nu = 0.0
    for sign in (1, 0, -1):
        for _ in range(4):
            bundle, _ = _warping_row(rng, sign)
            lam_row = bundle.parameters["lam"]
            c = bundle.parameters["c"]
            k = bundle.parameters["pair_k"]
            if sign > 0:
                w = math.sqrt(2.0 * lam_row)
                sol = ObataSolution.from_coefficients(lam_row, bundle.pair.nu,
                                                      -c / w, 0.0)
            elif sign == 0:
                sol = ObataSolution.from_coefficients(0.0, c, 0.0, k)
            else:
                w = math.sqrt(-2.0 * lam_row)
                sol = ObataSolution.from_coefficients(lam_row, bundle.pair.nu,
                                                      c / w, 0.0)
            ts_row = interior_points(bundle.instance.metric.interval, 15)
            assert ode_residual(sol, ts_row) < 1e-10, sign
            r = nu_identity_residual(sol, ts_row)
            assert r < 1e-9, sign
            worst_nu = max(worst_nu, r)
    print(f"criterion 05: worst closed-form residual {worst_ode:.2e}, RK4 "
          f"drift {drift:.2e}, derivative identity {worst_nu:.2e}")


def test_criterion_06_exponential_and_neck_constructions():
    # Exponentially warped draws are Einstein to 1e-8 with the
    # characteristic constant recovered as -kappa^2/(2 lam) to 1e-8; the
    # neck fiber solves its equation to 1e-8 for several weights, and the
    # weight-3 neck has Gauss curvature 3/(1+x^2)^2 to 1e-6.
    rng = np.random.default_rng(606)
    worst_e, worst_mu = 0.0, 0.0
    for _ in range(8):
        n = int(rng.integers(2, 5))
        m = float(rng.uniform(1.3, 3.0))
        lam = float(rng.uniform(-1.2, -0.3))
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(0.3, 1.5))
        kappa = float(rng.uniform(-1.5, -0.1))
        bundle = cat.make("exponential_warped", n=n, m=m, lam=lam,
                          a=a, b=b, kappa=kappa)
        rep = _report(bundle.instance, bundle.lam, 200)
        assert rep.residual_Einstein < 1e-8
        pts = sample_points(bundle.instance.metric, bundle.instance.density, 32)
        mean, spread = solve_mu(bundle.instance.metric, bundle.instance.density,
                                bundle.instance.params, bundle.lam, pts)
        target = -kappa * kappa / (2.0 * lam)
        assert abs(mean - target) < 1e-8 and spread < 1e-8
        worst_e = max(worst_e, rep.residual_Einstein)
        worst_mu = max(worst_mu, abs(mean - target))

    worst_fiber = 0.0
    for m in (2.2, 2.5, 3.0, 3.7):
        bundle = cat.make("neck_warped", m=m)
        rep = _report(bundle.instance, bundle.lam, 64, diagnostics=True)
        assert rep.fiber_be_residual < 1e-8, m
        worst_fiber = max(worst_fiber, rep.fiber_be_residual)

    inner = cat.make("neck_warped", m=3.0).instance.metric.fiber.metric
    worst_gauss = 0.0
    for x in (0.4, 1.0, 2.0, 4.0):
        got = ricci(inner, PointSpec(x)).tt
        want = 3.0 / (1.0 + x * x) ** 2
        worst_gauss = max(worst_gauss, abs(got - want))
    assert worst_gauss < 1e-6
    print(f"criterion 06: worst Einstein residual {worst_e:.2e}, constant "
          f"recovery {worst_mu:.2e}, neck fiber {worst_fiber:.2e}, "
          f"Gauss law {worst_gauss:.2e}")


def test_criterion_07_compact_positive_instances_collapse_to_space_forms():
    # 20 sphere draws transformed by their own density: the image density is
    # constant to 1e-10, the new scale equals lam (a^2 - b^2) to 1e-8, and
    # the classifier reports a positive space form.  Compactness with a
    # nonpositive scale is rejected as contradictory.
    rng = np.random.default_rng(707)
    worst_spread, worst_scale = 0.0, 0.0
    for _ in range(20):
        lam = float(rng.uniform(0.3, 1.2))
        a = float(rng.uniform(1.0, 2.5))
        b = float(rng.uniform(-0.8, 0.8)) * a
        bundle = cat.make("weighted_sphere", n=int(rng.integers(3, 5)),
                          m=float(rng.uniform(1.2, 3.0)), lam=lam, a=a, b=b)
        inst = bundle.instance
        hat = apply_conformal(inst, inst.density.v).instance
        target = lam * (a * a - b * b)
        assert target > 0.0
        pts = sample_points(hat.metric, hat.density, 48)
        est = float(np.mean([
            point_fields(hat.metric, hat.density, hat.params, pts.at(i)).p.trace()
            / hat.params.n for i in range(0, len(pts), 6)]))
        assert abs(est - target) < 1e-8
        rep = einstein_residuals(hat.metric, hat.density, hat.params,
                                 target, pts, with_diagnostics=False)
        assert rep.v_spread < 1e-10
        verdict = certify(hat, sample_points(hat.metric, hat.density, 160),
                          Thresholds(), {"lambda": target}).verdict
        assert verdict.global_branch == "SpaceForm"
        assert verdict.local == "Trivial"
        worst_spread = max(worst_spread, rep.v_spread)
        worst_scale = max(worst_scale, abs(est - target))

    for name in ("weighted_hyperbolic", "weighted_euclidean"):
        bundle = cat.make(name)
        forged = dataclasses.replace(bundle.instance, compact=True)
        verdict = certify(forged, sample_points(forged.metric, forged.density, 64),
                          Thresholds(), {"lambda": bundle.lam}).verdict
        assert verdict.global_branch == "ContradictionError"
    print(f"criterion 07: worst image density spread {worst_spread:.2e}, "
          f"scale error {worst_scale:.2e} over 20 draws")


def test_criterion_08_exact_curvature_matches_coordinate_oracle():
    # 20 random warped metrics in dimensions 3 and 4: the exact-jet Ricci
    # tensor agrees with the embedded finite-difference oracle to 1e-5
    # relative in the orthonormal frame.
    rng = np.random.default_rng(808)
    worst = 0.0
    for n in (3, 4):
        for _ in range(10):
            metric = random_warped_metric(rng, n)
            chart = CoordinateChart(metric)
            for _ in range(2):
                pt = PointSpec(float(rng.uniform(-1.2, 1.2)), 0.8)
                r = ricci(metric, pt)
                pred = np.diag([r.tt] + [r.blocks[0]] * (chart.n - 1))
                got = ricci_fd(chart, chart.embed(pt))
                rel = float(np.max(np.abs(got - pred))
                            / max(1.0, np.max(np.abs(pred))))
                assert rel < 1e-5, n
                worst = max(worst, rel)
    print(f"criterion 08: worst relative Ricci deviation {worst:.2e} "
          f"over 20 metrics")


def test_criterion_09_jet_engine_matches_finite_differences():
    # 100 random expression trees: second-order jets agree with central
    # finite differences to 1e-5 relative at randomly drawn points.
    worst = jet_vs_finite_difference(n_trees=100, seed=909)
    assert worst < 1e-5
    print(f"criterion 09: worst jet deviation {worst:.2e} over 100 trees")


def test_criterion_10_unit_weight_makes_the_constant_inert():
    # At weight m = 1 every report field is bitwise identical for any value
    # of the characteristic constant: the constant never enters the path.
    cases = [
        ("weighted_sphere", {"m": 1.0}),
        ("weighted_euclidean", {"m": 1.0}),
        ("weighted_hyperbolic", {"m": 1.0}),
        ("exponential_warped", {"m": 1.0}),
        ("skew_sphere_density", {"m": 1.0}),
        ("constant_density", {"m": 1.0, "mu": 0.3}),
    ]
    fields = ("be_tt", "be_blocks", "be_mixed", "rho_dev", "qe_dev", "p_dev",
              "tau_f", "j_f", "kappa", "v", "sec_dev")
    for name, overrides in cases:
        bundle = cat.make(name, **overrides)
        inst = bundle.instance
        pts = sample_points(inst.metric, inst.density, 24)
        reports = []
        for mu in (0.0, 0.7, -1.3):
            params = dataclasses.replace(inst.params, mu=mu)
            reports.append(einstein_residuals(inst.metric, inst.density,
                                              params, bundle.lam, pts))
        base = reports[0]
        for other in reports[1:]:
            for fieldname in fields:
                assert (getattr(base, fieldname).tobytes()
                        == getattr(other, fieldname).tobytes()), (name, fieldname)
    print(f"criterion 10: {len(cases)} unit-weight families bitwise "
          f"independent of the constant")
