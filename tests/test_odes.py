"""Characteristic second-order ODE: closed forms, RK4 trajectories, necks."""

import dataclasses
import math

import numpy as np
import pytest

import smmskit.catalog as cat
from conftest import left_to_right_mean
from smmskit.errors import DomainError, PositivityError
from smmskit.odes import (
    ObataSolution,
    fiber_obata_residual,
    first_integral_drift,
    neck_first_integral_drift,
    neck_profile,
    nu_identity_residual,
    ode_residual,
    rk4_integrate,
    xi_constant,
)
from smmskit.geometry import EinsteinFiber, FiberObataData
from smmskit.jets import Jet2
from smmskit.profiles import Interval, Profile1D, sample_grid

TS = np.linspace(0.15, 2.9, 12)


def test_closed_form_solutions_all_signs():
    cases = [(0.5, 1.6, -0.8, 0.35), (0.5, 0.0, 1.0, 0.0),
             (0.0, 1.4, 0.7, 1.2), (0.0, 0.6, 0.0, 2.0),
             (-0.5, 1.2, 0.9, 0.2), (-0.7, -0.4, 1.1, -0.3)]
    for lam, nu, a, b in cases:
        sol = ObataSolution.from_coefficients(lam, nu, a, b)
        assert ode_residual(sol, TS) < 1e-10, (lam, nu, a, b)
        assert first_integral_drift(sol, TS) < 1e-10
        assert nu_identity_residual(sol, TS) < 1e-9


def test_conserved_quantity_equals_reported_constant():
    # (2 nu u - u'^2 - 2 lam u^2) / 2 is constant and equals the derived level
    lam, nu, a, b = 0.5, 2.0, -1.0, 0.0
    sol = ObataSolution.from_coefficients(lam, nu, a, b)
    du = sol.derivative_profile()
    for t in TS:
        u = sol.profile.value(float(t))
        up = du.value(float(t))
        level = 0.5 * (2.0 * nu * u - up * up - 2.0 * lam * u * u)
        assert level == pytest.approx(sol.lam_hat, abs=1e-12)
    assert sol.lam_hat == pytest.approx(1.5, abs=1e-12)


def test_from_initial_matches_coefficients():
    lam, nu = -0.5, 1.3
    sol = ObataSolution.from_coefficients(lam, nu, 0.8, -0.2)
    j0 = sol.profile.jet(0.0)
    sol2 = ObataSolution.from_initial(lam, nu, j0.value, j0.d1)
    for t in (0.3, 1.1, 2.4):
        assert sol2.profile.value(t) == pytest.approx(sol.profile.value(t), rel=1e-12)
    assert sol2.lam_hat == pytest.approx(sol.lam_hat, rel=1e-12)


def test_derivative_profile_consistent_with_jets():
    sol = ObataSolution.from_coefficients(0.5, 1.0, 0.4, 0.6)
    du = sol.derivative_profile()
    for t in (0.2, 0.9, 2.1):
        assert du.value(t) == pytest.approx(sol.profile.jet(t).d1, rel=1e-12)


def test_rk4_first_integral_drift_frozen():
    # lam = 1/2, nu = 1 over [0, 10] at step 1e-3: drift below 1e-6
    lam, nu = 0.5, 1.0
    u0, du0 = 2.2, 0.4
    ts, ys = rk4_integrate(
        lambda t, w, dw: nu - 2.0 * lam * w, u0, du0, 0.0, 10.0, 1e-3)
    inv = 0.5 * (2.0 * nu * ys[:, 0] - ys[:, 1] ** 2 - 2.0 * lam * ys[:, 0] ** 2)
    drift = float(np.max(np.abs(inv - inv[0])))
    assert drift < 1e-6
    # and the trajectory tracks the closed form
    exact = ObataSolution.from_initial(lam, nu, u0, du0)
    errs = [abs(ys[i, 0] - exact.profile.value(float(ts[i])))
            for i in range(0, len(ts), 500)]
    assert max(errs) < 1e-6


def test_xi_constant_on_catalog_structures():
    bsk = cat.make("skew_sphere_density")
    mean, spread = xi_constant(bsk.instance.metric.phi, bsk.instance.density.alpha,
                               bsk.kappa, bsk.lam, TS[TS < 2.8])
    assert abs(mean) < 1e-12 and spread < 1e-12


def test_fiber_obata_residual_cases():
    bsk = cat.make("skew_sphere_density")
    assert fiber_obata_residual(bsk.instance.metric.fiber) < 1e-12
    # constant fiber eigenfunction with xi = -c v_N solves the equation exactly
    vn = Profile1D.constant(0.7, Interval(0.0, math.pi), var="t")
    fib = EinsteinFiber(2, 1.0, obata=FiberObataData(vn, -0.7, 1.0))
    assert fiber_obata_residual(fib) < 1e-14


def test_neck_profile_closed_form_m3():
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    for x in np.linspace(0.0, 6.0, 13):
        assert prof.value(float(x)) == pytest.approx(math.sqrt(1.0 + x * x),
                                                     abs=1e-10)
    # defining relation holds exactly on jets
    j = prof.jet(2.3)
    assert j.d2 == pytest.approx(1.0 * j.value ** (-3.0), rel=1e-13)


def test_neck_profile_frozen_values():
    # recorded from the vector RK4 stepper the scalar one replaced
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    frozen = {
        0.0: (1.0, 0.0, 1.0),
        0.7: (1.2206555615733543, 0.573462344363323, 0.5498200808852837),
        1.2345: (1.5887071001288864, 0.7770469458466114, 0.24938394491867952),
        4.0004: (4.1234936837589355, 0.9701482060603648, 0.014262773945670675),
        6.0: (6.0827625302982, 0.986393923832145, 0.0044432158731178084),
    }
    for t, (w, dw, ddw) in frozen.items():
        j = prof.jet(t)
        assert prof.value(t) == w
        assert (j.value, j.d1, j.d2) == (w, dw, ddw)


def test_neck_energy_is_conserved():
    for m in (2.2, 3.0, 3.7):
        prof = neck_profile(m, Interval(0.0, 10.0))
        ts = np.linspace(0.0, 10.0, 21)
        assert neck_first_integral_drift(prof, m, ts) < 1e-9


def test_derived_profile_tracks_parent():
    m = 3.0
    prof = neck_profile(m, Interval(0.0, 6.0))
    dprof = prof.derivative(
        lambda t, w, dw: -0.5 * m * (m - 1.0) * w ** (-m - 1.0) * dw, "neck'")
    for t in (0.5, 1.7, 4.2):
        j = prof.jet(t)
        dj = dprof.jet(t)
        assert dj.value == pytest.approx(j.d1, rel=1e-12)
        assert dj.d1 == pytest.approx(j.d2, rel=1e-12)
        # closed-form third derivative for m = 3: omega''' = -3 w^-4 w'
        assert dj.d2 == pytest.approx(-3.0 * j.value ** (-4.0) * j.d1, rel=1e-10)


def test_restricted_windows():
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    win = prof.restricted(0.2, 5.0)
    assert win.value(1.0) == prof.value(1.0)
    with pytest.raises(DomainError):
        win.value(5.5)
    with pytest.raises(DomainError):
        prof.restricted(0.2, 9.0)
    dprof = prof.derivative(lambda t, w, dw: -3.0 * w ** (-4.0) * dw, "neck'")
    dwin = dprof.restricted(0.2, 5.0)
    dwin.check_positive()
    # the unrestricted derivative vanishes at 0 and is not positive there
    with pytest.raises(PositivityError):
        dprof.check_positive()


# ---------------------------------------------------------------------------
# the diagnostics: one array pass, NaN never hidden


def _builtin_max_chain(devs):
    """The sup the diagnostics took point by point before: max from 0.0."""
    out = 0.0
    for d in devs:
        out = max(out, d)
    return out


def _solutions():
    return [ObataSolution.from_coefficients(*c)
            for c in ((0.5, 1.6, -0.8, 0.35), (0.0, 1.4, 0.7, 1.2), (-0.7, -0.4, 1.1, -0.3))]


def test_diagnostics_equal_the_scalar_loops_bitwise():
    for sol in _solutions():
        jets = [sol.profile.jet(float(t)) for t in TS]
        lam, nu, lh = sol.lam, sol.nu, sol.lam_hat
        assert ode_residual(sol, TS) == _builtin_max_chain(
            abs(j.d2 + 2.0 * lam * j.value - nu) for j in jets)
        assert first_integral_drift(sol, TS) == _builtin_max_chain(
            abs(j.d1 ** 2 + 2.0 * lam * j.value ** 2 - 2.0 * nu * j.value + 2.0 * lh)
            for j in jets)
        target = nu ** 2 - 4.0 * lam * lh
        assert nu_identity_residual(sol, TS) == _builtin_max_chain(
            abs(2.0 * lam * j.d1 ** 2 + (nu - 2.0 * lam * j.value) ** 2 - target)
            for j in jets)
    m = 3.0
    prof = neck_profile(m, Interval(0.0, 6.0))
    ts = np.linspace(0.0, 6.0, 31)
    assert neck_first_integral_drift(prof, m, ts) == _builtin_max_chain(
        abs(j.d1 ** 2 - 1.0 + j.value ** (1.0 - m))
        for j in (prof.jet(float(t)) for t in ts))
    bsk = cat.make("skew_sphere_density")
    phi, alpha = bsk.instance.metric.phi, bsk.instance.density.alpha
    ts = TS[TS < 2.8]
    xis = [alpha.jet(float(t)).d1 * phi.jet(float(t)).d1
           - (bsk.kappa - 2.0 * bsk.lam * alpha.jet(float(t)).value) * phi.jet(float(t)).value
           for t in ts]
    assert xi_constant(phi, alpha, bsk.kappa, bsk.lam, ts) == (
        left_to_right_mean(xis), max(xis) - min(xis))
    fiber = bsk.instance.metric.fiber
    ob = fiber.obata
    devs = []
    for s in sample_grid(ob.v_n.domain, 64, margin=0.02).tolist():
        j = ob.v_n.jet(s)
        target = -(ob.xi + ob.c * j.value)
        devs += [abs(j.d2 - target), abs(fiber.orth_hess_factor(s) * j.d1 - target)]
    assert fiber_obata_residual(fiber) == _builtin_max_chain(devs)


class _NanAt:
    """The wrapped profile, but its jet is NaN in every part at the point
    t_nan, on a float and at the entries of an array that equal it."""

    def __init__(self, inner, t_nan):
        self.inner = inner
        self.domain = inner.domain
        self.t_nan = float(t_nan)

    def is_constant(self):
        return False

    def jet(self, t):
        j = self.inner.jet(t)
        hit = t == self.t_nan
        return Jet2(*(np.where(hit, math.nan, p) if isinstance(t, np.ndarray)
                      else math.nan if hit else p for p in (j.value, j.d1, j.d2)))


def _middle(ts):
    return ts[len(ts) // 2]


@pytest.mark.parametrize("diagnostic", [ode_residual, first_integral_drift,
                                        nu_identity_residual])
def test_solution_diagnostics_propagate_nan(diagnostic):
    sol = _solutions()[0]
    assert diagnostic(sol, TS) < 1e-9
    poisoned = dataclasses.replace(sol, profile=_NanAt(sol.profile, _middle(TS)))
    assert math.isnan(diagnostic(poisoned, TS))


def test_xi_constant_propagates_nan():
    bsk = cat.make("skew_sphere_density")
    phi, alpha = bsk.instance.metric.phi, bsk.instance.density.alpha
    ts = TS[TS < 2.8]
    mean, spread = xi_constant(_NanAt(phi, _middle(ts)), alpha, bsk.kappa, bsk.lam, ts)
    assert math.isnan(spread)


def test_fiber_obata_residual_propagates_nan():
    fiber = cat.make("skew_sphere_density").instance.metric.fiber
    ob = fiber.obata
    s_nan = _middle(sample_grid(ob.v_n.domain, 64, margin=0.02))
    poisoned = EinsteinFiber(fiber.dim, fiber.beta, obata=FiberObataData(
        _NanAt(ob.v_n, s_nan), ob.xi, ob.c))
    assert math.isnan(fiber_obata_residual(poisoned))


def test_neck_first_integral_drift_propagates_nan():
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    ts = np.linspace(0.0, 6.0, 31)
    assert neck_first_integral_drift(prof, 3.0, ts) < 1e-9
    assert math.isnan(neck_first_integral_drift(_NanAt(prof, _middle(ts)), 3.0, ts))
