"""Characteristic second-order ODE: closed forms, RK4 trajectories, necks."""

import contextlib
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
import smmskit.odes as odes
from conftest import left_to_right_mean
from smmskit.errors import DomainError, EvalError, PositivityError
from smmskit.odes import (
    ObataSolution,
    _rk4_step,
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


@pytest.mark.parametrize("lam", [0.5, 0.0, -0.5])
def test_initial_data_and_derivative_profile_every_sign(lam):
    nu, u0, du0 = 1.3, 0.8, -0.2
    sol = ObataSolution.from_initial(lam, nu, u0, du0)
    j0 = sol.profile.jet(0.0)
    assert j0.value == pytest.approx(u0, abs=1e-12)
    assert j0.d1 == pytest.approx(du0, abs=1e-12)
    du = sol.derivative_profile()
    for t in (-0.7, 0.3, 1.1, 2.4):
        assert du.value(t) == pytest.approx(sol.profile.jet(t).d1, abs=1e-12)


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


def test_rk4_integrate_stores_the_float_steps_exactly():
    # the chained float steps, one list entry per node
    m, step, hi = 2.5, 1e-3, 1.2345

    def ddw(t, w, dw):
        return 0.5 * (m - 1.0) * w ** -m

    want_t, want_y, t, w, dw = [0.0], [(1.0, 0.0)], 0.0, 1.0, 0.0
    n = math.ceil(hi / step - 1e-12)
    for i in range(1, n + 1):
        w, dw = _rk4_step(ddw, t, w, dw, min(step, hi - t))
        t = i * step if i < n else hi
        want_t.append(t)
        want_y.append((w, dw))
    ts, ys = rk4_integrate(ddw, 1.0, 0.0, 0.0, hi, step)
    assert ts.tolist() == want_t and ts[-1] == hi
    assert [tuple(y) for y in ys.tolist()] == want_y


# ---------------------------------------------------------------------------
# one neck trajectory per (m, window end, step), shared read-only


def _fiber_density(bundle):
    return bundle.instance.density.v_n


@pytest.fixture
def integrations(monkeypatch):
    """The calls of odes.rk4_integrate from here on, with the neck cache empty."""
    calls = []
    real = odes.rk4_integrate
    monkeypatch.setattr(odes, "rk4_integrate",
                        lambda *args: calls.append(args) or real(*args))
    odes._neck_trajectory.cache_clear()
    return calls


def test_makes_with_one_key_share_one_trajectory(integrations):
    first = _fiber_density(cat.make("neck_warped", m=2.5))
    second = _fiber_density(cat.make("neck_warped", m=2.5, fiber_window=[0.5, 6.0]))
    assert all(a is b for a, b in zip(first._nodes, second._nodes))
    assert len(integrations) == 1
    # each of the three keys integrates again
    for change in ({"m": 2.2}, {"fiber_window": [0.2, 5.0]}, {"step": 2e-3}):
        other = _fiber_density(cat.make("neck_warped", **{"m": 2.5, **change}))
        assert other._nodes[0] is not first._nodes[0], change
    assert len(integrations) == 4
    # and an equal key given as an integer is the same key
    assert neck_profile(3, Interval(0.0, 6)).name == "neck(m=3)"
    assert neck_profile(3.0, Interval(0.0, 6.0))._nodes[0] is \
        neck_profile(3, Interval(0, 6))._nodes[0]
    assert len(integrations) == 5


def test_the_shared_trajectory_rejects_writes():
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    dprof = prof.derivative(lambda t, w, dw: -3.0 * w ** (-4.0) * dw, "neck'")
    for view in (prof, prof.restricted(0.2, 5.0), dprof):
        for part in view._nodes:
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0] = 2.0
    assert prof.value(0.0) == 1.0


def test_views_of_one_trajectory_keep_separate_memos():
    ts = np.linspace(0.0, 6.0, 41)
    one, two = neck_profile(3.0, Interval(0.0, 6.0)), neck_profile(3.0, Interval(0.0, 6.0))
    assert one is not two and one._nodes[0] is two._nodes[0]
    got = one.jet(ts)
    assert two._last == [None, None, None] and one._last[1] is not None
    again = two.jet(ts)
    assert again.value is not got.value
    assert (again.value.tobytes(), again.d1.tobytes(), again.d2.tobytes()) == \
        (got.value.tobytes(), got.d1.tobytes(), got.d2.tobytes())


def test_a_non_finite_ode_jet_raises_at_its_first_entry():
    # a derivative view whose closed-form w''' is not finite past t = 3
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    bad = prof.derivative(lambda t, w, dw: np.where(t > 3.0, math.inf, 0.0), "bad")
    ts = np.linspace(0.5, 5.5, 11)
    with pytest.raises(EvalError, match=r"^profile jet not finite at t=3\.5$"):
        bad.jet(ts)
    assert bad.jet(2.5).d2 == 0.0
    assert bad.value(ts).tolist() == prof.jet(ts).d1.tolist()


def test_check_positive_on_a_window_that_reaches_zero():
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    dprof = prof.derivative(lambda t, w, dw: -3.0 * w ** (-4.0) * dw, "neck'")
    # w' = 0 at t = 0, the first node and the window's lower end
    with pytest.raises(PositivityError, match=r"profile neck' reaches 0\.0$"):
        dprof.check_positive()
    with pytest.raises(PositivityError, match=r"reaches 0\.0$"):
        dprof.restricted(0.0, 4e-4).check_positive()
    # a window narrower than one step holds no node: only its ends count
    dprof.restricted(0.2001, 0.2004).check_positive()
    prof.check_positive()


def test_verify_neck_twice_in_one_process_matches_golden(tmp_path):
    golden = Path(__file__).resolve().parent / "golden" / "verify_neck_warped.json"
    config = tmp_path / "neck.json"
    config.write_text(json.dumps(cat.make("neck_warped").config(k=64)), encoding="utf-8")
    odes._neck_trajectory.cache_clear()
    for run in ("cold", "cache hit"):
        out = tmp_path / f"{run}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--config", str(config), "--points", "64",
                      "--out", str(out)])
        assert out.read_bytes() == golden.read_bytes(), run
    assert odes._neck_trajectory.cache_info().misses == 1


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
