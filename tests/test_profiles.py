"""Expression parsing, domain handling, grids, finite differences and the
profile protocol."""

import math

import numpy as np
import pytest

import smmskit.catalog as cat
from smmskit.conformal import ConformalMap, ReparamProfile
from smmskit.errors import DomainError, EvalError, PositivityError
from smmskit.odes import neck_profile
from smmskit.profiles import (
    Interval,
    Profile1D,
    finite_diff_jet,
    parse_expression,
    sample_grid,
)

IV = Interval(-3.0, 3.0)


def test_parse_values_and_precedence():
    cases = {
        "2 + 3 * t ** 2": lambda t: 2 + 3 * t ** 2,
        "-t**2": lambda t: -(t ** 2),
        "2*t - (-t)": lambda t: 3 * t,
        "sin(0.5*t)/0.5": lambda t: math.sin(0.5 * t) / 0.5,
        "(1 + t)**2 / (2 + cos(t))": lambda t: (1 + t) ** 2 / (2 + math.cos(t)),
    }
    for expr, fn in cases.items():
        p = Profile1D.from_string(expr, IV)
        for t in (-1.3, 0.2, 2.0):
            assert p.value(t) == pytest.approx(fn(t), rel=1e-14), expr


def test_to_string_round_trip_is_exact():
    exprs = ["2 + 3*t", "sin(0.5*t)/0.5", "(1 + t)**2 / (2 + cos(t))",
             "-exp(0.3*t) + t**3", "sqrt(1.5 + t**2)"]
    for expr in exprs:
        p = Profile1D.from_string(expr, IV)
        q = Profile1D.from_string(p.to_string(), IV)
        for t in np.linspace(-2.5, 2.5, 7):
            assert p.value(float(t)) == q.value(float(t)), expr


def test_parse_rejects_malformed_input():
    for bad in ("2**", "sin(", "t + * 2", "foo(t)", "", ")("):
        with pytest.raises(EvalError):
            parse_expression(bad)


def test_profile_jet_matches_hand_values():
    # density of the rotationally symmetric sphere family:
    # v = A + B cos(w t) with w = sqrt(2 lam), lam = 1/2, A = 2, B = 1
    iv = Interval(0.0, math.pi)
    v = Profile1D.from_string("2 + cos(t)", iv)
    j = v.jet(math.pi / 2)
    assert j.value == pytest.approx(2.0, abs=1e-12)
    assert j.d1 == pytest.approx(-1.0, abs=1e-12)
    assert j.d2 == pytest.approx(0.0, abs=1e-12)


def test_constant_detection():
    assert Profile1D.from_string("3.5", IV).is_constant()
    assert not Profile1D.from_string("t", IV).is_constant()
    assert not Profile1D.from_string("cos(t)", IV).is_constant()


def test_interval_membership_and_closed_endpoints():
    open_iv = Interval(0.0, 1.0)
    assert open_iv.contains(0.5)
    assert not open_iv.contains(0.0)
    with pytest.raises(DomainError):
        open_iv.require(0.0)
    closed = Interval(0.0, 1.0, closed_lo=True, closed_hi=True)
    closed.require(0.0)
    closed.require(1.0)
    inf = Interval(0.0, math.inf)
    assert inf.contains(1e9)
    with pytest.raises(DomainError):
        inf.require(-1.0)
    for iv in (open_iv, closed, inf, Interval(-math.inf, math.inf)):
        assert not iv.contains(math.nan)


def test_value_outside_domain_raises():
    p = Profile1D.from_string("t", Interval(0.0, 1.0))
    with pytest.raises(DomainError):
        p.value(2.0)
    with pytest.raises(DomainError):
        p.jet(-0.5)


def test_eval_error_propagates_from_log():
    p = Profile1D.from_string("log(t - 2)", Interval(0.0, 5.0))
    assert p.value(3.0) == pytest.approx(0.0)
    with pytest.raises(EvalError):
        p.value(1.0)


def test_sample_grid_caps_infinite_windows():
    # half line: points fall in [margin * cap, cap], strictly interior
    g = sample_grid(Interval(0.0, math.inf), 5)
    assert g[0] == pytest.approx(0.5)
    assert g[-1] == pytest.approx(10.0)
    assert np.all(g > 0.0)
    g2 = sample_grid(Interval(-math.inf, math.inf), 7)
    assert np.all(np.abs(g2) <= 10.0)


def test_sample_grid_finite_window_margins():
    g = sample_grid(Interval(1.0, 2.0), 9)
    assert np.all(g > 1.0) and np.all(g < 2.0)
    assert g[0] == pytest.approx(1.05)
    assert g[-1] == pytest.approx(1.95)
    assert len(g) == 9


def test_check_positive():
    Profile1D.from_string("2 + sin(t)", IV).check_positive()
    with pytest.raises(PositivityError):
        Profile1D.from_string("sin(t)", Interval(0.0, 2.0 * math.pi)).check_positive()
    # cap keeps the scan finite on unbounded windows
    Profile1D.from_string("1 + t**2", Interval(0.0, math.inf)).check_positive()


def test_finite_diff_jet_frozen_cases():
    iv = Interval(-1.0, 1.0)
    c = Profile1D.from_string("cos(t)", iv)
    j = finite_diff_jet(c, 0.0)
    assert j.d2 == pytest.approx(-1.0, abs=1e-6)
    cube = Profile1D.from_string("t**3", Interval(0.0, 5.0))
    j3 = finite_diff_jet(cube, 2.0)
    assert j3.value == pytest.approx(8.0, abs=1e-5)
    assert j3.d1 == pytest.approx(12.0, abs=1e-5)
    assert j3.d2 == pytest.approx(12.0, abs=1e-5)


# ---------------------------------------------------------------------------
# the profile protocol, shared by every implementation

def _neck_fiber_warping():
    # a restricted derivative view: w' of the neck on the window [0.2, 6.0]
    return cat.make("neck_warped").instance.metric.fiber.metric.phi


def _reparam():
    u = Profile1D.from_string("1 + 0.3*t**2", IV)
    num = Profile1D.from_string("2 + sin(t)", IV)
    return ReparamProfile(ConformalMap(u, IV), num=num, den=u)


# name -> (factory, a point inside the domain, a point outside it)
PROTOCOL_CASES = {
    "expression": (lambda: Profile1D.from_string("2 + sin(t)", IV), 0.7, 3.5),
    "ode": (lambda: neck_profile(3.0, Interval(0.0, 6.0)), 1.3, 6.5),
    "derivative_view": (_neck_fiber_warping, 1.3, 0.1),
    "reparam": (_reparam, 0.5, 3.5),
}


@pytest.mark.parametrize("case", sorted(PROTOCOL_CASES))
def test_profile_protocol(case):
    make, inside, outside = PROTOCOL_CASES[case]
    prof = make()
    assert prof.value(inside) == prof.jet(inside).value
    for t in (outside, math.nan):
        for method in (prof.value, prof.jet):
            with pytest.raises(DomainError):
                method(t)
    prof.check_positive(samples=64)
    assert isinstance(prof.to_string(), str)
