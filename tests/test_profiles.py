"""Expression parsing, domain handling, grids, finite differences and the
profile protocol."""

import math
import random
import re

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.profiles as P
from smmskit.conformal import ConformalMap, ReparamProfile
from smmskit.errors import DomainError, EvalError, PositivityError
from smmskit.jets import UNARY, Jet2
from smmskit.odes import neck_profile
from conftest import draw_bounded_profile
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


# (expression, point, method): each raised OverflowError, ZeroDivisionError
# or, for sin and cos of an infinite intermediate, ValueError
ARITHMETIC_FAILURES = [
    ("cosh(t)", -900.0, "value"),   # the overflow guards test only t > 700
    ("cosh(t)", -900.0, "jet"),
    ("sinh(t)", -900.0, "value"),
    ("log(t)", 1e-300, "jet"),      # d2 divides by t**2, which underflows
    ("sqrt(t)", 1e-300, "jet"),     # d2 divides by t**1.5, which underflows
    ("t^-2", 1e-300, "jet"),
    ("t^t", 1e-300, "jet"),
    ("t^0.5", 1e-300, "jet"),       # t**-1.5 overflows
    ("sin(1e999*t)", 0.5, "value"),
    ("sin(1e999*t)", 0.5, "jet"),
    ("cos(1e999*t)", 0.5, "value"),
    ("cos(1e999*t)", 0.5, "jet"),
]


@pytest.mark.parametrize("expr, t, method", ARITHMETIC_FAILURES)
def test_arithmetic_errors_raise_eval_error_naming_t(expr, t, method):
    prof = Profile1D.from_string(expr, Interval(-1000.0, 1000.0))
    with pytest.raises(EvalError, match=re.escape(f"t={t}:")):
        getattr(prof, method)(t)


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


# ---------------------------------------------------------------------------
# compiled profiles against a reference tree walk

def _walk(node, x):
    """The tree walk compiled profiles replace: floats, or Jet2 from Jet2.variable."""
    if isinstance(node, P.Const):
        return node.c if isinstance(x, float) else Jet2.constant(node.c)
    if isinstance(node, P.Var):
        return x
    if isinstance(node, P.Neg):
        return -_walk(node.a, x)
    if isinstance(node, P.Call):
        v = _walk(node.a, x)
        if isinstance(v, Jet2):
            return UNARY[node.fn](v)
        if node.fn in ("log", "sqrt") and v <= 0.0:
            raise EvalError(f"{node.fn} of nonpositive value {v!r}")
        if node.fn in ("exp", "sinh", "cosh") and v > 700.0:
            raise EvalError(f"{node.fn} overflow")
        return getattr(math, node.fn)(v)
    if isinstance(node, P.Pow):
        b = _walk(node.base, x)
        if isinstance(node.expo, P.Const):
            p = node.expo.c
            if isinstance(b, float):
                if b == 0.0 and p < 0:
                    raise EvalError("zero base with negative exponent")
                if b < 0.0 and p != round(p):
                    raise EvalError("fractional power of a negative base")
            return b ** p
        e = _walk(node.expo, x)
        if isinstance(b, Jet2):
            return UNARY["exp"](e * UNARY["log"](b))
        if b <= 0.0:
            raise EvalError("general power needs a positive base")
        prod = e * math.log(b)
        if prod > 700.0:
            raise EvalError("exp overflow in general power")
        return math.exp(prod)
    a, b = _walk(node.l, x), _walk(node.r, x)
    if isinstance(node, P.Add):
        return a + b
    if isinstance(node, P.Sub):
        return a - b
    if isinstance(node, P.Mul):
        return a * b
    if isinstance(b, float) and b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _expected(node, t, jet):
    """What Profile1D.value/.jet should give: repr, or (type, message)."""
    try:
        out = _walk(node, Jet2.variable(t) if jet else t)
    except (OverflowError, ZeroDivisionError, ValueError):
        return EvalError, None  # the message names t
    except EvalError as exc:  # a guard of the tree; the profile names t
        return EvalError, f"{exc} at t={t}"
    except Exception as exc:
        return type(exc), str(exc)
    if jet and not all(map(math.isfinite, (out.value, out.d1, out.d2))):
        return EvalError, f"profile jet not finite at t={t}"
    if not jet and not math.isfinite(out):
        return EvalError, f"profile evaluated to {out!r} at t={t}"
    return repr(out)


def _observed(method, t):
    try:
        return repr(method(t))
    except Exception as exc:
        return type(exc), str(exc)


FUNCTIONS = tuple(UNARY)
CONSTANTS = (-2.5, -0.5, 0.0, 1e999, 0.5, 2.0, 750.0)
EXPONENTS = (-2.0, -1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 1e999)
PARITY_POINTS = (0.0, -0.0, 1e-300, 800.0, -800.0, 0.5, -1.3, 2.7)


def _random_tree(rng, depth, seen):
    kind = rng.randrange(10) if depth > 0 else rng.randrange(2)
    if kind == 0:
        seen.add("Const")
        return P.Const(rng.choice(CONSTANTS))
    if kind == 1:
        seen.add("Var")
        return P.Var("t")
    a = _random_tree(rng, depth - 1, seen)
    if kind < 6:
        cls = (P.Add, P.Sub, P.Mul, P.Div)[kind - 2]
        seen.add(cls.__name__)
        return cls(a, _random_tree(rng, depth - 1, seen))
    if kind == 6:
        seen.add("Neg")
        return P.Neg(a)
    if kind == 7:
        seen.add("Pow const")
        return P.Pow(a, P.Const(rng.choice(EXPONENTS)))
    if kind == 8:
        seen.add("Pow general")
        return P.Pow(a, _random_tree(rng, depth - 1, seen))
    fn = rng.choice(FUNCTIONS)
    seen.add(fn)
    return P.Call(fn, a)


def test_compiled_profiles_match_the_tree_walk_bitwise():
    rng = random.Random(20251)
    seen = set()
    whole_line = Interval(-math.inf, math.inf)
    outcomes = set()
    for _ in range(400):
        node = _random_tree(rng, rng.randrange(1, 5), seen)
        prof = Profile1D(node, whole_line)
        for t in PARITY_POINTS:
            for jet, method in ((False, prof.value), (True, prof.jet)):
                want, got = _expected(node, t, jet), _observed(method, t)
                if want == (EvalError, None):
                    assert got[0] is EvalError and f"t={t}:" in got[1], node.to_str()
                else:
                    assert got == want, (node.to_str(), t, jet)
                outcomes.add("ok" if isinstance(want, str) else want[0].__name__)
    assert seen >= {"Const", "Var", "Add", "Sub", "Mul", "Div", "Neg", "Pow const",
                    "Pow general", *FUNCTIONS}
    assert {"ok", "EvalError"} <= outcomes


# ---------------------------------------------------------------------------
# array evaluation against scalar evaluation

def _scalar_loop(method, ts):
    """A loop of scalar calls: the results, or the first error (type, message)."""
    out = []
    for t in ts.tolist():
        try:
            out.append(method(t))
        except Exception as exc:
            return type(exc), str(exc)
    return out


def _same_as_loop(method, ts):
    """method on the array ts gives bitwise what the scalar loop gives."""
    want = _scalar_loop(method, ts)
    try:
        got = method(ts)
    except Exception as exc:
        assert (type(exc), str(exc)) == want
        return False
    assert isinstance(want, list), want
    if isinstance(got, Jet2):
        got = list(zip(got.value.tolist(), got.d1.tolist(), got.d2.tolist()))
        want = [(j.value, j.d1, j.d2) for j in want]
    else:
        got = got.tolist()
    assert repr(got) == repr(want)
    return True


def test_array_jets_match_scalar_jets_on_criterion_09_trees():
    # the draws of criterion 09 (seed 909): each tree at its ten probe
    # points and on a grid across the window, as arrays and point by point
    rng = np.random.default_rng(909)
    iv = Interval(-1.5, 1.5)
    grid = np.linspace(-1.45, 1.45, 59)
    for _ in range(100):
        prof = draw_bounded_profile(rng, iv)
        ts = rng.uniform(-1.2, 1.2, size=10)
        for points in (ts, grid):
            assert _same_as_loop(prof.jet, points), prof.to_string()
            assert _same_as_loop(prof.value, points), prof.to_string()


def test_array_errors_are_the_first_error_of_a_scalar_loop():
    # random trees at the parity points: where any point fails, the array
    # call raises the error of the first failing point, message included
    rng = random.Random(20252)
    whole_line = Interval(-math.inf, math.inf)
    ts = np.array(PARITY_POINTS)
    outcomes = set()
    for _ in range(400):
        prof = Profile1D(_random_tree(rng, rng.randrange(1, 5), set()), whole_line)
        for method in (prof.value, prof.jet):
            outcomes.add(_same_as_loop(method, ts))
            outcomes.add(_same_as_loop(method, ts[::-1].copy()))
    assert outcomes == {True, False}


@pytest.mark.parametrize("expr, ts, first_bad", [
    # the sqrt guard fires first in statement order, but at a later point
    ("sqrt(t - 1) + log(2 - t)", [2.5, 0.5, 1.5], 2.5),
    ("log(t - 1)", [2.0, 1.5, 0.5, 0.0], 0.5),
    ("1 / (t - 1)", [2.5, 2.0, 1.0, 0.0], 1.0),
])
def test_guard_mid_array_names_the_first_bad_point(expr, ts, first_bad):
    prof = Profile1D.from_string(expr, Interval(-3.0, 3.0))
    ts = np.array(ts)
    for method in (prof.value, prof.jet):
        with pytest.raises(EvalError, match=re.escape(f"at t={first_bad}")):
            method(ts)
        assert not _same_as_loop(method, ts)


def test_interval_require_names_the_first_bad_entry():
    iv = Interval(0.0, 1.0, closed_lo=True)
    iv.require(np.array([0.0, 0.5, 0.999]))
    for ts, bad in (([0.5, math.nan, 2.0], "nan"), ([0.5, 1.0, math.nan], "1.0"),
                    ([-0.1, 0.5], "-0.1"), ([0.5, math.inf], "inf")):
        with pytest.raises(DomainError, match=re.escape(f"point {bad} outside")):
            iv.require(np.array(ts))
    prof = Profile1D.from_string("t", iv)
    with pytest.raises(DomainError, match="point nan outside"):
        prof.jet(np.array([0.5, math.nan]))


def test_ode_profiles_match_scalar_evaluation_bitwise():
    prof = neck_profile(3.0, Interval(0.0, 6.0))
    nodes = np.array(prof._ts[150:450] + prof._ts[::97] + [prof._ts[-1]])
    between = np.linspace(0.0, 6.0, 301)[1:-1] + 1.7e-4
    # one ulp below a node, (t - t0) / step can round up to the node's index
    below = np.nextafter(nodes, -1.0)
    for ode in (prof, _neck_fiber_warping()):
        lo, hi = ode.domain.lo, ode.domain.hi
        inside = lambda x: x[(x >= lo) & (x <= hi)]  # noqa: E731
        for ts in (np.array([lo, hi]), inside(nodes), inside(between), inside(below)):
            assert len(ts) >= 2
            assert _same_as_loop(ode.jet, ts)
            assert _same_as_loop(ode.value, ts)


def test_reparam_profile_matches_scalar_evaluation_bitwise():
    prof = _reparam()
    ts = np.linspace(prof.domain.lo, prof.domain.hi, 23)[1:-1]
    assert _same_as_loop(prof.jet, ts)
    assert _same_as_loop(prof.value, ts)
