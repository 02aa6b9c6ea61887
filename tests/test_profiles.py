"""Expression parsing, domain handling, grids, finite differences and the
profile protocol."""

import ast
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.profiles as profiles
from smmskit.conformal import ConformalMap, ReparamProfile
from smmskit.errors import DomainError, EvalError, PositivityError
from smmskit.jets import UNARY, Jet2
from smmskit.odes import neck_profile
from conftest import draw_bounded_profile
from float_profile import FloatProfile
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
    for bad in ("2**", "sin(", "t + * 2", "foo(t)", "", ")(",
                "1_0", "0x10", "1j", "t # c", "t if t else t", "t.real", "sin(*t)",
                "sin(t=1)", "True", "(" * 201 + "t" + ")" * 201):
        with pytest.raises(EvalError):
            parse_expression(bad)


@pytest.mark.parametrize("text, shown", [
    (" t ", "t"),
    ("t\n+ 1", "t + 1.0"),
    ("+t", "t"),
    ("t^+2", "t^2.0"),
    ("2*-t", "2.0 * (-t)"),
    ("-t^2", "-t^2.0"),
    ("(-t)^2", "(-t)^2.0"),
    ("2^-t^2", "2.0^(-t^2.0)"),
    ("e^t", "2.718281828459045^t"),
    ("pi*t", "3.141592653589793 * t"),
    ("007*t", "7.0 * t"),
    ("1.e5", "100000.0"),
    (".5*t", "0.5 * t"),
    ("t**2", "t^2.0"),
    ("sin(t)^2", "sin(t)^2.0"),
])
def test_parse_normalizes_the_grammar(text, shown):
    assert Profile1D.from_string(text, IV).to_string() == shown


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


# where a float division by an underflowed t**2 or t**1.5 raised
# ZeroDivisionError, the array division carries the infinity on: the jet
# fails its finiteness check, or (t^-2 = exp(-2 log t)) a later guard fires
CARRIED_INF = {
    ("log(t)", 1e-300): "profile jet not finite at t=1e-300",
    ("sqrt(t)", 1e-300): "profile jet not finite at t=1e-300",
    ("t^-2", 1e-300): "exp overflow at t=1e-300",
    ("t^t", 1e-300): "profile jet not finite at t=1e-300",
}


@pytest.mark.parametrize("expr, t, method", ARITHMETIC_FAILURES)
def test_arithmetic_errors_raise_eval_error_naming_t(expr, t, method):
    prof = Profile1D.from_string(expr, Interval(-1000.0, 1000.0))
    want = CARRIED_INF.get((expr, t), f"t={t}:")
    with pytest.raises(EvalError, match=re.escape(want)):
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
    return ReparamProfile(ConformalMap(u, IV), num=num)


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
    if isinstance(node, ast.Constant):
        return node.value if isinstance(x, float) else Jet2.constant(node.value)
    if isinstance(node, ast.Name):
        return x
    if isinstance(node, ast.UnaryOp):
        return -_walk(node.operand, x)
    if isinstance(node, ast.Call):
        fn, v = node.func.id, _walk(node.args[0], x)
        if isinstance(v, Jet2):
            return UNARY[fn](v)
        if fn in ("log", "sqrt") and v <= 0.0:
            raise EvalError(f"{fn} of nonpositive value {v!r}")
        if fn in ("exp", "sinh", "cosh") and v > 700.0:
            raise EvalError(f"{fn} overflow")
        return getattr(math, fn)(v)
    if isinstance(node.op, ast.Pow):
        b = _walk(node.left, x)
        if isinstance(node.right, ast.Constant):
            p = node.right.value
            if isinstance(b, float):
                if b == 0.0 and p < 0:
                    raise EvalError("zero base with negative exponent")
                if b < 0.0 and p != round(p):
                    raise EvalError("fractional power of a negative base")
            return b ** p
        e = _walk(node.right, x)
        if isinstance(b, Jet2):
            return UNARY["exp"](e * UNARY["log"](b))
        if b <= 0.0:
            raise EvalError("general power needs a positive base")
        prod = e * math.log(b)
        if prod > 700.0:
            raise EvalError("exp overflow in general power")
        return math.exp(prod)
    a, b = _walk(node.left, x), _walk(node.right, x)
    if isinstance(node.op, ast.Add):
        return a + b
    if isinstance(node.op, ast.Sub):
        return a - b
    if isinstance(node.op, ast.Mult):
        return a * b
    if isinstance(b, float) and b == 0.0:
        raise EvalError("division by zero")
    return a / b


def _expected(node, t, jet):
    """What Profile1D.value/.jet should give: repr, or (type, message)."""
    try:
        out = _walk(node, Jet2.variable(t) if jet else t)
    except ZeroDivisionError:
        return EvalError, ""  # an array carries inf on; the message names t
    except (OverflowError, ValueError):
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
        return ast.Constant(rng.choice(CONSTANTS))
    if kind == 1:
        seen.add("Var")
        return ast.Name("t")
    a = _random_tree(rng, depth - 1, seen)
    if kind < 6:
        op = (ast.Add, ast.Sub, ast.Mult, ast.Div)[kind - 2]()
        seen.add(type(op).__name__)
        return ast.BinOp(a, op, _random_tree(rng, depth - 1, seen))
    if kind == 6:
        seen.add("Neg")
        return ast.UnaryOp(ast.USub(), a)
    if kind == 7:
        seen.add("Pow const")
        return ast.BinOp(a, ast.Pow(), ast.Constant(rng.choice(EXPONENTS)))
    if kind == 8:
        seen.add("Pow general")
        return ast.BinOp(a, ast.Pow(), _random_tree(rng, depth - 1, seen))
    fn = rng.choice(FUNCTIONS)
    seen.add(fn)
    return ast.Call(ast.Name(fn), [a], [])


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
                    assert got[0] is EvalError and f"t={t}:" in got[1], prof.to_string()
                elif want == (EvalError, ""):
                    assert got[0] is EvalError and (
                        f"t={t}:" in got[1] or got[1].endswith(f" at t={t}")), \
                        prof.to_string()
                else:
                    assert got == want, (prof.to_string(), t, jet)
                outcomes.add("ok" if isinstance(want, str) else want[0].__name__)
    assert seen >= {"Const", "Var", "Add", "Sub", "Mult", "Div", "Neg", "Pow const",
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


def _same_as_loop(method, ts, reference=None):
    """method on the array ts gives bitwise what the scalar loop of
    reference (method itself when None) gives."""
    want = _scalar_loop(reference or method, ts)
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
        ref = FloatProfile(prof)
        for points in (ts, grid):
            assert _same_as_loop(prof.jet, points, ref.jet), prof.to_string()
            assert _same_as_loop(prof.value, points, ref.value), prof.to_string()


def test_array_errors_are_the_first_error_of_a_scalar_loop():
    # random trees at the parity points: where any point fails, the array
    # call raises the error of the first failing point, message included
    rng = random.Random(20252)
    whole_line = Interval(-math.inf, math.inf)
    ts = np.array(PARITY_POINTS)
    outcomes = set()
    for _ in range(400):
        prof = Profile1D(_random_tree(rng, rng.randrange(1, 5), set()), whole_line)
        ref = FloatProfile(prof)
        for method, reference in ((prof.value, ref.value), (prof.jet, ref.jet)):
            outcomes.add(_same_as_loop(method, ts, reference))
            outcomes.add(_same_as_loop(method, ts[::-1].copy(), reference))
    assert outcomes == {True, False}


@pytest.mark.parametrize("expr, ts, first_bad", [
    # the sqrt guard fires first in statement order, but at a later point
    ("sqrt(t - 1) + log(2 - t)", [2.5, 0.5, 1.5], 2.5),
    ("log(t - 1)", [2.0, 1.5, 0.5, 0.0], 0.5),
    ("1 / (t - 1)", [2.5, 2.0, 1.0, 0.0], 1.0),
])
def test_guard_mid_array_names_the_first_bad_point(expr, ts, first_bad):
    prof = Profile1D.from_string(expr, Interval(-3.0, 3.0))
    ref = FloatProfile(prof)
    ts = np.array(ts)
    for method, reference in ((prof.value, ref.value), (prof.jet, ref.jet)):
        with pytest.raises(EvalError, match=re.escape(f"at t={first_bad}")):
            method(ts)
        assert not _same_as_loop(method, ts, reference)


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
    ts = prof._nodes[0]
    nodes = np.concatenate((ts[150:450], ts[::97], ts[-1:]))
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


# ---------------------------------------------------------------------------
# catalog templates: parsed once, the tree of the formatted text

def _catalog_templates() -> list:
    """The first argument of every ``from_template`` call in catalog.py."""
    tree = ast.parse(Path(cat.__file__).read_text(encoding="utf-8"))
    return sorted({node.args[0].value for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                   == "from_template"})


TEMPLATE_VALUES = [0.7071067811865476, -0.5, 0.0, -0.0, 5e-324, -1e-05, 1e300, 2.5e-7,
                   1.0, 3]


def _outcome(build):
    try:
        prof = build()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return ast.dump(prof.node), prof.to_string(), prof._var


@pytest.mark.parametrize("template", _catalog_templates())
def test_template_profiles_are_the_formatted_texts(template):
    rng = random.Random(template)
    count = 1 + max(int(i) for i in re.findall(r"\{(\d+)\}", template))
    var = "s" if re.search(r"\bs\b", template) else "t"
    cases = [tuple(rng.choice(TEMPLATE_VALUES) for _ in range(count)) for _ in range(25)]
    cases += [(math.inf,) * count, (math.nan,) * count, (-math.inf,) + (1.0,) * (count - 1)]
    for values in cases:
        text = template.format(*map(repr, values))
        assert (_outcome(lambda: Profile1D.from_template(template, values, IV, var=var))
                == _outcome(lambda: Profile1D.from_string(text, IV, var=var))), text


def test_a_template_is_parsed_once_and_each_profile_keeps_its_constants(monkeypatch):
    parsed = []
    real = profiles.parse_expression

    def counted(text):
        parsed.append(text)
        return real(text)

    monkeypatch.setattr(profiles, "parse_expression", counted)
    template = "{0} + {1}*cos({2}*t) - {0}*t"  # a template no other test builds
    a = Profile1D.from_template(template, (1.2, -0.5, 0.75), IV, var="t")
    b = Profile1D.from_template(template, (2.0, 0.5, 1.5), IV, var="t")
    assert parsed == ["_0 + _1*cos(_2*t) - _0*t"]
    assert a.to_string() == "1.2 + (-0.5) * cos(0.75 * t) - 1.2 * t"
    assert b.to_string() == "2.0 + 0.5 * cos(1.5 * t) - 2.0 * t"
    assert a.value(1.0) == 1.2 + -0.5 * math.cos(0.75) - 1.2
    assert b.value(1.0) == 2.0 + 0.5 * math.cos(1.5) - 2.0
    Profile1D.from_template(template, (1.0, 2, 3.0), IV, var="t")  # an int: the text
    assert parsed[1:] == ["1.0 + 2*cos(3.0*t) - 1.0*t"]


def test_template_placeholder_as_a_power_base_is_refused():
    # "-0.5^2" is -(0.5^2), not the square of a negative value
    with pytest.raises(ValueError, match="base of a power"):
        Profile1D.from_template("{0}^2 + t", (0.5,), IV, var="t")
