"""The array routes of ``jets``: powers, square roots, sines and cosines in
one C loop each.

``jets.power`` runs ``np.float_power`` and ``jets.fmap`` runs ``np.sqrt``,
``np.sin`` and ``np.cos`` for ``math.sqrt``, ``math.sin`` and ``math.cos``
on an array, and all fall back to the scalar function entry by entry where
a result is not finite.  The tests here pin that an array result is bitwise
the scalar loop's, that a failing array raises the scalar loop's first
error with its text, and that the fallback does not run on the catalog
defaults.  If some numpy ever computes ``float_power``, ``sqrt``, ``sin`` or
``cos`` other than by the C library, the bitwise tests fail; one of them
runs again in a subprocess at the AVX2 dispatch, with a ``smms verify``
that must write its golden report byte for byte.  The jet rules call each
C-library function once, and a report's arrays are read-only.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
import smmskit.jets as J
from float_profile import FloatProfile
from smmskit.classify import classify_report
from smmskit.conformal import _NODES, _WEIGHTS
from smmskit.profiles import Interval, Profile1D, _code, _shape, _source
from smmskit.weighted import einstein_residuals, sample_points, solve_mu

ROOT = Path(__file__).resolve().parents[1]

# every exponent the package raises an array to: squares and cubes, the
# 1.5 of sqrt's ddu, inverse powers, and -m, -m-1, 1-m for densities w^-m
# and p-1, p-2 of a profile's t**p, over weights and profile exponents
_M = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5)
_P = (0.5, 1.5, 2.0, 2.5, 3.0, -0.5, -1.0, 1.0 / 3.0)
EXPONENTS = [2, 3, -1, -2] + sorted({
    2.0, 3.0, 1.5, -1.0, -2.0, *(-m for m in _M), *(-m - 1.0 for m in _M),
    *(1.0 - m for m in _M), *(p - 1 for p in _P), *(p - 2 for p in _P)})
INTEGER_EXPONENTS = [p for p in EXPONENTS if p == round(p)]


def _bases(rng, size=20_000):
    """Log-uniform over [1e-300, 1e130], with subnormals, zeros of both
    signs, 1 and the extremes of the float range."""
    x = 10.0 ** rng.uniform(-300.0, 130.0, size)
    specials = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 0.5, 1.0,
                1.7976931348623157e308]
    return np.concatenate([x, specials])


def _scalar_loop(fn, x):
    """Outcome of the scalar loop: the result array, or the first error's
    type and text."""
    try:
        return np.fromiter(map(fn, x.tolist()), float, x.size)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def _array_route(fn, x):
    try:
        out = fn(x)
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.flags.writeable and not np.may_share_memory(out, x)
    return out


def _same(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _finite_entries(x, p):
    """The entries of x whose scalar power is a finite float."""
    keep = []
    for a in x.tolist():
        try:
            r = a ** p
        except (OverflowError, ZeroDivisionError):
            continue
        if isinstance(r, float) and math.isfinite(r):
            keep.append(a)
    return np.array(keep)


@pytest.mark.parametrize("p", EXPONENTS)
def test_power_is_the_scalar_power_bitwise(p):
    rng = np.random.default_rng(2701)
    x = _finite_entries(_bases(rng), p)
    assert x.size > 5_000
    want = _scalar_loop(lambda a: a ** p, x)
    assert _same(_array_route(lambda v: J.power(v, p), x), want)


@pytest.mark.parametrize("p", INTEGER_EXPONENTS)
def test_power_of_negative_bases_is_the_scalar_power_bitwise(p):
    rng = np.random.default_rng(2702)
    x = -_finite_entries(_bases(rng), p)
    want = _scalar_loop(lambda a: a ** p, x)
    assert _same(_array_route(lambda v: J.power(v, p), x), want)


def test_square_root_is_math_sqrt_bitwise():
    rng = np.random.default_rng(2703)
    x = np.concatenate([_bases(rng), 10.0 ** rng.uniform(130.0, 308.0, 5_000), [0.0, -0.0]])
    want = _scalar_loop(math.sqrt, x)
    assert _same(_array_route(lambda v: J.fmap(math.sqrt, v), x), want)
    inside = (x > 1e-150) & (x < 1e150)  # where sqrt's jet is finite
    assert _same(J.UNARY["sqrt"](J.Jet2(x[inside], 1.0, 0.0)).value, want[inside])


def _sincos_arguments(rng) -> np.ndarray:
    """Log-uniform magnitudes of both signs up to 1e300 with subnormals,
    a dense stretch of [-50, 50], points within 1e-9 of multiples of pi/2,
    and the extremes of the float range."""
    size = 150_000
    wide = 10.0 ** rng.uniform(-320.0, 300.0, size) * rng.choice([-1.0, 1.0], size)
    near = np.concatenate([k * math.pi / 2 + rng.normal(0.0, 1e-9, 500)
                           for k in range(-60, 61)])
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
    return np.concatenate([wide, rng.uniform(-50.0, 50.0, size), near, specials])


def _views(x: np.ndarray):
    """Slices of x of lengths 1 to 1000: leading, offset, strided and
    reversed, as views into x."""
    for n in (1, 2, 3, 7, 8, 15, 16, 17, 63, 64, 65, 100, 1000):
        yield from (x[:n], x[1:n + 1], x[:2 * n:2], x[5:3 * n + 5:3][::-1])


def sincos_mismatches(seed: int) -> int:
    """Entries where np.sin or np.cos (through ``jets.fmap``) differs from
    the math loop, over ``_sincos_arguments`` whole and ``_views`` of it."""
    x = _sincos_arguments(np.random.default_rng(seed))
    bad = 0
    for fn in (math.sin, math.cos):
        for v in (x, *_views(x)):
            want = np.fromiter(map(fn, v.tolist()), float, v.size)
            bad += int((J.fmap(fn, v).view(np.int64) != want.view(np.int64)).sum())
    return bad


def test_sine_and_cosine_are_the_math_loop_bitwise():
    assert sincos_mismatches(2704) == 0


@pytest.mark.parametrize("fn", [math.sin, math.cos], ids=["sin", "cos"])
def test_sine_and_cosine_route_through_one_c_loop(fn, monkeypatch):
    x = _sincos_arguments(np.random.default_rng(2705))[:1000]
    loops, entries = [], []
    real_loop, real_entry = J._c_loop, J._per_entry

    def counted_loop(ufunc, f, v, *args):
        loops.append(ufunc)
        return real_loop(ufunc, f, v, *args)

    def counted_entry(f, v):
        entries.append(f)
        return real_entry(f, v)

    monkeypatch.setattr(J, "_c_loop", counted_loop)
    monkeypatch.setattr(J, "_per_entry", counted_entry)
    want = _scalar_loop(fn, x)
    assert _same(_array_route(lambda v: J.fmap(fn, v), x), want)
    assert loops == [{math.sin: np.sin, math.cos: np.cos}[fn]] and entries == []


@pytest.mark.parametrize("fn", [math.sin, math.cos], ids=["sin", "cos"])
@pytest.mark.parametrize("base", [[0.5, math.inf, 2.0], [0.5, -math.inf],
                                  [0.5, math.nan, math.inf], [math.nan, 1.0],
                                  [0.5, 1e300, math.nan]],
                         ids=["inf", "minus_inf", "nan_then_inf", "nan", "huge_then_nan"])
def test_sine_and_cosine_failures_are_the_scalar_loops(fn, base):
    # math.sin(inf) raises ValueError; math.sin(nan) is nan, which the
    # array route returns from the same loop
    x = np.array(base)
    want = _scalar_loop(fn, x)
    assert _same(_array_route(lambda v: J.fmap(fn, v), x), want)


def test_sine_and_cosine_at_the_avx2_dispatch(tmp_path):
    # numpy picks its SIMD kernels at import: with AVX-512 turned off it
    # runs its AVX2 ones, which must give the same bits, and a verify run
    # must write its golden report byte for byte
    config = tmp_path / "weighted_sphere.config.json"
    config.write_text(json.dumps(cat.make("weighted_sphere").config(k=64)), encoding="utf-8")
    report = tmp_path / "verify_weighted_sphere.json"
    code = (
        "import sys\n"
        "try:\n"
        "    from numpy._core._multiarray_umath import __cpu_features__\n"
        "except ImportError:  # numpy 1\n"
        "    from numpy.core._multiarray_umath import __cpu_features__\n"
        "from test_array_routes import sincos_mismatches\n"
        "import smmskit.cli\n"
        "print([f for f in ('X86_V4', 'AVX512_ICL', 'AVX512_SPR') if __cpu_features__.get(f)])\n"
        "print(sincos_mismatches(2704))\n"
        "sys.exit(smmskit.cli.main(sys.argv[1:]))\n")
    argv = ["verify", "--config", str(config), "--points", "64", "--out", str(report)]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    features, mismatches, *verify_out = proc.stdout.splitlines(keepends=True)
    assert features == "[]\n" and mismatches == "0\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv[:-2]) == 0
    assert "".join(verify_out) == out.getvalue()
    assert report.read_bytes() == (ROOT / "tests" / "golden" / report.name).read_bytes()


# Arrays whose failure (or non-finite result) sits at an entry i > 0.
FAILURES = [
    ("overflow", [2.0, 1e200, 3.0], 2.0),
    ("overflow odd", [2.0, -1e200, 3.0], 3),
    ("zero to a negative power", [2.0, 0.0, 3.0], -1.0),
    ("negative zero to a negative power", [2.0, -0.0], -2),
    ("subnormal to a negative power", [2.0, 5e-324], -2.0),
    ("negative base, fractional power", [2.0, -3.0, 4.0], 1.5),
    ("inf input", [2.0, math.inf, -math.inf], 2.0),
    ("nan input", [2.0, math.nan, 3.0], -1.0),
    ("nan to the zeroth power", [math.nan, 2.0], 0.0),
    ("first failure wins", [2.0, math.inf, 0.0, 1e200], -1.0),
]


@pytest.mark.parametrize("case, base, p", FAILURES, ids=[c[0] for c in FAILURES])
def test_power_failures_are_the_scalar_loops(case, base, p):
    x = np.array(base)
    want = _scalar_loop(lambda a: a ** p, x)
    assert _same(_array_route(lambda v: J.power(v, p), x), want)


@pytest.mark.parametrize("base", [[4.0, -1.0, 9.0], [4.0, math.inf], [4.0, math.nan, -1.0]])
def test_square_root_failures_are_the_scalar_loops(base):
    x = np.array(base)
    want = _scalar_loop(math.sqrt, x)
    assert _same(_array_route(lambda v: J.fmap(math.sqrt, v), x), want)


# The scalar functions that run entry by entry on purpose (no C loop gives
# libm's bits); any other function reaching the per-entry loop is a fallback.
PER_ENTRY = {math.exp, math.log, math.sinh, math.cosh}


def test_catalog_defaults_take_no_fallback(monkeypatch):
    calls = []
    real = J._per_entry

    def counted(fn, x):
        calls.append(fn)
        return real(fn, x)

    loops = []
    real_loop = J._c_loop

    def counted_loop(ufunc, fn, x, *args):
        loops.append(ufunc)
        return real_loop(ufunc, fn, x, *args)

    monkeypatch.setattr(J, "_per_entry", counted)
    monkeypatch.setattr(J, "_c_loop", counted_loop)
    for name in cat.available():
        bundle = cat.make(name)
        inst = bundle.instance
        pts = sample_points(inst.metric, inst.density, 500)
        rep = einstein_residuals(inst.metric, inst.density, inst.params, bundle.lam,
                                 pts, with_diagnostics=True)
        if inst.params.m != 1.0:
            solve_mu(inst.metric, inst.density, inst.params, bundle.lam, pts)
        classify_report(inst, bundle.lam, rep)
    assert [fn for fn in calls if fn not in PER_ENTRY] == []
    assert {np.float_power, np.sin, np.cos} <= set(loops)


def test_gauss_legendre_literals_are_leggauss():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(10)
    ulp = np.spacing(np.abs(nodes))
    assert (np.abs(_NODES - nodes) <= 2 * ulp).all()
    assert (np.abs(np.array(_WEIGHTS) - weights) <= 2 * np.spacing(weights)).all()
    for k in range(20):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        got = math.fsum(w * x ** k for w, x in zip(_WEIGHTS, _NODES.tolist()))
        assert abs(got - exact) <= 1e-15, k


def test_cli_import_loads_neither_numpy_polynomial_nor_scipy():
    code = ("import sys, smmskit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# one C-library call per rule, one source text per shape, read-only reports

def _counting_libm(monkeypatch, namespaces) -> Counter:
    """Counts the calls of each math function of the array namespace, and
    of ``_pow`` in each of the given namespaces."""
    calls = Counter()
    ns = J.ARRAY_NAMESPACE["math"]
    for name, fn in list(vars(ns).items()):
        def counted(x, name=name, fn=fn):
            calls[name] += 1
            return fn(x)
        monkeypatch.setattr(ns, name, counted)
    for namespace in namespaces:
        real_pow = namespace["_pow"]

        def counted_pow(x, p, real_pow=real_pow):
            calls["pow"] += 1
            return real_pow(x, p)
        monkeypatch.setitem(namespace, "_pow", counted_pow)
    return calls


# the C-library functions each rule calls, once each
LIBM_CALLS = {"exp": {"exp"}, "log": {"log", "pow"}, "sin": {"sin", "cos"},
              "cos": {"cos", "sin"}, "sinh": {"sinh", "cosh"},
              "cosh": {"cosh", "sinh"}, "sqrt": {"sqrt", "pow"}}


@pytest.mark.parametrize("name", sorted(J.UNARY_SOURCE))
def test_each_unary_rule_calls_each_libm_function_once(name, monkeypatch):
    # the rule on an array and on a float, and the compiled jet of a profile
    assert set(LIBM_CALLS) == set(J.UNARY_SOURCE)
    x = np.linspace(0.2, 1.7, 9)
    rule = J.UNARY[name]
    prof = Profile1D.from_string(f"{name}(t)", Interval(0.1, 2.0))
    compiled_jet = prof._compiled[1]
    runs = (lambda: rule(J.Jet2(x, 1.0, 0.0)), lambda: rule(J.Jet2(0.7, 1.0, 0.0)),
            lambda: J.Jet2(*compiled_jet(x)))
    calls = _counting_libm(monkeypatch, [rule.__globals__, compiled_jet.__globals__])
    jets = []
    for run in runs:
        calls.clear()
        jets.append(run())
        assert dict(calls) == {fn: 1 for fn in LIBM_CALLS[name]}
    monkeypatch.undo()
    # the same bits as the float reference, point by point
    loop = [FloatProfile(prof).jet(t) for t in x.tolist()]
    for part in ("value", "d1", "d2"):
        want = np.array([getattr(j, part) for j in loop])
        assert getattr(jets[0], part).tobytes() == want.tobytes()
        assert getattr(jets[2], part).tobytes() == want.tobytes()
        assert getattr(jets[1], part) == getattr(FloatProfile(prof).jet(0.7), part)


def test_profiles_of_one_shape_share_source_and_code():
    # constants and the variable's name do not enter the shape; a negative
    # constant does (it is a negation node)
    a = Profile1D.from_string("1.5 + 0.5*cos(2.0*t)", Interval(0.0, 3.0), var="t")
    b = Profile1D.from_string("2.5 + 0.25*cos(3.0*s)", Interval(0.0, 2.0), var="s")
    c = Profile1D.from_string("2.5 - 0.25*cos(3.0*t)", Interval(0.0, 2.0), var="t")
    shapes = [_shape(p.node, []) for p in (a, b, c)]
    assert shapes[0] == shapes[1] != shapes[2]
    assert _source(shapes[0]) is _source(shapes[1])
    assert _code(_source(shapes[0])) is _code(_source(shapes[1]))
    assert a._compiled[1].__code__ is b._compiled[1].__code__
    assert a._compiled[0].__code__ is b._compiled[0].__code__
    assert a._compiled[1].__code__ is not c._compiled[1].__code__
    assert (a.to_string(), b.to_string()) == ("1.5 + 0.5 * cos(2.0 * t)",
                                              "2.5 + 0.25 * cos(3.0 * s)")
    ts = np.linspace(0.1, 1.9, 7)
    for prof in (a, b):
        ref = FloatProfile(prof)
        assert prof.value(ts).tolist() == [ref.value(t) for t in ts.tolist()]
        jet = prof.jet(ts)
        assert jet.d2.tolist() == [ref.jet(t).d2 for t in ts.tolist()]
    assert a.value(ts).tolist() != b.value(ts).tolist()


def test_constants_are_the_trees_in_tree_order():
    consts = []
    shape = _shape(Profile1D.from_string("(2.0 - t^3.0) / exp(0.5*t) + pi",
                                         Interval(0.0, 1.0)).node, consts)
    assert consts == [2.0, 3.0, 0.5, math.pi]
    assert _source(shape).count("_c[3]") == 2  # once in value, once in jet
    assert "_c[4]" not in _source(shape)


@pytest.mark.parametrize("name", cat.available())
def test_report_arrays_are_read_only(name):
    bundle = cat.make(name)
    inst = bundle.instance
    pts = sample_points(inst.metric, inst.density, 37)
    rep = einstein_residuals(inst.metric, inst.density, inst.params, bundle.lam, pts,
                             with_diagnostics=True)
    arrays = {f: getattr(rep, f) for f in vars(rep)
              if isinstance(getattr(rep, f), np.ndarray)}
    assert {"p_dev", "kappa", "v", "tau_f", "be_blocks"} <= set(arrays)
    for field, arr in arrays.items():
        assert arr.shape[0] == len(pts), field
        if field == "be_blocks":  # stacked: a fresh array of the report's own
            continue
        assert not arr.flags.writeable, field
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
