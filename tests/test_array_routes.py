"""The array routes of ``jets``: powers and square roots in one C loop.

``jets.power`` runs ``np.float_power`` and ``jets.fmap(math.sqrt, ...)`` runs
``np.sqrt`` on an array, and both fall back to the scalar function entry by
entry where a result is not finite.  The tests here pin that an array result
is bitwise the scalar loop's, that a failing array raises the scalar loop's
first error with its text, and that the fallback does not run on the
catalog defaults.  If some numpy ever computes ``float_power`` or ``sqrt``
other than by the C library, the bitwise tests fail.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.jets as J
from smmskit.classify import classify_report
from smmskit.conformal import _NODES, _WEIGHTS
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
PER_ENTRY = {math.exp, math.log, math.sin, math.cos, math.sinh, math.cosh}


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
    assert np.float_power in loops


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
