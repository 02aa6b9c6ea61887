"""Shared helpers for the test suite.

Deterministic random draws used by several modules: expression trees for the
jet-vs-finite-difference comparison, positive conformal factors, and random
warped-product metrics for the coordinate oracle cross-check; and a NaN
injection into the weighted kernel for the fail-closed tests.
"""

import math

import numpy as np

import smmskit.weighted as weighted
from smmskit.conformal import ReparamProfile
from smmskit.errors import DomainError, EvalError, PositivityError
from smmskit.geometry import SpaceForm, Tensor2Blocks, WarpedMetric
from smmskit.profiles import Interval, Profile1D, finite_diff_jet

UNARY_FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh", "sqrt", "log")


def random_expression(rng, depth):
    """Random expression string in t, guarded so evaluation stays finite."""
    if depth <= 0 or rng.random() < 0.28:
        if rng.random() < 0.55:
            return "t"
        return repr(round(float(rng.uniform(0.3, 2.2)), 4))
    kind = int(rng.integers(0, 7))
    if kind == 0:
        return f"({random_expression(rng, depth - 1)} + {random_expression(rng, depth - 1)})"
    if kind == 1:
        return f"({random_expression(rng, depth - 1)} - {random_expression(rng, depth - 1)})"
    if kind == 2:
        return f"({random_expression(rng, depth - 1)} * {random_expression(rng, depth - 1)})"
    if kind == 3:
        # denominator bounded away from zero
        c = repr(round(float(rng.uniform(0.8, 2.0)), 4))
        return (f"({random_expression(rng, depth - 1)} / "
                f"({c} + ({random_expression(rng, depth - 1)})**2))")
    if kind == 4:
        return f"({random_expression(rng, depth - 1)})**{int(rng.integers(2, 4))}"
    if kind == 5:
        return f"(-{random_expression(rng, depth - 1)})"
    fn = UNARY_FUNCTIONS[int(rng.integers(0, len(UNARY_FUNCTIONS)))]
    inner = random_expression(rng, depth - 1)
    if fn in ("sqrt", "log"):
        c = repr(round(float(rng.uniform(0.6, 1.5)), 4))
        inner = f"({c} + ({inner})**2)"
    elif fn in ("exp", "sinh", "cosh"):
        # bounded argument keeps growth and cancellation under control
        inner = f"sin({inner})"
    return f"{fn}({inner})"


def draw_bounded_profile(rng, interval, depth=3, bound=30.0, tries=400):
    """Random expression whose jets stay below `bound` on the interval."""
    probes = np.linspace(interval.lo + 0.1, interval.hi - 0.1, 7)
    for _ in range(tries):
        expr = random_expression(rng, depth)
        prof = Profile1D.from_string(expr, interval)
        try:
            jets = [prof.jet(float(t)) for t in probes]
        except (EvalError, DomainError, OverflowError, ValueError):
            continue
        mags = [max(abs(j.value), abs(j.d1), abs(j.d2)) for j in jets]
        if all(math.isfinite(v) for v in mags) and max(mags) < bound:
            return prof
    raise AssertionError("could not draw a bounded random profile")


def jet_vs_finite_difference(n_trees, seed, tol=1e-5):
    """Compare exact jets against finite differences on random trees.

    Returns the worst relative deviation over value, first and second
    derivative across `n_trees` random expressions, each probed at 10 points.
    """
    rng = np.random.default_rng(seed)
    iv = Interval(-1.5, 1.5)
    worst = 0.0
    for _ in range(n_trees):
        prof = draw_bounded_profile(rng, iv)
        ts = rng.uniform(-1.2, 1.2, size=10)
        for t in ts:
            exact = prof.jet(float(t))
            approx = finite_diff_jet(prof, float(t))
            for a, b in ((exact.value, approx.value), (exact.d1, approx.d1),
                         (exact.d2, approx.d2)):
                worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        assert worst < tol, f"jet mismatch {worst:.3e} for {prof.to_string()}"
    return worst


def random_warped_metric(rng, n):
    """Positive affine-plus-sine warping over a constant-curvature fiber."""
    c0 = float(rng.uniform(1.4, 2.4))
    c1 = float(rng.uniform(-0.15, 0.15))
    amp = float(rng.uniform(0.1, 0.4))
    w = float(rng.uniform(0.4, 1.3))
    iv = Interval(-2.0, 2.0)
    phi = Profile1D.from_string(f"{c0!r} + {c1!r}*t + {amp!r}*sin({w!r}*t)", iv)
    kcur = (0.0, 1.0, -0.5, 0.7)[int(rng.integers(0, 4))]
    return WarpedMetric(iv, phi, SpaceForm(n - 1, kcur))


def draw_positive_factor(rng, interval, tries=50):
    """Random positive radial conformal factor on (a capped view of) interval."""
    lo = max(interval.lo, -10.0)
    hi = min(interval.hi, 10.0)
    infinite = not (math.isfinite(interval.lo) and math.isfinite(interval.hi))
    for _ in range(tries):
        q0 = float(rng.uniform(0.9, 1.8))
        if infinite:
            q1 = float(rng.uniform(0.0, 0.15))
            q2 = float(rng.uniform(0.0, 0.05))
        else:
            q1 = float(rng.uniform(-0.12, 0.12))
            q2 = float(rng.uniform(-0.04, 0.06))
        expr = f"{q0!r} + {q1!r}*(t - {lo!r}) + {q2!r}*(t - {lo!r})**2"
        u = Profile1D.from_string(expr, interval)
        try:
            u.check_positive(samples=512)
        except PositivityError:
            continue
        return u
    raise AssertionError("could not draw a positive conformal factor")


def interior_points(interval, k, frac=0.08):
    """Evenly spaced base-coordinate probes strictly inside a capped window."""
    lo = max(interval.lo, -10.0)
    hi = min(interval.hi, 10.0)
    span = hi - lo
    return [float(t) for t in np.linspace(lo + frac * span, hi - frac * span, k)]


def left_to_right_mean(values) -> float:
    """Mean of a list of floats summed from 0.0 in list order, the order the
    report means use on every Python (the builtin sum compensates from 3.12
    on, so it is no reference there)."""
    total = 0.0
    for x in values:
        total += x
    return total / len(values)


def poison_ricci_at(monkeypatch, t, component):
    """Make the weighted kernel's Ricci input NaN in one component at base point t.

    component 0 is the tt entry, i >= 1 the (i-1)-th fiber block.  On a grid
    point (coordinate arrays) every entry with base coordinate t is hit.
    Points of conformally transformed metrics are left alone.
    """
    real = weighted.ricci

    def poisoned(metric, point):
        rho = real(metric, point)
        hit = point.t == t  # a bool, or a bool array on a grid point
        if not np.any(hit) or isinstance(metric.phi, ReparamProfile):
            return rho
        comps = [rho.tt, *rho.blocks]
        comps[component] = (np.where(hit, math.nan, comps[component])
                            if np.ndim(hit) else math.nan)
        return Tensor2Blocks(rho.structure, comps[0], tuple(comps[1:]), rho.mixed)

    monkeypatch.setattr(weighted, "ricci", poisoned)
