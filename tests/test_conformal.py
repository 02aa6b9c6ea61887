"""Conformal density transforms: maps, pullbacks, transformation laws."""

import json
import math

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
import smmskit.weighted as weighted
from conftest import draw_positive_factor
from sequential_map import SequentialMap, reference_forward, reference_inverse, \
    reference_reparam
from smmskit.conformal import (
    ConformalMap,
    ReparamProfile,
    apply_conformal,
    conformal_law_residuals,
    inverse_factor,
    involution_residual,
    quad,
)
from smmskit.errors import DomainError, EvalError, PositivityError
from smmskit.geometry import Tensor2Blocks
from smmskit.profiles import Interval, Profile1D, sample_grid
from smmskit.weighted import RadialDensity, einstein_residuals, sample_points

IV = Interval(-2.0, 2.0)


def quad_factor():
    return Profile1D.from_string("1 + 0.3*t**2", IV)


def test_forward_inverse_round_trip():
    cmap = ConformalMap(quad_factor(), IV)
    for t in (-1.6, -0.2, 0.9, 1.7):
        q = cmap.forward(t)
        assert cmap.inverse(q) == pytest.approx(t, abs=1e-10)


def test_pullback_jet_chain():
    u = quad_factor()
    cmap = ConformalMap(u, IV)
    w = Profile1D.from_string("sin(0.7*t)", IV)
    t = 0.8
    j = ReparamProfile(cmap, num=w).jet(cmap.forward(t))
    uj = u.jet(t)
    fj = w.jet(t) / uj  # the quotient w/u in the base coordinate
    assert j.value == pytest.approx(fj.value, rel=1e-12)
    # d/dq = u(t) d/dt along the arc-length style reparametrization
    assert j.d1 == pytest.approx(fj.d1 * uj.value, rel=1e-10)
    assert j.d2 == pytest.approx(fj.d2 * uj.value ** 2 + fj.d1 * uj.d1 * uj.value,
                                 rel=1e-10)


def test_identity_factor_translates_window():
    u = Profile1D.constant(1.0, IV, var="t")
    cmap = ConformalMap(u, IV)
    img = cmap.image_interval()
    assert img.hi - img.lo == pytest.approx(4.0, abs=1e-9)
    t0 = cmap.inverse(0.0)
    for dt in (-1.0, 0.5, 1.3):
        assert cmap.forward(t0 + dt) == pytest.approx(dt, abs=1e-10)


def test_rejects_nonpositive_factor():
    with pytest.raises(PositivityError):
        ConformalMap(Profile1D.from_string("t", IV), IV)


def test_identity_factor_preserves_instance():
    b = cat.make("weighted_sphere")
    inst = b.instance
    u = Profile1D.constant(1.0, inst.metric.interval, var="t")
    res = apply_conformal(inst, u)
    hat = res.instance
    assert hat.params == inst.params
    t = 1.1
    q = res.cmap.forward(t)
    assert hat.metric.phi.value(q) == pytest.approx(inst.metric.phi.value(t),
                                                    rel=1e-12)
    assert hat.density.v.value(q) == pytest.approx(inst.density.v.value(t),
                                                   rel=1e-12)


def test_constant_factor_laws_hold():
    b = cat.make("weighted_hyperbolic")
    inst = b.instance
    u = Profile1D.constant(1.7, inst.metric.interval, var="t")
    res = apply_conformal(inst, u)
    ts = [0.5, 1.2, 2.5]
    laws = conformal_law_residuals(inst, res, ts)
    assert max(laws.values()) < 1e-10


def test_transformation_laws_random_factors():
    rng = np.random.default_rng(23)
    for name in ("weighted_sphere", "cone_product", "neck_warped"):
        b = cat.make(name)
        inst = b.instance
        u = draw_positive_factor(rng, inst.metric.interval)
        res = apply_conformal(inst, u)
        iv = inst.metric.interval
        lo, hi = max(iv.lo, -10.0), min(iv.hi, 10.0)
        ts = [float(x) for x in np.linspace(lo + 0.1 * (hi - lo),
                                            hi - 0.1 * (hi - lo), 5)]
        laws = conformal_law_residuals(inst, res, ts)
        assert set(laws) >= {"ricci", "modified_ricci", "schouten", "scalar"}
        assert max(laws.values()) < 1e-7, name


def test_involution_returns_to_start():
    rng = np.random.default_rng(31)
    for name in ("weighted_sphere", "weighted_hyperbolic"):
        b = cat.make(name)
        inst = b.instance
        u = draw_positive_factor(rng, inst.metric.interval)
        iv = inst.metric.interval
        lo, hi = max(iv.lo, -10.0), min(iv.hi, 10.0)
        ts = [float(x) for x in np.linspace(lo + 0.1 * (hi - lo),
                                            hi - 0.1 * (hi - lo), 5)]
        assert involution_residual(inst, apply_conformal(inst, u), ts) < 1e-7, name


def test_inverse_factor_composes_to_identity():
    b = cat.make("weighted_sphere")
    inst = b.instance
    u = quad_factor_on(inst.metric.interval)
    res = apply_conformal(inst, u)
    back = inverse_factor(res)
    for t in (0.6, 1.3, 2.2):
        q = res.cmap.forward(t)
        assert back.value(q) == pytest.approx(1.0 / u.value(t), rel=1e-10)


@pytest.mark.parametrize("name", cat.available())
def test_undoing_a_change_without_its_image_recovers_the_base_width(name):
    # the second map lays its own table out to the first image's ends, so
    # it inverts the first map within an ulp of them: an interior image
    # point must map to an interior base point, where u is defined
    b = cat.make(name)
    res = apply_conformal(b.instance, b.pair.u)
    image, base = res.cmap.image_interval(), b.instance.metric.interval
    ends = [x for x in (np.nextafter(image.lo, math.inf), np.nextafter(image.hi, -math.inf))
            if math.isfinite(x)]
    assert all(base.contains(t) for t in res.cmap.inverse(np.array(ends)).tolist())
    back = apply_conformal(res.instance, inverse_factor(res)).cmap.image_interval()
    width = base.hi - base.lo
    if math.isinf(width):
        assert [math.isinf(x) for x in (back.lo, back.hi)] == \
            [math.isinf(x) for x in (base.lo, base.hi)]
    else:
        assert abs((back.hi - back.lo) - width) <= 1e-6 * (1.0 + width)


def quad_factor_on(iv):
    return Profile1D.from_string("1 + 0.05*t**2", iv)


def test_sphere_pair_factor_constant_hat_density():
    # u = nu/(2 lam) - cos(w t)/(2 lam) with nu = 2, lam = 1/2 equals the
    # density of the sphere bundle with a = 2, b = -1; the transformed
    # density is constant and the new scale is lam (a^2 - b^2)
    b = cat.make("weighted_sphere", n=3, m=2.0, lam=0.5, a=2.0, b=-1.0)
    inst = b.instance
    res = apply_conformal(inst, inst.density.v)
    hat = res.instance
    pts = sample_points(hat.metric, hat.density, 48)
    lam_hat = 0.5 * (4.0 - 1.0)
    rep = einstein_residuals(hat.metric, hat.density, hat.params, lam_hat, pts)
    assert rep.v_spread < 1e-10
    assert rep.residual_P < 1e-8
    assert b.pair.lam_hat == pytest.approx(lam_hat, abs=1e-12)


# ---------------------------------------------------------------------------
# the coordinate inverse on transformed grids

def hat_grid(name: str, k: int = 250):
    """The paired transform of a catalog family and its distinct grid q's."""
    b = cat.make(name)
    cfg = b.config(k=k)
    iv = b.instance.metric.interval
    u = Profile1D.from_string(cfg["conformal"]["u"], iv, var="t")
    res = apply_conformal(b.instance, u)
    hat = res.instance
    pts = sample_points(hat.metric, hat.density, k)
    return b.instance, u, res, sorted(set(pts.t.tolist()))


@pytest.mark.parametrize("name", ["weighted_sphere", "neck_warped"])
def test_inverse_of_shuffled_grid_matches_sorted(name):
    inst, u, res, qs = hat_grid(name)
    shuffled = list(qs)
    np.random.default_rng(7).shuffle(shuffled)
    fresh = apply_conformal(inst, u).cmap
    by_q = {q: fresh.inverse(q) for q in shuffled}
    for q in qs:
        t = res.cmap.inverse(q)
        assert abs(by_q[q] - t) <= 1e-14 * max(1.0, abs(t)), (name, q)


def test_repeated_inverse_is_bitwise_identical():
    cmap = ConformalMap(quad_factor(), IV)
    qs = [cmap.forward(t) + 1e-3 for t in (-1.5, -0.4, 0.7, 1.6)]
    first = [cmap.inverse(q) for q in qs]
    for t in np.linspace(-1.9, 1.9, 37):
        cmap.forward(t)  # new anchors must not move a memoized inverse
    assert [cmap.inverse(q) for q in qs] == first


def test_inverse_beyond_image_raises_every_call():
    cmap = ConformalMap(quad_factor(), IV)
    beyond = cmap.image_interval().hi + 0.5
    for _ in range(3):
        with pytest.raises(DomainError):
            cmap.inverse(beyond)
    # a failure leaves the map usable
    q = cmap.forward(1.2)
    assert cmap.inverse(q) == 1.2


def test_forward_rejects_nan_without_new_anchor():
    cmap = ConformalMap(quad_factor(), IV)
    cmap.forward(0.9)
    ts, qs = list(cmap._ts), list(cmap._qs)
    with pytest.raises(DomainError):
        cmap.forward(math.nan)
    assert cmap._ts == ts and cmap._qs == qs


@pytest.mark.parametrize("name", cat.available())
def test_catalog_grid_round_trips(name):
    _, _, res, qs = hat_grid(name)
    cmap = res.cmap
    qs = np.array(qs)
    back = cmap.forward(cmap.inverse(qs))
    for q, q_back in zip(qs.tolist(), back.tolist()):
        assert abs(q_back - q) <= 1e-14 * max(1.0, abs(q)), q


# ---------------------------------------------------------------------------
# array calls: the same iterates as a float loop, one solve per grid

CLOSED = Interval(-2.0, 2.0, closed_lo=True, closed_hi=True)


def _bits(values) -> list:
    return [repr(float(x)) for x in values]


def _map_case(name):
    """Two fresh maps of one case and its image and base query points."""
    if name == "closed":  # closed finite ends; panels laid on demand
        u = quad_factor_on(CLOSED)
        maps = [ConformalMap(u, CLOSED) for _ in range(2)]
        image = ConformalMap(u, CLOSED).image_interval()
        qs = list(np.linspace(image.lo, image.hi, 41)) + [image.lo, image.hi]
        ts = list(np.linspace(CLOSED.lo, CLOSED.hi, 41)) + [CLOSED.lo, CLOSED.hi]
        return maps, qs, ts
    inst, u, res, qs = hat_grid(name, k=64)
    maps = [res.cmap, apply_conformal(inst, u).cmap]
    ts = [float(t) for t in sample_grid(inst.metric.interval, 64)]
    # exact table ends of a grown table
    return maps, qs + res.cmap._qs[3::17], ts + res.cmap._ts[3::17]


@pytest.mark.parametrize("name", [*cat.available(), "closed"])
def test_array_map_matches_float_loop_bitwise(name):
    (arr_map, loop_map), qs, ts = _map_case(name)
    rng = np.random.default_rng(11)
    for points in (qs, ts):
        points += points[::5]  # duplicates
        rng.shuffle(points)
    assert _bits(arr_map.inverse(np.array(qs))) == \
        _bits(reference_inverse(loop_map, q) for q in qs)
    assert _bits(arr_map.forward(np.array(ts))) == \
        _bits(reference_forward(loop_map, t) for t in ts)


def test_array_errors_are_the_float_loops_first():
    cmap = ConformalMap(quad_factor(), IV)
    image = cmap.image_interval()  # both ends decided: no panel is laid below
    good = [cmap.forward(t) for t in (-1.2, 0.3, 1.1)]
    ts, qs = list(cmap._ts), list(cmap._qs)
    cases = ([good[0], math.nan, image.hi + 1.0],
             [good[1], image.hi + 0.5, math.nan],
             [image.lo - 1.0, good[2]],
             [good[0], math.inf])
    for bad in cases:
        with pytest.raises(DomainError) as arr:
            cmap.inverse(np.array(bad))
        assert cmap._ts == ts and cmap._qs == qs
        with pytest.raises(DomainError) as loop:
            for q in bad:
                reference_inverse(cmap, q)
        assert str(arr.value) == str(loop.value), bad
    with pytest.raises(DomainError, match="point nan"):
        cmap.forward(np.array([0.1, math.nan, 3.0]))
    assert cmap._ts == ts and cmap._qs == qs


class _ArmedGuard:
    """A positive factor whose guard, once armed, raises error (an
    EvalError by default) on (a, b)."""

    def __init__(self, inner, a, b, error=EvalError):
        self.inner, self.a, self.b, self.armed = inner, a, b, False
        self.domain, self.error = inner.domain, error

    def check_positive(self, **kwargs):
        self.inner.check_positive(**kwargs)

    def value(self, t):
        hit = (self.a < t) & (t < self.b)
        if self.armed and np.any(hit):
            first = float(t[np.argmax(hit)]) if isinstance(t, np.ndarray) else t
            raise self.error(f"guard fired at t={first}")
        return self.inner.value(t)

    def jet(self, t):
        return self.inner.jet(t)


def test_guard_at_a_newton_iterate_raises_the_float_loops_error():
    maps = []
    for _ in range(2):
        u = _ArmedGuard(quad_factor(), 0.2, 0.6)
        cmap = ConformalMap(u, IV)
        cmap.image_interval()  # the table is laid before the guard is armed
        maps.append(cmap)
    qs = [maps[0].forward(t) for t in (-1.0, 0.4, 1.5)]
    for cmap in maps:
        cmap.u.armed = True
    with pytest.raises(EvalError) as arr:
        maps[0].inverse(np.array(qs))
    with pytest.raises(EvalError) as loop:
        for q in qs:
            reference_inverse(maps[1], q)
    assert str(arr.value) == str(loop.value)


def test_repeated_array_inverse_is_bitwise_identical():
    cmap = ConformalMap(quad_factor(), IV)
    qs = np.array([cmap.forward(t) + 1e-3 for t in (-1.5, -0.4, 0.7, 1.6)])
    first = _bits(cmap.inverse(qs))
    for t in np.linspace(-1.9, 1.9, 37):
        cmap.forward(t)  # new panels must not move an inverse
    cmap.inverse(qs[::-1].copy())  # nor a different array in between
    assert _bits(cmap.inverse(qs)) == first
    assert _bits(map(cmap.inverse, qs.tolist())) == first


@pytest.mark.parametrize("name", ["weighted_sphere", "skew_sphere_density"])
@pytest.mark.parametrize("diagnostics", [False, True])
def test_one_newton_solve_per_transformed_grid(monkeypatch, name, diagnostics):
    b = cat.make(name)
    hat = apply_conformal(b.instance, b.pair.u).instance
    pts = sample_points(hat.metric, hat.density, 64)
    solves = []
    real = ConformalMap._invert_many

    def counted(self, q, *args):
        solves.append(q.size)
        return real(self, q, *args)

    monkeypatch.setattr(ConformalMap, "_invert_many", counted)
    einstein_residuals(hat.metric, hat.density, hat.params, b.pair.lam_hat, pts,
                       with_diagnostics=diagnostics)
    assert solves == [len(pts)]


@pytest.mark.parametrize("name", cat.available())
def test_reparam_value_is_the_jet_value_bitwise(name):
    inst, _, res, qs = hat_grid(name, k=64)
    hat = res.instance
    dens = hat.density
    part = dens.v if isinstance(dens, RadialDensity) else dens.alpha
    fresh = ReparamProfile(res.cmap, num=inst.metric.phi)  # phi/u, nothing remembered
    grid = np.array(qs)
    ts = [reference_inverse(res.cmap, q) for q in qs]
    for prof in (hat.metric.phi, part, inverse_factor(res), fresh):
        assert _bits(prof.value(grid)) == _bits(prof.jet(grid).value)
        want = [reference_reparam(prof, t) for t in ts]
        assert _bits(value for value, _ in want) == _bits(jet.value for _, jet in want)
        assert _bits(prof.value(grid)) == _bits(value for value, _ in want)


# `smms conformal --points 64` law and involution residuals, recorded with the
# point-by-point evaluation that the array pass replaced
FROZEN_CONFORMAL = {
    "weighted_sphere": ({"ricci": 3.197442310920451e-14,
                         "modified_ricci": 3.197442310920451e-14,
                         "schouten": 5.578870698741412e-15,
                         "scalar": 2.7711166694643907e-13}, 1.3322676295501878e-15),
    "skew_sphere_density": ({"ricci": 3.552713678800501e-15,
                             "modified_ricci": 5.329070518200751e-15,
                             "schouten": 1.1102230246251565e-15,
                             "scalar": 1.3500311979441904e-13}, 2.6645352591003757e-15),
    "neck_warped": ({"ricci": 7.105427357601002e-15,
                     "modified_ricci": 1.4210854715202004e-14,
                     "schouten": 1.882894014538416e-14,
                     "scalar": 3.5134117837287704e-12}, 1.0658141036401503e-13),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CONFORMAL))
def test_conformal_residuals_frozen(tmp_path, name):
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(cat.make(name).config()))
    argv = ["conformal", "--config", str(cfg), "--points", "64", "--out", str(out)]
    assert cli.main(argv) == 0
    report = json.loads(out.read_text())
    laws, involution = FROZEN_CONFORMAL[name]
    assert report["law_residuals"] == laws
    assert report["involution_residual"] == involution


# ---------------------------------------------------------------------------
# reparameterized profiles and fail-closed sups

def test_reparam_jet_rejects_nonfinite():
    cmap = ConformalMap(quad_factor(), IV)
    # the profile is exp(30000 t - 56311.5) / u pulled back: at t = 1.9 the
    # t-jet of the exponential is finite (value 1e299, d2 9e307), but the
    # chain-rule factor u^2 = 4.3 pushes its d2 in q past the float range,
    # and the quotient by u keeps the inf
    prof = ReparamProfile(cmap, num=Profile1D.from_string("exp(30000*t - 56311.5)", IV))
    with pytest.raises(EvalError):
        prof.jet(cmap.forward(1.9))


def test_reparam_check_positive_margin_is_sampling_margin():
    cmap = ConformalMap(quad_factor(), IV)
    # quotients by u: the parts num and u are checked on the base interval
    small = ReparamProfile(cmap, num=Profile1D.from_string("0.2 + 0*t", IV))
    small.check_positive(samples=64, margin=0.3)
    odd = ReparamProfile(cmap, num=Profile1D.from_string("t", IV))
    with pytest.raises(PositivityError):
        odd.check_positive(samples=64, margin=0.3)


def test_inverse_factor_positivity_is_checked_in_the_base_frame(monkeypatch):
    b = cat.make("weighted_sphere")
    first = apply_conformal(b.instance, b.pair.u)
    real = first.cmap.inverse
    calls = []

    def counted(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(first.cmap, "inverse", counted)
    ConformalMap(inverse_factor(first), first.cmap.image_interval())
    assert calls == []


def test_nan_law_deviation_fails_closed(monkeypatch, tmp_path):
    """One NaN component at one point must make the law residual NaN."""
    real = weighted.ricci
    hat_calls = []

    def poisoned(metric, point):
        rho = real(metric, point)
        if isinstance(metric.phi, ReparamProfile):
            hat_calls.append(point)
            if len(hat_calls) == 1:  # the law grid, at its third point
                third = np.arange(np.size(point.t)) == 2
                block = np.where(third, math.nan, rho.blocks[0])
                return Tensor2Blocks(rho.structure, rho.tt,
                                     (block,) + tuple(rho.blocks[1:]), rho.mixed)
        return rho

    monkeypatch.setattr(weighted, "ricci", poisoned)
    b = cat.make("weighted_sphere")
    inst = b.instance
    u = quad_factor_on(inst.metric.interval)
    laws = conformal_law_residuals(inst, apply_conformal(inst, u),
                                   [0.4, 0.9, 1.4, 1.9, 2.4])
    assert math.isnan(laws["ricci"])

    hat_calls.clear()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(b.config(k=16)))
    assert cli.main(["conformal", "--config", str(path)]) == 1


HALF_LINE = Interval(0.0, math.inf)
UNIT = Interval(0.0, 1.0, closed_hi=True)


@pytest.mark.parametrize("u, iv", [
    pytest.param("1 + 0*t", HALF_LINE, id="1 + 0*t"),
    pytest.param("2 + 0.3*t", HALF_LINE, id="2 + 0.3*t"),
    pytest.param("sqrt(1 + t)", HALF_LINE, id="sqrt(1 + t)"),
    # an adaptive rule once accepted a finite value, with a small error
    # estimate, for the divergent integrals of 1/t**2 and 1/t**5 toward 0
    pytest.param("t**2", UNIT, id="t**2 on (0, 1]"),
    pytest.param("t**5", UNIT, id="t**5 on (0, 1]"),
    pytest.param("t", UNIT, id="t on (0, 1]"),
    # u underflows to 0 at nodes next to 0
    pytest.param("t**30", UNIT, id="t**30 on (0, 1]"),
])
def test_divergent_image_endpoint_is_infinite(u, iv):
    cmap = ConformalMap(Profile1D.from_string(u, iv), iv)
    image = cmap.image_interval()
    if math.isinf(iv.hi):
        assert math.isfinite(image.lo) and image.hi == math.inf
    else:
        assert image.lo == -math.inf and math.isfinite(image.hi)


def test_convergent_finite_endpoint_keeps_its_value():
    cmap = ConformalMap(Profile1D.from_string("sqrt(t)", UNIT), UNIT)
    exact = -2.0 * math.sqrt(cmap.t_ref)
    assert abs(cmap.image_interval().lo - exact) <= 1e-9


def test_slowly_convergent_tail_has_a_finite_image():
    # 1/u decays like t**-1.5, so the 64th doubling still changes Q; what it
    # adds is far below the tolerance, and the tail it leaves out is small
    cmap = ConformalMap(Profile1D.from_string("1 + t**1.5", HALF_LINE), HALF_LINE)
    # t = x**-2 turns the tail into the integral of 2/(1 + x**3) over a
    # finite range, which has no singularity
    _, values, _, _ = quad(lambda x: 2.0 / (1.0 + x ** 3), np.array([0.0]),
                           np.array([cmap.t_ref ** -0.5]))
    assert abs(cmap.image_interval().hi - sum(values.tolist())) <= 1e-9


def test_convergent_image_endpoint_keeps_quad_value():
    iv = HALF_LINE
    cmap = ConformalMap(Profile1D.from_string("1 + 0.8*t**2", iv), iv)
    t_ref = cmap.t_ref
    exact = (math.pi / 2 - math.atan(math.sqrt(0.8) * t_ref)) / math.sqrt(0.8)
    assert cmap.image_interval().hi == pytest.approx(exact, abs=1e-12)


def test_conformal_with_constant_factor_on_half_line(tmp_path):
    # weighted_euclidean with b = 0 pairs with a constant factor, whose image
    # of the half line is a half line
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cat.make("weighted_euclidean", b=0.0).config(k=64)))
    assert cli.main(["conformal", "--config", str(path)]) == 0
    assert cli.main(["verify", "--config", str(path)]) == 0


# ---------------------------------------------------------------------------
# rounds of panels: the tables and ends of one-panel float growth, bit for bit

def _same_growth(new, ref):
    """ref's table is a contiguous run of new's, and the ends agree."""
    i = new._ts.index(ref._ts[0])
    n = len(ref._ts)
    assert _bits(new._ts[i:i + n]) == _bits(ref._ts)
    assert _bits(new._qs[i:i + n]) == _bits(ref._qs)
    assert new._ends == ref._ends


def _answer(query):
    """The bits query() returns, or the text of the error it raises."""
    try:
        out = query()
    except (DomainError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr(out) if isinstance(out, Interval) else _bits(out)


def _drive(cmaps, ts, qs, image_first):
    """The same queries on each map, with bitwise equal answers: forward
    at ts, inverse at qs (unless None), and the image first or last (or
    not at all when image_first is None)."""
    answers = []
    for cmap in cmaps:
        queries = [lambda: cmap.forward(np.array(ts))]
        if qs is not None:
            queries.append(lambda: cmap.inverse(np.array(qs)))
        if image_first is not None:
            queries.insert(0 if image_first else len(queries), cmap.image_interval)
        answers.append([_answer(query) for query in queries])
    assert answers[0] == answers[1]
    _same_growth(*cmaps)


@pytest.mark.parametrize("name", cat.available())
def test_rounds_match_one_panel_growth_on_catalog_pairs(name):
    inst, u, res, qs = hat_grid(name, k=64)
    iv = inst.metric.interval
    ts = [float(t) for t in sample_grid(iv, 64)]
    for image_first in (True, False):
        _drive([ConformalMap(u, iv), SequentialMap(u, iv)], ts, qs, image_first)
    # the two maps of involution_residual, each second map on its own first
    firsts = [ConformalMap(u, iv), SequentialMap(u, iv)]
    seconds = [kind(ReparamProfile(first), first.image_interval(), t_ref=0.0)
               for kind, first in zip((ConformalMap, SequentialMap), firsts)]
    q1 = firsts[0].forward(np.array(ts))
    q2 = seconds[0].forward(q1)
    # involution_residual passes the second map its image: no growth to it
    _drive(seconds, q1.tolist(), q2.tolist(), image_first=None)
    _same_growth(*firsts)


OPEN_UNIT = Interval(0.0, 1.0)
CLOSED_HALF_LINE = Interval(0.0, math.inf, closed_lo=True)
REAL_LINE = Interval(-math.inf, math.inf)


@pytest.mark.parametrize("u, iv", [
    # integrable singularities at finite ends, slowly decaying tails
    pytest.param("t**0.9", OPEN_UNIT, id="t**0.9"),
    pytest.param("sqrt(t)", OPEN_UNIT, id="sqrt(t)"),
    pytest.param("sqrt(1 - t)", OPEN_UNIT, id="sqrt(1 - t)"),
    pytest.param("1 + t**1.2", CLOSED_HALF_LINE, id="1 + t**1.2"),
    pytest.param("1 + t**1.5", CLOSED_HALF_LINE, id="1 + t**1.5"),
    # overflow guards that fire in far panels of a round
    pytest.param("exp(t)", CLOSED_HALF_LINE, id="exp(t)"),
    pytest.param("exp(0.5*t) + 1", CLOSED_HALF_LINE, id="exp(0.5*t) + 1"),
    pytest.param("sinh(t) + 2", CLOSED_HALF_LINE, id="sinh(t) + 2"),
    pytest.param("cosh(t)", REAL_LINE, id="cosh(t)"),
])
@pytest.mark.parametrize("image_first", [True, False])
def test_rounds_match_one_panel_growth_on_hard_factors(u, iv, image_first):
    u = Profile1D.from_string(u, iv)
    ts = [float(t) for t in sample_grid(iv, 33)]
    q = ConformalMap(u, iv).forward(np.array(ts))
    qs = (0.5 * (q[1:] + q[:-1])).tolist()
    _drive([ConformalMap(u, iv), SequentialMap(u, iv)], ts, qs, image_first)


def test_an_armed_guard_during_growth_acts_as_on_floats():
    # an EvalError guard counts as 1/u = 0, as the float integrand has it
    maps = []
    for kind in (ConformalMap, SequentialMap):
        u = _ArmedGuard(quad_factor(), 0.2, 0.6)
        u.armed = True
        maps.append(kind(u, IV))
    _drive(maps, [-1.9, -0.3, 0.1, 0.4, 0.5, 1.2, 1.9], None, image_first=False)
    # any other error surfaces at the node where one-panel growth meets it
    errors = []
    for kind in (ConformalMap, SequentialMap):
        u = _ArmedGuard(quad_factor(), 1.5, 1.9, error=DomainError)
        u.armed = True
        maps.append(kind(u, IV))
        with pytest.raises(DomainError) as err:
            maps[-1].image_interval()
        errors.append(str(err.value))
    assert errors[0] == errors[1] and "guard fired" in errors[0]
    _same_growth(*maps[2:])


def test_a_noisy_factor_spends_its_budget_level_by_level():
    # 1/(2 + sin(1e4 t)) never settles; the 200 halvings now go level by
    # level across the panel, where the depth-first order spent them all
    # near 0 and gave 0.5617339
    _, values, _, _ = quad(lambda t: 1.0 / (2.0 + np.sin(1e4 * t)), np.array([0.0]),
                           np.array([1.0]))
    assert abs(sum(values.tolist()) - 1.0 / math.sqrt(3.0)) < 1e-3
