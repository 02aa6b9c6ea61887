"""Each profile is evaluated once per grid, and each expression shape is
compiled once per process.

Profiles remember their last array value and jet; the tests here count the
evaluations of one verification pass, check that the remembered arrays are
safe to hand out (read-only, never stale, never shared with a view), and
count the calls to the builtin ``compile``.  A float is evaluated as the
one-entry array: it gives the bits and the errors of that array, and it
leaves the remembered grid in place.
"""

import builtins
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
import smmskit.profiles as profiles
from conftest import left_to_right_mean
from smmskit.classify import classify_report
from smmskit.conformal import ConformalMap, ReparamProfile, apply_conformal
from smmskit.errors import DomainError, EvalError
from smmskit.jets import power
from smmskit.odes import OdeProfile, neck_profile
from smmskit.profiles import Interval, Profile1D
from smmskit.weighted import einstein_residuals, point_fields, sample_points, solve_mu

FAMILIES = cat.available()


def _one_pass(bundle, k=64):
    """The kernel work of one verification: residuals with diagnostics,
    solve_mu where mu enters, and the classification."""
    inst = bundle.instance
    pts = sample_points(inst.metric, inst.density, k)
    rep = einstein_residuals(inst.metric, inst.density, inst.params, bundle.lam,
                             pts, with_diagnostics=True)
    if inst.params.m != 1.0:
        solve_mu(inst.metric, inst.density, inst.params, bundle.lam, pts)
    classify_report(inst, bundle.lam, rep)


@pytest.fixture
def evaluations(monkeypatch):
    """Counts calls into each compiled array function, keyed by (profile,
    kind), and into OdeProfile._states, keyed by (profile, "states")."""
    calls = Counter()
    tags = itertools.count()
    real_compile = profiles._compile

    def counting_compile(node):
        value, jet = real_compile(node)
        tag = next(tags)

        def counted_value(x):
            calls[(tag, "value")] += 1
            return value(x)

        def counted_jet(x):
            calls[(tag, "jet")] += 1
            return jet(x)

        return counted_value, counted_jet

    real_states = OdeProfile._states

    def counted_states(self, t):
        calls[(id(self), "states")] += 1
        return real_states(self, t)

    monkeypatch.setattr(profiles, "_compile", counting_compile)
    monkeypatch.setattr(OdeProfile, "_states", counted_states)
    return calls


@pytest.mark.parametrize("name", FAMILIES)
def test_one_pass_evaluates_each_profile_once_per_kind(name, evaluations):
    bundle = cat.make(name)
    evaluations.clear()  # the positivity checks of make are not the pass
    _one_pass(bundle)
    assert evaluations, "the counters saw no evaluation"
    repeated = {key: n for key, n in evaluations.items() if n > 1}
    assert repeated == {}


@pytest.mark.parametrize("name", FAMILIES)
def test_a_transformed_pass_evaluates_each_jet_once_per_array(name, monkeypatch):
    # the transformed profiles share one inverse and one jet of the factor u
    jets = Counter()
    tags = itertools.count()
    real_compile = profiles._compile

    def counting_compile(node):
        value, jet = real_compile(node)
        tag = next(tags)

        def counted_jet(x):
            jets[(tag, x.tobytes())] += 1
            return jet(x)

        return value, counted_jet

    monkeypatch.setattr(profiles, "_compile", counting_compile)
    bundle = cat.make(name)
    hat = apply_conformal(bundle.instance, bundle.pair.u).instance
    solves = []
    real_invert = ConformalMap._invert_many

    def counted_invert(self, q, *args):
        solves.append(q.size)
        return real_invert(self, q, *args)

    monkeypatch.setattr(ConformalMap, "_invert_many", counted_invert)
    jets.clear()  # make and the map's growth are not the pass
    pts = sample_points(hat.metric, hat.density, 64)
    einstein_residuals(hat.metric, hat.density, hat.params, bundle.pair.lam_hat, pts,
                       with_diagnostics=True)
    if hat.params.m != 1.0:
        solve_mu(hat.metric, hat.density, hat.params, bundle.pair.lam_hat, pts)
    assert jets, "the counters saw no compiled jet"
    assert {key: n for key, n in jets.items() if n > 1} == {}
    assert solves == [len(pts)]


@pytest.mark.parametrize("name", FAMILIES)
def test_a_second_make_compiles_nothing(name, monkeypatch):
    sources = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if filename == "<profile>":  # ast.parse compiles the text to a tree
            sources.append(source)
        return real(source, filename, *args, **kwargs)

    profiles._code.cache_clear()
    monkeypatch.setattr(builtins, "compile", counting)
    _one_pass(cat.make(name))
    assert sources, "the first make compiled nothing: the count is vacuous"
    sources.clear()
    _one_pass(cat.make(name))
    assert sources == []


def test_a_profile_compiles_one_source_for_floats_and_arrays(monkeypatch):
    sources = []
    real = builtins.compile

    def counting(source, filename, *args, **kwargs):
        if filename == "<profile>":  # ast.parse compiles the text to a tree
            sources.append(source)
        return real(source, filename, *args, **kwargs)

    profiles._code.cache_clear()
    monkeypatch.setattr(builtins, "compile", counting)
    prof = Profile1D.from_string("exp(0.3*t) + t^2 / sqrt(2 + t)", Interval(-1.0, 2.0))
    ts = np.linspace(-0.9, 1.9, 7)
    prof.value(0.5), prof.jet(0.5), prof.value(ts), prof.jet(ts)
    assert len(sources) == 1


# ---------------------------------------------------------------------------
# the remembered arrays


def _parts(out):
    """The arrays of a value or a jet, as lists of floats (bitwise under ==
    of their reprs)."""
    if hasattr(out, "d1"):
        return repr([out.value.tolist(), out.d1.tolist(), out.d2.tolist()])
    return repr(out.tolist())


def _neck_derivative(base):
    return base.derivative(lambda t, w, dw: -3.0 * power(w, -4.0) * dw, "neck'")


def _reparam():
    iv = Interval(0.0, 2.0)
    u = Profile1D.from_string("1.5 + 0.2*t", iv)
    phi = Profile1D.from_string("0.5 + sin(t)", iv)
    return ReparamProfile(ConformalMap(u, iv), num=phi)


def _makers():
    """Fresh profiles of every kind, with a grid inside each domain."""
    yield lambda: Profile1D.from_string("exp(0.3*t) + t^2", Interval(-1.0, 2.0)), \
        np.linspace(-0.9, 1.9, 37)
    yield lambda: neck_profile(3.0, Interval(0.0, 6.0)), np.linspace(0.0, 6.0, 41)
    yield lambda: _neck_derivative(neck_profile(3.0, Interval(0.0, 6.0))), \
        np.linspace(0.1, 5.9, 29)
    rp = _reparam()
    yield _reparam, np.linspace(rp.domain.lo, rp.domain.hi, 23)[1:-1]


@pytest.mark.parametrize("make, ts", list(_makers()))
def test_value_jet_value_on_one_grid_equals_fresh_profiles(make, ts):
    prof = make()
    got = [_parts(prof.value(ts)), _parts(prof.jet(ts)), _parts(prof.value(ts.copy()))]
    want = [_parts(make().value(ts)), _parts(make().jet(ts)), _parts(make().value(ts))]
    assert got == want


@pytest.mark.parametrize("make, ts", list(_makers()))
def test_returned_arrays_are_read_only_and_never_stale(make, ts):
    prof = make()
    query = ts.copy()
    value, jet = prof.value(query), prof.jet(query)
    for part in (value, jet.value, jet.d1, jet.d2):
        assert not np.shares_memory(part, query)
        with pytest.raises(ValueError):
            part[0] = 1.0
    # the caller's array stays theirs; changed in place, it is a new query
    assert query.flags.writeable
    query[0] = query[1]
    assert prof.value(query)[0] == prof.value(query)[1]
    assert _parts(prof.jet(query)) == _parts(make().jet(query))


def test_identity_profile_does_not_hand_back_the_query():
    prof = Profile1D.from_string("t", Interval(0.0, 1.0))
    ts = np.linspace(0.1, 0.9, 5)
    out = prof.value(ts)
    assert out is not ts and not out.flags.writeable
    assert ts.flags.writeable


def test_ode_views_made_after_an_evaluation_start_empty():
    ts = np.linspace(0.0, 6.0, 41)
    base = neck_profile(3.0, Interval(0.0, 6.0))
    base.value(ts)
    base.jet(ts)
    late = _neck_derivative(base)
    fresh = _neck_derivative(neck_profile(3.0, Interval(0.0, 6.0)))
    assert _parts(late.jet(ts)) == _parts(fresh.jet(ts))
    assert _parts(late.value(ts)) == _parts(fresh.value(ts))
    for view in (base.restricted(0.2, 5.0), late.restricted(0.2, 5.0)):
        for method in (view.value, view.jet):
            with pytest.raises(DomainError, match="point 0.0 outside"):
                method(ts)
    # the base is untouched by its views
    assert _parts(base.jet(ts)) == _parts(neck_profile(3.0, Interval(0.0, 6.0)).jet(ts))


@pytest.mark.parametrize("expr, ts", [
    ("log(t - 1)", [2.0, 1.5, 0.5, 0.0]),   # a guard of the tree
    ("1 / (t - 1)", [2.5, 2.0, 1.0, 0.0]),  # division by zero
    ("t", [0.5, 4.0]),                      # outside the domain
])
def test_a_failing_array_call_raises_the_same_error_twice(expr, ts):
    prof = Profile1D.from_string(expr, Interval(-3.0, 3.0))
    good = np.array([2.2, 2.4])
    before = _parts(prof.jet(good))
    for method in (prof.value, prof.jet):
        errors = []
        for _ in range(2):
            with pytest.raises((EvalError, DomainError)) as info:
                method(np.array(ts))
            errors.append((info.type, str(info.value)))
        assert errors[0] == errors[1]
    assert _parts(prof.jet(good)) == before


def test_failing_ode_and_reparam_calls_raise_the_same_error_twice():
    ode = neck_profile(3.0, Interval(0.0, 6.0))
    rp = _reparam()
    for method, ts in ((ode.jet, [1.0, 7.0]), (ode.value, [1.0, 7.0]),
                       (rp.jet, [rp.domain.hi + 1.0]), (rp.value, [rp.domain.hi + 1.0])):
        errors = []
        for _ in range(2):
            with pytest.raises(DomainError) as info:
                method(np.array(ts))
            errors.append(str(info.value))
        assert errors[0] == errors[1]


# ---------------------------------------------------------------------------
# a float is the one-entry array: the contract at the public boundary

KINDS = ("expression", "ode", "ode_derivative", "reparam")


def _kind(name):
    """A fresh profile of one kind and its grid (see _makers)."""
    return dict(zip(KINDS, _makers()))[name]


def _map_and_points():
    iv = Interval(0.0, 2.0)
    cmap = ConformalMap(Profile1D.from_string("1.5 + 0.2*t", iv), iv)
    image = cmap.image_interval()
    return cmap, np.linspace(0.05, 1.95, 23), np.linspace(image.lo, image.hi, 25)[1:-1]


def _float_parts(out):
    if hasattr(out, "d1"):
        return repr([out.value, out.d1, out.d2])
    return repr(out)


def _entry(out, i):
    if hasattr(out, "d1"):
        return repr([out.value[i].item(), out.d1[i].item(), out.d2[i].item()])
    return repr(out[i].item())


@pytest.mark.parametrize("kind", KINDS)
def test_a_float_call_gives_the_bits_of_its_grid_entry(kind):
    make, ts = _kind(kind)
    prof = make()
    for method in (prof.value, prof.jet):
        grid = method(ts)
        for i, t in enumerate(ts.tolist()):
            out = method(t)
            assert type(out.value if hasattr(out, "d1") else out) is float
            assert _float_parts(out) == _entry(grid, i), (method.__name__, t)


def test_a_float_map_call_gives_the_bits_of_its_grid_entry():
    cmap, ts, qs = _map_and_points()
    for method, points in ((cmap.forward, ts), (cmap.inverse, qs)):
        grid = method(points)
        for i, x in enumerate(points.tolist()):
            out = method(x)
            assert type(out) is float and repr(out) == _entry(grid, i), (method.__name__, x)


def _error(call):
    try:
        call()
    except (DomainError, EvalError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error")


def _failing_calls():
    """(name, profile-like object, method name, failing float)."""
    wide = Interval(-1000.0, 1000.0)
    rp = _reparam()
    cmap, _, _ = _map_and_points()
    # the numerator's d2 in q passes the float range only through the chain
    # rule's u^2; the quotient by u keeps the inf
    iv = Interval(-2.0, 2.0)
    wide_map = ConformalMap(Profile1D.from_string("1 + 0.3*t**2", iv), iv)
    steep = ReparamProfile(wide_map, num=Profile1D.from_string("exp(30000*t - 56311.5)", iv))
    image = cmap.image_interval()
    yield "outside", Profile1D.from_string("t", Interval(0.0, 1.0)), "value", 2.0
    yield "nan", Profile1D.from_string("t", Interval(0.0, 1.0)), "jet", math.nan
    yield "guard", Profile1D.from_string("log(t - 1)", Interval(-3.0, 3.0)), "value", 0.5
    yield "guard_repr", Profile1D.from_string("sqrt(t - 1)", Interval(-3.0, 3.0)), "jet", 0.5
    yield "arithmetic", Profile1D.from_string("cosh(t)", wide), "value", -900.0
    yield "carried_inf", Profile1D.from_string("log(t)", wide), "jet", 1e-300
    yield "not_finite", Profile1D.from_string("1e200 * t * t", Interval(-math.inf, math.inf)), \
        "value", 1e300
    yield "ode_outside", neck_profile(3.0, Interval(0.0, 6.0)), "jet", 7.0
    yield "reparam_outside", rp, "value", rp.domain.hi + 1.0
    yield "reparam_not_finite", steep, "jet", wide_map.forward(1.9)
    yield "forward_outside", cmap, "forward", 3.0
    yield "inverse_beyond", cmap, "inverse", image.hi + 0.5
    yield "inverse_nan", cmap, "inverse", math.nan


@pytest.mark.parametrize("name, prof, method, t",
                         list(_failing_calls()), ids=[c[0] for c in _failing_calls()])
def test_a_float_error_is_the_one_entry_array_error(name, prof, method, t):
    method = getattr(prof, method)
    error = _error(lambda: method(t))
    assert error == _error(lambda: method(np.array([t])))
    assert "array(" not in error[1]


@pytest.mark.parametrize("kind", KINDS)
def test_a_float_call_leaves_the_grid_remembered(kind, evaluations, monkeypatch):
    real = ReparamProfile._evaluate

    def counted(self, q, which):
        evaluations[(id(self), "reparam", which)] += 1
        return real(self, q, which)

    monkeypatch.setattr(ReparamProfile, "_evaluate", counted)
    make, ts = _kind(kind)
    prof = make()
    value, jet = prof.value(ts), prof.jet(ts)
    assert evaluations, "the counters saw no evaluation"
    for t in ts.tolist()[::5]:
        prof.value(t), prof.jet(t)
    before = Counter(evaluations)
    assert prof.value(ts) is value and prof.jet(ts).d2 is jet.d2
    assert evaluations == before


def test_a_float_inverse_leaves_the_grid_remembered(monkeypatch):
    solves = []
    real = ConformalMap._invert_many
    monkeypatch.setattr(ConformalMap, "_invert_many",
                        lambda self, q, *args: solves.append(q.size) or real(self, q, *args))
    cmap, _, qs = _map_and_points()
    first = cmap.inverse(qs)
    for q in qs.tolist()[::5]:
        cmap.inverse(q)
    assert solves == [qs.size] + [1] * len(qs.tolist()[::5])
    assert cmap.inverse(qs) is first
    assert len(solves) == 1 + len(qs.tolist()[::5])


# ---------------------------------------------------------------------------
# the command line evaluates profiles on arrays only


@pytest.mark.parametrize("name", FAMILIES)
def test_verify_and_conformal_make_no_float_profile_call(name, tmp_path, monkeypatch):
    calls = Counter()
    for cls, method in ((Profile1D, "value"), (Profile1D, "jet"), (ReparamProfile, "value"),
                        (ReparamProfile, "jet"), (OdeProfile, "value"), (OdeProfile, "jet"),
                        (ConformalMap, "forward"), (ConformalMap, "inverse")):
        real = getattr(cls, method)

        def counted(self, t, _real=real, _key=f"{cls.__name__}.{method}"):
            if type(t) is not np.ndarray:
                calls[_key] += 1
            return _real(self, t)

        monkeypatch.setattr(cls, method, counted)
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(cat.make(name).config()))
    for command in ("verify", "conformal"):
        argv = [command, "--config", str(cfg), "--points", "64", "--out", str(out)]
        assert cli.main(argv) == 0
        assert json.loads(out.read_text())["passed"] is True
    assert calls == {}


# ---------------------------------------------------------------------------
# the estimated scale of a custom config


def test_estimated_lambda_is_the_scalar_loop(tmp_path, monkeypatch):
    # a warping that is not Einstein, so the sampled traces differ
    cfg = {
        "schema": 1,
        "custom": {
            "interval": [0.0, 3.141592653589793],
            "warping": "sin(t) * (1 + 0.1*cos(t))",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + cos(t)"},
            "n": 3, "m": 2.0, "mu": -3.0,
        },
        "grid": {"k": 200},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    seen = []
    real = cli.certify
    monkeypatch.setattr(cli, "certify", lambda inst, pts, tol, expect:
                        seen.append((inst, pts)) or real(inst, pts, tol, expect))
    out = tmp_path / "rep.json"
    cli.main(["verify", "--config", str(path), "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rep["lambda_estimated"] is True
    inst, pts = seen[0]
    step = max(1, len(pts) // 64)
    assert step > 1
    vals = [point_fields(inst.metric, inst.density, inst.params, pts.at(i)).p.trace()
            / inst.params.n for i in range(0, len(pts), step)]
    assert len(set(vals)) > 1
    assert rep["lambda"] == left_to_right_mean(vals)
