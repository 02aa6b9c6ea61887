"""Model family catalog: construction, invariants, pairings, admissibility."""

import json
import math

import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
from smmskit.classify import GLOBAL_BRANCHES, LOCAL_BRANCHES
from smmskit.conformal import apply_conformal
from smmskit.errors import AdmissibilityError, FormError
from smmskit.weighted import einstein_residuals, sample_points, solve_mu

ALL_FAMILIES = (
    "weighted_sphere", "weighted_euclidean", "weighted_hyperbolic",
    "warping_density", "exponential_warped", "neck_warped",
    "cone_product", "skew_sphere_density", "constant_density",
)


def report_for(instance, lam, k=48):
    pts = sample_points(instance.metric, instance.density, k)
    return einstein_residuals(instance.metric, instance.density,
                              instance.params, lam, pts)


def test_available_lists_all_families():
    names = cat.available()
    assert set(names) == set(ALL_FAMILIES)
    for name in names:
        assert isinstance(cat.defaults_of(name), dict)


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_default_bundle_satisfies_its_contract(name):
    b = cat.make(name)
    assert b.branch_local in LOCAL_BRANCHES
    assert b.branch_global in GLOBAL_BRANCHES
    rep = report_for(b.instance, b.lam)
    assert rep.residual_P < 1e-8, name
    assert rep.kappa_mean == pytest.approx(b.kappa, abs=1e-8), name
    assert rep.kappa_spread < 1e-9, name
    if b.instance.params.m != 1.0:
        pts = sample_points(b.instance.metric, b.instance.density, 32)
        mean, spread = solve_mu(b.instance.metric, b.instance.density,
                                b.instance.params, b.lam, pts)
        assert mean == pytest.approx(b.instance.params.mu, abs=1e-8), name
        assert spread < 1e-8, name


@pytest.mark.parametrize("name", ALL_FAMILIES)
def test_pair_transform_reaches_declared_scale(name):
    b = cat.make(name)
    if b.pair is None:
        pytest.skip("family ships no paired factor")
    res = apply_conformal(b.instance, b.pair.u)
    hat = res.instance
    rep = report_for(hat, b.pair.lam_hat)
    assert rep.residual_P < 1e-8, name


def test_unknown_family_and_parameters_rejected():
    with pytest.raises(AdmissibilityError):
        cat.make("no_such_family")
    with pytest.raises(AdmissibilityError):
        cat.defaults_of("no_such_family")
    with pytest.raises(AdmissibilityError):
        cat.make("weighted_sphere", bogus=3.0)


def test_admissibility_guards():
    with pytest.raises(AdmissibilityError):
        cat.make("weighted_sphere", a=1.0, b=1.5)     # density not positive
    with pytest.raises(AdmissibilityError):
        cat.make("weighted_sphere", lam=-0.5)         # needs lam > 0
    with pytest.raises(AdmissibilityError):
        cat.make("weighted_hyperbolic", lam=0.5)      # needs lam < 0
    with pytest.raises(AdmissibilityError):
        cat.make("weighted_euclidean", a=0.0)         # density vanishes at 0
    with pytest.raises(AdmissibilityError):
        cat.make("warping_density", m=1.0)            # inert weight excluded
    with pytest.raises(AdmissibilityError):
        cat.make("cone_product", m=1.0)
    with pytest.raises(AdmissibilityError):
        cat.make("neck_warped", m=1.0)
    with pytest.raises(AdmissibilityError):
        cat.make("skew_sphere_density", fiber_amp=0.0)
    with pytest.raises(AdmissibilityError):
        cat.make("exponential_warped", lam=0.5)
    with pytest.raises(AdmissibilityError):
        cat.make("exponential_warped", b=0.0, kappa=0.5)


def test_trivial_density_variants():
    b = cat.make("weighted_sphere", b=0.0)
    assert b.branch_local == "Trivial"
    assert b.instance.params.mu == pytest.approx(-2.0 * b.lam
                                                 * b.parameters["a"] ** 2)
    bh = cat.make("weighted_hyperbolic", a=1.0, b=0.0)
    assert bh.branch_local == "Trivial"
    assert bh.kappa == pytest.approx(2.0 * bh.lam)
    be = cat.make("weighted_euclidean", b=0.0)
    assert be.branch_local == "Trivial"
    assert be.instance.params.mu == 0.0
    bx = cat.make("exponential_warped", b=0.0, kappa=-0.6)
    assert bx.branch_local == "Trivial"
    assert bx.branch_global == "ExpEinstein"


def test_warping_density_rows():
    n, m, c = 4, 3.0, 1.0
    for lam in (0.5, 0.0, -0.5):
        b = cat.make("warping_density", lam=lam, n=n, m=m, c=c)
        assert b.kappa == 0.0
        # conserved energy per row sign: 2 lam c^2 / c^2 / -2 lam c^2
        energy = c * c if lam == 0.0 else abs(2.0 * lam) * c * c
        expected_mu = (n + m - 2.0) * energy / (m - 1.0)
        assert b.instance.params.mu == pytest.approx(expected_mu, rel=1e-12)
        rep = report_for(b.instance, lam)
        assert rep.residual_P < 1e-8
        assert rep.residual_QE < 1e-8  # kappa = 0: weighted and plain agree


def test_bundle_config_round_trips_through_loader():
    from smmskit.cli import _instance_from_config

    for name in ALL_FAMILIES:
        b = cat.make(name)
        cfg = b.config(k=32)
        assert cfg["schema"] == 1
        inst = _instance_from_config(cfg)
        assert cfg["expectations"]["lambda"] == b.lam
        assert inst.params == b.instance.params
        rep = report_for(inst, b.lam, k=16)
        assert rep.residual_P < 1e-8, name


def test_custom_instance_radial_and_split():
    spec = {
        "interval": [0.0, math.pi],
        "warping": "sin(t)",
        "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
        "density": {"kind": "radial", "v": "2 + cos(t)"},
        "n": 3, "m": 2.0, "mu": -3.0,
    }
    inst = cat.custom_instance(spec, complete=True, compact=True)
    rep = report_for(inst, 0.5, k=24)
    assert rep.residual_P < 1e-8
    assert inst.compact and inst.complete

    nested = {
        "interval": [-5.0, 5.0],
        "warping": "1.0",
        "fiber": {"kind": "warped", "interval": [0.0, 8.0], "warping": "s",
                  "fiber": {"kind": "einstein", "dim": 2,
                            "einstein_constant": 1.0}},
        "density": {"kind": "radial", "v": "1.0"},
        "m": 2.0,
    }
    inst2 = cat.custom_instance(nested)
    assert inst2.metric.n == 4


def test_custom_split_density_over_space_form_fiber(tmp_path):
    # skew_sphere_density with its Einstein fiber declared as the round
    # two-sphere: the split density runs through SpaceForm's split layout
    skew = cat.make("skew_sphere_density")
    spec = {
        "interval": [0.0, math.pi],
        "warping": "sin(1.0 * t) / 1.0",
        "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
        "density": {"kind": "split", "v_n": "0.2*cos(s)",
                    "alpha": "0.3*cos(1.0*t) + 2.2"},
        "m": 2.0, "mu": -4.71,
    }
    cfg = {"schema": 1, "custom": spec, "grid": {"k": 64},
           "flags": {"complete": True, "compact": True},
           "expectations": {"lambda": 0.5, "kappa": 2.2, "mu": -4.71,
                            "branch_local": "Einstein",
                            "branch_global": "SpaceForm"}}
    path = tmp_path / "split.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["verify", "--config", str(path)]) == 0

    inst = cat.custom_instance(spec, complete=True, compact=True)
    got, want = report_for(inst, 0.5, k=64), report_for(skew.instance, 0.5, k=64)
    assert got.points.s is not None
    for prop in ("kappa_mean", "mu", "residual_P", "residual_QE",
                 "residual_Einstein", "sec_residual"):
        assert getattr(got, prop) == pytest.approx(getattr(want, prop),
                                                   abs=1e-12), prop


def test_custom_instance_rejects_bad_specs():
    base = {
        "interval": [0.0, math.pi],
        "warping": "sin(t)",
        "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
        "density": {"kind": "radial", "v": "2 + cos(t)"},
        "m": 2.0,
    }
    wrong_n = dict(base, n=5)
    with pytest.raises(FormError):
        cat.custom_instance(wrong_n)
    with pytest.raises(FormError):
        cat.custom_instance(dict(base, fiber={"kind": "mystery"}))
    with pytest.raises(FormError):
        cat.custom_instance(dict(base, density={"v": "1.0"}))
    with pytest.raises(FormError):
        cat.custom_instance(dict(base, interval="everywhere"))


def test_infinite_interval_spec_uses_null():
    spec = {
        "interval": [0.0, None],
        "warping": "t",
        "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
        "density": {"kind": "radial", "v": "1 + 0.8*t**2"},
        "m": 2.0, "mu": -3.2,
    }
    inst = cat.custom_instance(spec, complete=True)
    assert math.isinf(inst.metric.interval.hi)
    rep = report_for(inst, 0.0, k=24)
    assert rep.residual_P < 1e-8
