"""Command-line interface: exit codes, reports, CSV and failure naming."""

import json
import math

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
from conftest import poison_ricci_at
from smmskit.profiles import Interval, sample_grid
from smmskit.weighted import sample_points


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sphere_config(tmp_path, k=32, **overrides):
    cfg = cat.make("weighted_sphere", **overrides).config(k=k)
    return write_config(tmp_path, cfg)


def test_catalog_list(capsys):
    assert cli.main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in cat.available():
        assert name in out


def test_catalog_make_and_verify(tmp_path, capsys):
    cfg_path = str(tmp_path / "made.json")
    assert cli.main(["catalog", "make", "weighted_sphere", "--out", cfg_path]) == 0
    rep_path = str(tmp_path / "rep.json")
    csv_path = str(tmp_path / "out.csv")
    rc = cli.main(["verify", "--config", cfg_path, "--out", rep_path,
                   "--csv", csv_path, "--points", "32"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "VERDICT: pass" in out
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["schema"] == 1
    assert rep["passed"] is True
    assert rep["points"] == 32
    names = [c["name"] for c in rep["checks"]]
    assert "modified_schouten_residual" in names
    assert "scale_spread" in names
    assert "tau_consistency_residual" in names
    assert all(c["passed"] for c in rep["checks"])
    lines = (tmp_path / "out.csv").read_text().strip().splitlines()
    assert lines[0] == "t,s,p_dev,qe_dev,rho_dev,kappa,v,tau_f"
    assert len(lines) == 33


def test_catalog_make_with_overrides(tmp_path):
    cfg_path = str(tmp_path / "made.json")
    rc = cli.main(["catalog", "make", "weighted_sphere", "--set", "b=0.0",
                   "--out", cfg_path])
    assert rc == 0
    cfg = json.loads((tmp_path / "made.json").read_text())
    assert cfg["parameters"]["b"] == 0.0
    assert cfg["expectations"]["branch_local"] == "Trivial"


def test_wrong_expected_mu_fails_named_check(tmp_path):
    cfg = cat.make("weighted_sphere").config(k=24)
    cfg["expectations"]["mu"] += 0.5
    path = write_config(tmp_path, cfg)
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["verify", "--config", path, "--out", rep_path]) == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["passed"] is False
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert failing == ["mu_expected"]


def test_wrong_declared_mu_trips_tau_consistency(tmp_path):
    # a custom instance declaring the wrong characteristic constant must fail
    # the internal consistency gates, not only the expectation comparison
    cfg = {
        "schema": 1,
        "custom": {
            "interval": [0.0, 3.141592653589793],
            "warping": "sin(t)",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + cos(t)"},
            "n": 3, "m": 2.0, "mu": -2.0,
        },
        "lambda": 0.5,
        "grid": {"k": 24},
    }
    path = write_config(tmp_path, cfg)
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["verify", "--config", path, "--out", rep_path]) == 1
    rep = json.loads((tmp_path / "rep.json").read_text())
    failing = [c["name"] for c in rep["checks"] if not c["passed"]]
    assert "tau_consistency_residual" in failing
    assert "modified_schouten_residual" in failing
    # the solver still reports the value that would make the instance work
    mu_check = [c for c in rep["checks"] if c["name"] == "mu_consistency"]
    assert mu_check and not mu_check[0]["passed"]


def test_custom_config_estimates_lambda(tmp_path):
    cfg = {
        "schema": 1,
        "custom": {
            "interval": [0.0, 3.141592653589793],
            "warping": "sin(t)",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + cos(t)"},
            "n": 3, "m": 2.0, "mu": -3.0,
        },
        "grid": {"k": 24},
    }
    path = write_config(tmp_path, cfg)
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["verify", "--config", path, "--out", rep_path]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["lambda_estimated"] is True
    assert rep["lambda"] == pytest.approx(0.5, abs=1e-9)


def test_profile_overflow_exits_two(tmp_path, capsys):
    # cosh overflows at t < -710, which the guard on large arguments misses
    cfg = {
        "schema": 1,
        "custom": {
            "interval": [-900.0, -1.0],
            "warping": "cosh(t)",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + cos(t)"},
            "n": 3, "m": 2.0, "mu": -3.0,
        },
        "grid": {"k": 24},
    }
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t=" in err
    # sin of an infinite intermediate is a math domain error
    cfg["custom"]["warping"] = "2 + sin(1e999*t)"
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "t=" in err


def test_guard_firing_on_the_grid_exits_two(tmp_path, capsys):
    # nothing evaluates the density before the grid kernel (lambda is
    # given), whose array evaluation fires the sqrt guard below t = 2
    cfg = {
        "schema": 1,
        "custom": {
            "interval": [0.0, 4.0],
            "warping": "t",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + sqrt(t - 2)"},
            "n": 3, "m": 2.0,
        },
        "grid": {"k": 24},
        "expectations": {"lambda": 0.0},
    }
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.err.rstrip().endswith("at t=0.2")  # the first grid point
    # a guard that first fires in the middle of the grid names that point
    cfg["custom"]["density"]["v"] = "2 + sqrt(2 - t)"
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    ts = sample_grid(Interval(0.0, 4.0), 24)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.rstrip().endswith(f"at t={float(ts[ts >= 2.0][0])}")


def test_malformed_inputs_exit_two(tmp_path, capsys):
    assert cli.main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    assert cli.main(["verify", "--config",
                     write_config(tmp_path, {"schema": 2, "family": "x"})]) == 2
    assert cli.main(["verify", "--config",
                     write_config(tmp_path, {"schema": 1})]) == 2
    assert cli.main(["verify", "--config", write_config(
        tmp_path, {"schema": 1, "family": "nope"})]) == 2
    err = capsys.readouterr().err
    assert "error" in err.lower()


def _set(path, value):
    """Config edit that sets the entry at a dotted path."""
    def edit(cfg):
        *parents, leaf = path.split(".")
        node = cfg
        for key in parents:
            node = node[key]
        node[leaf] = value
    return edit


def _drop_custom_m(cfg):
    cfg.clear()
    cfg.update({
        "schema": 1,
        "custom": {
            "interval": [0.0, 3.141592653589793],
            "warping": "sin(t)",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + cos(t)"},
            "n": 3,
        },
    })


# (case id, config edit, extra command-line arguments)
MALFORMED_CONFIGS = [
    ("grid_k_one", _set("grid.k", 1), []),
    ("points_zero", None, ["--points", "0"]),
    ("margin_too_wide", _set("grid.margin", 0.7), []),
    ("margin_flag_nan", None, ["--margin", "nan"]),
    ("cap_negative", _set("grid.cap", -3.0), []),
    ("parameter_as_string", _set("parameters.n", "4"), []),
    ("parameter_as_bool", _set("parameters.lam", True), []),
    ("expected_lambda_null", _set("expectations.lambda", None), []),
    ("tolerance_as_string", _set("tolerances", {"residual": "abc"}), []),
    ("tolerance_nan", _set("tolerances", {"residual": math.nan}), []),
    ("tolerance_negative", _set("tolerances", {"kappa": -1e-9}), []),
    ("grid_not_object", _set("grid", [16]), []),
    ("factor_not_string", _set("conformal.u", 1.5), []),
    ("custom_without_m", _drop_custom_m, []),
]


@pytest.mark.parametrize("command", ["verify", "conformal"])
@pytest.mark.parametrize("case,edit,extra", MALFORMED_CONFIGS,
                         ids=[c[0] for c in MALFORMED_CONFIGS])
def test_malformed_config_exits_two(tmp_path, capsys, command, case, edit, extra):
    cfg = cat.make("weighted_sphere").config(k=16)
    if edit is not None:
        edit(cfg)
    path = write_config(tmp_path, cfg)
    assert cli.main([command, "--config", path, *extra]) == 2, case
    err = capsys.readouterr().err
    assert err.startswith("error: "), (case, err)


def test_table_rejects_degenerate_grid(capsys):
    assert cli.main(["table", "--points", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_tolerance_key_exits_two(tmp_path):
    cfg = cat.make("weighted_sphere").config(k=16)
    cfg["tolerances"] = {"bogus": 1.0}
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 2


def test_conformal_subcommand(tmp_path, capfd):
    path = sphere_config(tmp_path, k=24)
    assert cli.main(["conformal", "--config", path]) == 0
    captured = capfd.readouterr()
    text = captured.out + captured.err
    assert "VERDICT: pass" in text
    assert "law_ricci" in text and "FAIL" not in text


def test_table_subcommand(tmp_path, capsys):
    csv_path = str(tmp_path / "table.csv")
    assert cli.main(["table", "--csv", csv_path]) == 0
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "VERDICT: pass" in text
    for label in ("positive", "zero", "negative"):
        assert label in text
    lines = (tmp_path / "table.csv").read_text().strip().splitlines()
    assert len(lines) >= 4


def test_grid_override_flows_into_report(tmp_path):
    path = sphere_config(tmp_path, k=200)
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["verify", "--config", path, "--out", rep_path,
                     "--points", "64"]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["points"] == 64


@pytest.mark.parametrize("command", ["verify", "conformal"])
def test_grid_cap_bounds_base_and_transformed_grids(tmp_path, monkeypatch, command):
    cfg = cat.make("weighted_euclidean").config(k=16)
    cfg["grid"]["cap"] = 3.0
    grids = []  # (cap passed, coordinates) per sampled grid

    def recording(sampler, coord):
        def sample(*args, **kwargs):
            out = sampler(*args, **kwargs)
            grids.append((kwargs.get("cap"), [coord(x) for x in out]))
            return out
        return sample

    monkeypatch.setattr(cli, "sample_points",
                        recording(cli.sample_points, lambda p: p.t))
    monkeypatch.setattr(cli, "sample_grid", recording(cli.sample_grid, float))
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0
    # verify: base and transformed grid; conformal: law and transformed grid
    assert len(grids) == 2
    for cap, ts in grids:
        assert cap == 3.0
        assert max(ts) <= 3.0


def test_verify_fails_on_nan_at_random_grid_position(tmp_path, monkeypatch):
    b = cat.make("weighted_sphere")
    inst = b.instance
    pts = sample_points(inst.metric, inst.density, 24)
    rng = np.random.default_rng(24)
    path = write_config(tmp_path, b.config(k=24))
    rep_path = str(tmp_path / "rep.json")
    for _ in range(3):
        t = pts[int(rng.integers(len(pts)))].t
        with monkeypatch.context() as mp:
            poison_ricci_at(mp, t, int(rng.integers(2)))
            assert cli.main(["verify", "--config", path, "--out", rep_path]) == 1
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert math.isnan(rep["residuals"]["modified_schouten"])
        assert rep["classification"]["local"] == "Indeterminate"
        failing = {c["name"] for c in rep["checks"] if not c["passed"]}
        assert {"modified_schouten_residual", "branch_local"} <= failing
