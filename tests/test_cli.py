"""Command-line interface: exit codes, reports, CSV and failure naming."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smmskit.catalog as cat
import smmskit.cli as cli
import smmskit.odes as odes
import smmskit.weighted as weighted
from conftest import poison_ricci_at
from smmskit.classify import Thresholds
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


def test_main_calls_share_one_parser(capsys):
    cli._build_parser.cache_clear()
    assert cli.main(["catalog", "list"]) == 0
    assert cli.main(["catalog", "list"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # help and a bad command still exit as they did from a fresh parser
    for argv, code in ((["--help"], 0), (["frobnicate"], 2), (["verify"], 2)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
    assert "usage: smms" in capsys.readouterr().out
    assert cli.main(["catalog", "list"]) == 0
    assert cli._build_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("m", ["1.0000001", "0.9999999", "1.00000001"])
def test_weighted_sphere_near_m_one_verifies(tmp_path, m):
    # ROADMAP item 7: dividing by m (m - 1) spread the solved mu by about
    # eps / |m - 1| (1.8e-6 at m = 1 + 1e-7, gate 1e-6); where X0 vanishes mu
    # is the first integral Y, with no division
    cfg_path = str(tmp_path / "made.json")
    assert cli.main(["catalog", "make", "weighted_sphere", "--set", f"m={m}",
                     "--out", cfg_path]) == 0
    rep_path = str(tmp_path / "rep.json")
    rc = cli.main(["verify", "--config", cfg_path, "--out", rep_path])
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert [c["name"] for c in rep["checks"] if not c["passed"]] == []
    assert rc == 0


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
    ("factor_nested_too_deep", _set("conformal.u", "(" * 250 + "t" + ")" * 250), []),
    ("factor_sum_too_long", _set("conformal.u", "+".join(["t"] * 3000)), []),
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


# (case id, config edit, a fragment of the error line): values that used to
# pass unread, so a config that holds them exited 0 or reported a failed row
UNREAD_VALUES = [
    ("nan_in_conformal_nu", _set("conformal.nu", math.nan), "NaN is not a JSON number"),
    ("infinity_in_family_flags", _set("flags.complete", math.inf),
     "Infinity is not a JSON number"),
    ("minus_infinity_in_branch", _set("expectations.branch_global", -math.inf),
     "-Infinity is not a JSON number"),
    ("branch_local_not_a_branch", _set("expectations.branch_local", 5),
     "expectations.branch_local must be one of Trivial, Einstein"),
    ("branch_global_misspelt", _set("expectations.branch_global", "SpaceFrom"),
     "expectations.branch_global must be one of"),
    ("family_flags_not_its_own", _set("flags.compact", False),
     "flags must be the family's own, {\"complete\": true, \"compact\": true}"),
    ("family_flag_misspelt", _set("flags.compactt", True), "unknown flags: compactt"),
    ("conformal_nu_not_a_number", _set("conformal.nu", "banana"),
     "conformal.nu must be a finite number, got 'banana'"),
    ("conformal_key_unknown", _set("conformal.uu", "2 + cos(t)"),
     "unknown conformal keys: uu"),
]


@pytest.mark.parametrize("command", ["verify", "conformal"])
@pytest.mark.parametrize("case,edit,message", UNREAD_VALUES,
                         ids=[c[0] for c in UNREAD_VALUES])
def test_unread_config_values_exit_two(tmp_path, capsys, command, case, edit, message):
    cfg = cat.make("weighted_sphere").config(k=16)
    edit(cfg)
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2, case
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    assert message in err, (case, err)


def _round_sphere_custom(**top) -> dict:
    """A custom round-sphere config that verifies, with extra top-level keys."""
    return {
        "schema": 1,
        "custom": {
            "interval": [0.0, math.pi],
            "warping": "sin(t)",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "2 + cos(t)"},
            "n": 3, "m": 2.0, "mu": -3.0,
        },
        "grid": {"k": 16},
        "expectations": {"lambda": 0.5},
        "conformal": {"u": "2 + cos(t)"},
        **top,
    }


# (case id, top-level keys of the custom config, a fragment of the error line)
UNREAD_CUSTOM_VALUES = [
    ("flag_misspelt", {"flags": {"complete": True, "compactt": True}},
     "unknown flags: compactt"),
    ("flags_unknown", {"flags": {"closed": True, "orientable": False}},
     "unknown flags: closed, orientable"),
    ("parameters", {"parameters": {"x": [1, 2]}},
     "\"parameters\" are a catalog family's; a custom config takes none"),
    ("conformal_nu_banana", {"conformal": {"u": "2 + cos(t)", "nu": "banana"}},
     "conformal.nu must be a finite number, got 'banana'"),
    ("conformal_nu_bool", {"conformal": {"u": "2 + cos(t)", "nu": True}},
     "conformal.nu must be a finite number, got True"),
]


@pytest.mark.parametrize("command", ["verify", "conformal"])
@pytest.mark.parametrize("case,top,message", UNREAD_CUSTOM_VALUES,
                         ids=[c[0] for c in UNREAD_CUSTOM_VALUES])
def test_unread_custom_config_values_exit_two(tmp_path, capsys, command, case, top,
                                              message):
    good = write_config(tmp_path, _round_sphere_custom(), name="good.json")
    assert cli.main([command, "--config", good]) == 0  # the edit alone fails it
    capsys.readouterr()
    path = write_config(tmp_path, _round_sphere_custom(**top))
    assert cli.main([command, "--config", path]) == 2, case
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
    assert message in err, (case, err)


def test_custom_flags_and_a_finite_nu_still_pass(tmp_path):
    cfg = _round_sphere_custom(flags={"complete": True, "compact": True},
                               conformal={"u": "2 + cos(t)", "nu": 1.5})
    for command in ("verify", "conformal"):
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 0


@pytest.mark.parametrize("text", [
    b'{"schema": 1, "family": "weighted_sphere"\xff}',       # not UTF-8
    b'{"schema": 1, "grid": {"k": ' + b"1" * 5000 + b"}}",  # too long to read
    b"[" * 100_000,                                           # too deep
], ids=["bad_utf8", "long_integer", "deep_nesting"])
def test_unreadable_json_exits_two(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert cli.main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {str(path)!r} is not valid JSON: ")
    assert err.count("\n") == 1


# (case id, family, bad parameter overrides, a fragment of the error line;
# None names the parameter and family, as the shape check does)
BAD_PARAMETERS = [
    ("list_for_scalar", "weighted_sphere", {"a": [1, 2]}, None),
    ("window_as_float", "neck_warped", {"fiber_window": 3.0}, None),
    ("window_as_integer", "neck_warped", {"fiber_window": 3}, None),
    ("window_too_short", "neck_warped", {"fiber_window": [1.0]}, None),
    ("window_too_long", "neck_warped", {"fiber_window": [0.2, 1, 2]}, None),
    ("fraction_for_integer", "weighted_sphere", {"n": 2.5}, None),
    # the neck trajectory holds at most 10^5 RK4 nodes
    ("tiny_step", "neck_warped", {"step": 1e-9}, "fiber_window[1] / step = 6e+09"),
    ("subnormal_step", "neck_warped", {"step": 5e-324}, "fiber_window[1] / step = inf"),
    ("huge_window_end", "neck_warped", {"fiber_window": [0.2, 1e12]},
     "fiber_window[1] / step = 1e+15"),
    ("zero_step", "neck_warped", {"step": 0.0}, "RK4 step must be positive"),
    ("negative_step", "neck_warped", {"step": -1e-3}, "RK4 step must be positive"),
]


@pytest.mark.parametrize("command", ["verify", "conformal", "catalog"])
@pytest.mark.parametrize("case,family,overrides,message", BAD_PARAMETERS,
                         ids=[c[0] for c in BAD_PARAMETERS])
def test_parameter_of_wrong_shape_exits_two(tmp_path, capsys, monkeypatch, command,
                                            case, family, overrides, message):
    # a config and `catalog make --set` both reach catalog.make, which checks
    # each override before any work starts
    if command == "catalog":
        argv = ["catalog", "make", family]
        for key, val in overrides.items():
            argv += ["--set", f"{key}={json.dumps(val)}"]
    else:
        cfg = cat.make(family).config(k=16)
        cfg["parameters"].update(overrides)
        argv = [command, "--config", write_config(tmp_path, cfg)]

    def no_integration(*args):
        raise AssertionError("a bad parameter reached the RK4 integrator")

    monkeypatch.setattr(odes, "rk4_integrate", no_integration)
    odes._neck_trajectory.cache_clear()
    assert cli.main(argv) == 2, case
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, (case, err)
    if message is None:
        message = f"parameter {next(iter(overrides))} of {family}"
    assert message in err, (case, err)


@pytest.mark.parametrize("argv", [
    ["catalog", "make", "constant_density", "--points", "16"],
    ["catalog", "list"],
    ["table", "--points", "8"],
], ids=["catalog-make", "catalog-list", "table"])
def test_closed_stdout_exits_one_without_a_traceback(argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen([sys.executable, "-m", "smmskit.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before anything is written
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


# (case id, commands, family, parameter overrides, a fragment of the error
# line): each number takes the arithmetic of a command out of the float range
OUT_OF_RANGE = [
    ("power_overflows", ["verify", "conformal"], "weighted_sphere", {"m": 1e155},
     "arithmetic out of the float range (OverflowError: weight parameter m = 1e+155"
     " is too large: m (m - 1) overflows)"),
    ("level_squared_underflows", ["verify", "conformal"], "constant_density",
     {"a": 1e-300}, "density level a = 1e-300 is too small"),
    ("kappa_squared_overflows", ["verify", "conformal"], "skew_sphere_density",
     {"kappa": 1e160}, "kappa = 1e+160 is too large"),
    ("nu_squared_overflows", ["verify", "conformal"], "skew_sphere_density",
     {"pair_nu": 1e160}, "pair_nu = 1e+160 is too large"),
]


@pytest.mark.parametrize("case,commands,family,overrides,message", OUT_OF_RANGE,
                         ids=[c[0] for c in OUT_OF_RANGE])
def test_numbers_out_of_the_float_range_exit_two(tmp_path, capsys, case, commands,
                                                 family, overrides, message):
    cfg = cat.make(family).config(k=16)
    cfg["parameters"].update(overrides)
    for command in commands:
        assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2, case
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
        assert message in err, (case, err)


@pytest.mark.parametrize("family,overrides", [
    ("cone_product", {"scale": 1e-200}), ("neck_warped", {"a": 1e-200})])
def test_tiny_parameter_gets_one_exit_code(tmp_path, capsys, family, overrides):
    # both commands run the same v-form arithmetic, so both fail the same
    # gates (exit 1); the conformal scalar law once squared u/v in the scalar
    # power fallback and exited 2 on an OverflowError
    cfg = cat.make(family).config(k=16)
    cfg["parameters"].update(overrides)
    path = write_config(tmp_path, cfg)
    codes = [cli.main([command, "--config", path]) for command in ("verify", "conformal")]
    assert codes == [1, 1]
    assert "error:" not in capsys.readouterr().err


def test_mu_gates_on_tiny_curvature(tmp_path):
    # warping_density at lam = 1e-13 has mu = 5e-5 and a first integral
    # Y = 2e-5: the solved mu passes both mu gates, and a declared mu equal
    # to Y fails mu_expected
    cfg = cat.make("warping_density", lam=1e-13, c=1e4).config(k=64)
    rows = {}
    for declared in (cfg["expectations"]["mu"], 2e-5):
        cfg["expectations"]["mu"] = declared
        path = write_config(tmp_path, cfg)
        rep_path = tmp_path / "rep.json"
        cli.main(["verify", "--config", path, "--out", str(rep_path)])
        checks = json.loads(rep_path.read_text())["checks"]
        rows[declared] = {c["name"]: c["passed"] for c in checks
                          if c["name"] in ("mu_consistency", "mu_expected")}
    assert rows == {5e-5: {"mu_consistency": True, "mu_expected": True},
                    2e-5: {"mu_consistency": True, "mu_expected": False}}


def test_m_one_density_whose_square_underflows_exits_two(tmp_path, capsys):
    # the kernel stays finite at m = 1 with v = 1e-200 (its |dv|^2 term sits
    # under the m != 1 branch); the conformal image's warping then overflows
    # in its Ricci tensor, so verify exits 2, as it did through the f-form
    cfg = cat.make("weighted_sphere", m=1.0, a=1e-200, b=1e-201).config(k=16)
    path = write_config(tmp_path, cfg)
    assert cli.main(["verify", "--config", path]) == 2
    assert "arithmetic out of the float range" in capsys.readouterr().err


@pytest.mark.parametrize("k", [10**30, 10**6 + 1])
@pytest.mark.parametrize("where", ["verify grid.k", "verify --points",
                                   "conformal grid.k", "conformal --points",
                                   "table --points", "catalog --points"])
def test_grid_above_the_bound_exits_two(tmp_path, capsys, monkeypatch, where, k):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid above the bound was sampled")

    monkeypatch.setattr(cli, "sample_points", no_grid)
    monkeypatch.setattr(cli, "sample_grid", no_grid)
    command, how = where.split()
    if command == "table":
        argv = ["table", "--points", str(k)]
    elif command == "catalog":
        argv = ["catalog", "make", "weighted_sphere", "--points", str(k)]
    else:
        cfg = cat.make("weighted_sphere").config(k=16)
        if how == "grid.k":
            cfg["grid"]["k"] = k
        argv = [command, "--config", write_config(tmp_path, cfg)]
        if how == "--points":
            argv += ["--points", str(k)]
    assert cli.main(argv) == 2
    assert (capsys.readouterr().err
            == f"error: grid size must be at most 1000000, got {k}\n")


def test_default_tolerances_are_the_thresholds():
    assert cli.DEFAULT_TOLERANCES == dataclasses.asdict(Thresholds())


# (tolerance, override, command, the check row the override fails on the
# weighted_sphere config, which passes it at the defaults)
TOLERANCE_FLIPS = [
    ("residual", 0.0, "verify", "modified_schouten_residual"),
    ("kappa", 0.0, "verify", "scale_spread"),
    ("value", 0.0, "verify", "kappa_expected"),
    ("mu", 0.0, "verify", "mu_spread"),
    ("conformal", 0.0, "conformal", "law_ricci"),
    ("sectional", 0.0, "verify", "branch_global"),   # SpaceForm is lost
    ("constancy", 1e9, "verify", "branch_local"),    # Einstein reads as Trivial
]


def test_every_tolerance_has_a_flip():
    assert [case[0] for case in TOLERANCE_FLIPS] == list(cli.DEFAULT_TOLERANCES)


@pytest.mark.parametrize("key,value,command,row", TOLERANCE_FLIPS,
                         ids=[c[0] for c in TOLERANCE_FLIPS])
def test_tolerance_override_reaches_its_gate(tmp_path, key, value, command, row):
    cfg = cat.make("weighted_sphere").config(k=16)
    if key == "value":
        # kappa_expected reads exactly 0.0 on this config, which a zero gate
        # passes; shifted by 1e-9, far below the default gate, it does not
        cfg["expectations"]["kappa"] += 1e-9
    rep_path = tmp_path / "rep.json"

    def outcome():
        rc = cli.main([command, "--config", write_config(tmp_path, cfg),
                       "--out", str(rep_path)])
        rows = json.loads(rep_path.read_text())["checks"]
        return rc, {r["name"]: r for r in rows}

    rc, rows = outcome()
    assert rc == 0 and rows[row]["passed"]
    cfg["tolerances"] = {key: value}
    rc, rows = outcome()
    assert rc == 1 and not rows[row]["passed"]
    if isinstance(rows[row]["gate"], float):
        assert rows[row]["gate"] == value


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

    def recording(sampler, coords):
        def sample(*args, **kwargs):
            out = sampler(*args, **kwargs)
            grids.append((kwargs.get("cap"), coords(out)))
            return out
        return sample

    monkeypatch.setattr(cli, "sample_points",
                        recording(cli.sample_points, lambda p: p.t))
    monkeypatch.setattr(cli, "sample_grid",
                        recording(cli.sample_grid, lambda ts: ts))
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
        t = pts.at(int(rng.integers(len(pts)))).t
        with monkeypatch.context() as mp:
            poison_ricci_at(mp, t, int(rng.integers(2)))
            assert cli.main(["verify", "--config", path, "--out", rep_path]) == 1
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert math.isnan(rep["residuals"]["modified_schouten"])
        assert rep["classification"]["local"] == "Indeterminate"
        failing = {c["name"] for c in rep["checks"] if not c["passed"]}
        assert {"modified_schouten_residual", "branch_local"} <= failing


def test_contradiction_reports_the_computed_local_branch(tmp_path):
    # hyperbolic space flagged compact: the local branch is Einstein, and
    # the contradiction is global only
    cfg = {
        "schema": 1,
        "custom": {
            "interval": [0.0, 4.0],
            "warping": "sinh(t)",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "1.2 + 0.5*cosh(t)"},
            "m": 2.0, "mu": 1.19,
        },
        "flags": {"complete": True, "compact": True},
        "grid": {"k": 32},
        "expectations": {"lambda": -0.5, "branch_local": "Einstein",
                         "branch_global": "ContradictionError"},
    }
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", rep_path]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    verdict = rep["classification"]
    assert (verdict["local"], verdict["global"]) == ("Einstein", "ContradictionError")
    assert "round sphere" in verdict["contradiction"]
    assert verdict["details"]["residual_Einstein"] <= 1e-8


def _count_kernel_passes(monkeypatch) -> list:
    """Every later point_fields call, from any module, lands in the list."""
    calls = []
    real = weighted.point_fields

    def counted(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("smmskit.") and getattr(module, "point_fields", None) is real:
            monkeypatch.setattr(module, "point_fields", counted)
    return calls


@pytest.mark.parametrize("name", cat.available())
def test_verify_runs_the_kernel_once_per_representative(tmp_path, monkeypatch,
                                                        name):
    # with lambda given: one pass on the base instance, one on its transform
    path = write_config(tmp_path, cat.make(name).config(k=16))
    calls = _count_kernel_passes(monkeypatch)
    assert cli.main(["verify", "--config", path]) == 0
    assert len(calls) == 2


def test_table_runs_the_kernel_once_per_representative(monkeypatch):
    calls = _count_kernel_passes(monkeypatch)
    assert cli.main(["table", "--points", "64"]) == 0
    assert len(calls) == 6  # three signs, each a base and a transformed pass


@pytest.mark.parametrize("name", [n for n in cat.available()
                                  if cat.make(n).pair is not None])
def test_conformal_runs_the_kernel_twice(tmp_path, monkeypatch, name):
    # one pass at the law points, one on the transformed instance
    path = write_config(tmp_path, cat.make(name).config(k=16))
    calls = _count_kernel_passes(monkeypatch)
    assert cli.main(["conformal", "--config", path]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("name", cat.available())
def test_estimated_lambda_comes_from_the_certified_pass(tmp_path, monkeypatch, name):
    # without a declared lambda the scale is read off the base pass itself:
    # still one pass per representative
    cfg = cat.make(name).config(k=16)
    del cfg["expectations"]["lambda"]
    calls = _count_kernel_passes(monkeypatch)
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) in (0, 1)
    assert len(calls) == 2
    del cfg["conformal"], cfg["expectations"]["lambda_hat"]
    calls.clear()
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) in (0, 1)
    assert len(calls) == 1


def _without_conformal(tmp_path, **expect):
    cfg = cat.make("weighted_sphere").config(k=16)
    del cfg["conformal"], cfg["expectations"]["lambda_hat"]
    cfg["expectations"].update(expect)
    return write_config(tmp_path, cfg)


@pytest.mark.parametrize("command", ["verify", "conformal"])
def test_unchecked_expectations_exit_two(tmp_path, capsys, command):
    # lambda_hat is read only against a conformal factor, and a misspelt key
    # is read by nothing: either would let a declared expectation go unchecked
    path = _without_conformal(tmp_path, lambda_hat=123.0)
    assert cli.main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == "error: expectations.lambda_hat needs a \"conformal\" section\n"
    cfg = cat.make("weighted_sphere").config(k=16)
    cfg["expectations"]["branch_globl"] = "SpaceForm"
    assert cli.main([command, "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == "error: unknown expectations: branch_globl\n"


def test_conformal_needs_a_conformal_section(tmp_path, capsys):
    assert cli.main(["conformal", "--config", _without_conformal(tmp_path)]) == 2
    assert (capsys.readouterr().err
            == "error: conformal verification needs a \"conformal\" section\n")


def test_density_not_positive_on_the_grid_exits_two(tmp_path, capsys):
    # v = t - 1.3 is negative on the first grid points; the error names the first
    cfg = {
        "schema": 1,
        "custom": {
            "interval": [0.0, 2.0],
            "warping": "t",
            "fiber": {"kind": "space_form", "dim": 2, "curvature": 1.0},
            "density": {"kind": "radial", "v": "t - 1.3"},
            "n": 3, "m": 2.0,
        },
        "grid": {"k": 16},
    }
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg)]) == 2
    assert (capsys.readouterr().err
            == "error: density v = -1.2 is not positive at PointSpec(t=0.1, s=None)\n")


def test_fiber_that_leaves_sectional_open_verifies(tmp_path):
    # at n = 5 the fiber is an abstract Einstein 4-manifold with no declared
    # Weyl norm: the space-form gate is undefined, not failed
    cfg = cat.make("warping_density", n=5).config(k=64)
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["verify", "--config", write_config(tmp_path, cfg),
                     "--out", rep_path]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["residuals"]["sectional"] is None
    assert rep["classification"]["global"] == "NotApplicable"


def _custom(n, fiber, density, warping="2.0 + 0.5*t"):
    return {"schema": 1,
            "custom": {"interval": [-2.0, 2.0], "warping": warping,
                       "fiber": fiber, "density": density, "n": n, "m": 2.0},
            "conformal": {"u": "0.25*t + 1.5"}}


def _space_form(c):
    return {"kind": "space_form", "dim": 2, "curvature": c}


_SPLIT = {"kind": "split", "v_n": "2 + cos(s)", "alpha": "1.0"}
_WARPED = {"kind": "warped", "interval": [0.0, 8.0], "warping": "s",
           "fiber": {"kind": "einstein", "dim": 2, "einstein_constant": 3.0}}

LAYOUTS = {
    "radial-space-form": _custom(3, _space_form(1.0), {"kind": "radial", "v": "2 + cos(t)"}),
    # the layout is split by the fiber alone: the law points need s
    "radial-warped": _custom(4, _WARPED, {"kind": "radial", "v": "2.0 + 0.0*t"},
                             warping="1.0"),
    "split-sphere": _custom(3, _space_form(1.0), _SPLIT),
    "split-flat": _custom(3, _space_form(0.0), _SPLIT),
    "split-hyperbolic": _custom(3, _space_form(-1.0), _SPLIT),
    "cone_product": cat.make("cone_product").config(k=16),
}


@pytest.mark.parametrize("name", LAYOUTS)
def test_conformal_laws_hold_in_every_layout(tmp_path, name):
    rep_path = str(tmp_path / "rep.json")
    assert cli.main(["conformal", "--config", write_config(tmp_path, LAYOUTS[name]),
                     "--out", rep_path]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert set(rep["law_residuals"]) == {"ricci", "modified_ricci", "schouten", "scalar"}
    assert all(val <= 1e-7 for val in rep["law_residuals"].values())
    assert rep["involution_residual"] <= 1e-7
