"""Command line interface.

Subcommands:

* ``verify``     check an instance described by a JSON config against its
                 expectations; writes a JSON report and optional CSV
* ``conformal``  verify the conformal transformation laws for a config
                 that carries a conformal factor
* ``catalog``    list the built-in families or emit a config for one
* ``table``      reproduce the three-sign family whose density equals the
                 warping, comparing frozen constants against solved ones

Exit codes: 0 all checks passed, 1 at least one check failed (the report
is still written) or stdout was closed before the output was written, 2 the
config could not be parsed or validated.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import catalog
from .classify import Thresholds, classify_report
from .conformal import apply_conformal, conformal_law_residuals, involution_residual
from .errors import ContradictionError, SmmsError
from .geometry import PointSpec
from .profiles import DEFAULT_CAP, Profile1D, sample_grid
from .weighted import (
    Instance,
    _mean,
    _per_point,
    einstein_residuals,
    point_fields,
    sample_points,
    solve_mu,
    tau_consistency_residual,
)

DEFAULT_TOLERANCES = {
    "residual": 1e-8,      # sup tensor residuals
    "kappa": 1e-9,         # scale spread and vanishing
    "value": 1e-6,         # expected-vs-measured scalar comparisons
    "mu": 1e-6,            # solved characteristic constant
    "conformal": 1e-7,     # transformation-law residuals
    "sectional": 1e-8,     # space-form gate
    "constancy": 1e-9,     # density spread gate
}


class ConfigError(Exception):
    """The config file is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config loading

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise ConfigError("config needs \"schema\": 1")
    if ("family" in cfg) == ("custom" in cfg):
        raise ConfigError("config needs exactly one of \"family\" or \"custom\"")
    return cfg


def _number(value, where: str, integer: bool = False):
    """value itself if it is a finite JSON number (an integer if asked)."""
    kinds = int if integer else (int, float)
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or (isinstance(value, float) and not math.isfinite(value))):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"{where} must be {kind}, got {value!r}")
    return value


def _section(cfg: dict, key: str) -> dict:
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"\"{key}\" must be an object")
    return section


def _grid_size(k: int) -> int:
    if k < 2:
        raise ConfigError(f"grid size must be at least 2, got {k}")
    return k


def _instance_from_config(cfg: dict) -> Instance:
    if "family" in cfg:
        # catalog.make checks each parameter against the shape of its default
        return catalog.make(str(cfg["family"]), **_section(cfg, "parameters")).instance
    flags = _section(cfg, "flags")
    for key, val in flags.items():
        if not isinstance(val, bool):
            raise ConfigError(f"flags.{key} must be true or false, got {val!r}")
    if not isinstance(cfg["custom"], dict):
        raise ConfigError("\"custom\" must be an object")
    try:
        inst = catalog.custom_instance(cfg["custom"],
                                       complete=flags.get("complete", False),
                                       compact=flags.get("compact", False))
    except KeyError as exc:
        raise ConfigError(f"custom instance needs the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed custom instance: {exc}") from exc
    return inst


def _tolerances(cfg: dict) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    extra = _section(cfg, "tolerances")
    unknown = set(extra) - set(tol)
    if unknown:
        raise ConfigError(f"unknown tolerances: {', '.join(sorted(unknown))}")
    for key, val in extra.items():
        tol[key] = float(_number(val, f"tolerances.{key}"))
        if tol[key] < 0.0:
            raise ConfigError(f"tolerances.{key} must not be negative, got {val!r}")
    return tol


def _expectations(cfg: dict) -> dict:
    expect = _section(cfg, "expectations")
    for key in ("lambda", "kappa", "mu", "lambda_hat"):
        if key in expect:
            _number(expect[key], f"expectations.{key}")
    return expect


def _grid_args(cfg: dict, args) -> tuple:
    grid = _section(cfg, "grid")
    k = _grid_size(args.points if args.points is not None
                   else _number(grid.get("k", 1000), "grid.k", integer=True))
    margin = float(args.margin if args.margin is not None
                   else _number(grid.get("margin", 0.05), "grid.margin"))
    if not 0.0 <= margin < 0.5:
        raise ConfigError(f"grid margin must lie in [0, 0.5), got {margin!r}")
    cap = float(_number(grid.get("cap", DEFAULT_CAP), "grid.cap"))
    if not cap > 0.0:
        raise ConfigError(f"grid.cap must be positive, got {cap!r}")
    return k, margin, cap


def _conformal_factor(cfg: dict, inst: Instance):
    section = cfg["conformal"]
    if not isinstance(section, dict) or not isinstance(section.get("u"), str):
        raise ConfigError("\"conformal\" must be an object with a string \"u\"")
    return Profile1D.from_string(section["u"], inst.metric.interval, var="t")


def _estimate_lambda(instance: Instance, pts: PointSpec) -> float:
    """Mean of tr P_f^m / n over about 64 of the grid points, in one kernel
    pass on them; the same floats as a loop over the points."""
    every = slice(None, None, max(1, len(pts) // 64))
    sample = PointSpec(pts.t[every], None if pts.s is None else pts.s[every])
    with np.errstate(all="ignore"):  # as on floats: inf and NaN, no warning
        schouten = point_fields(instance.metric, instance.density,
                                instance.params, sample).p
        return _mean(_per_point(schouten.trace() / instance.params.n,
                                len(sample)))


# ---------------------------------------------------------------------------
# checks

class Checks:
    def __init__(self):
        self.rows = []

    def add(self, name: str, value, gate, passed: bool, note: str = ""):
        self.rows.append({"name": name, "value": value, "gate": gate,
                          "passed": bool(passed), "note": note})

    def bound(self, name: str, value: float, gate: float, note: str = ""):
        self.add(name, value, gate, value <= gate, note)

    def close(self, name: str, value: float, expected: float, gate: float,
              note: str = ""):
        self.add(name, abs(value - expected), gate,
                 abs(value - expected) <= gate,
                 note or f"measured {value!r}, expected {expected!r}")

    def equal(self, name: str, value, expected, note: str = ""):
        self.add(name, value, expected, value == expected,
                 note or f"got {value!r}, expected {expected!r}")

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.rows)

    def print(self, stream=None):
        stream = stream if stream is not None else sys.stdout
        for r in self.rows:
            flag = "PASS" if r["passed"] else "FAIL"
            if isinstance(r["value"], float) and isinstance(r["gate"], float):
                body = f"{r['value']:.3e} vs gate {r['gate']:.3e}"
            else:
                body = f"{r['value']!r} vs {r['gate']!r}"
            note = f"  ({r['note']})" if r["note"] and not r["passed"] else ""
            print(f"{flag}  {r['name']:34s} {body}{note}", file=stream)


def _write_report(path: str | None, report: dict):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, rep):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "s", "p_dev", "qe_dev", "rho_dev",
                         "kappa", "v", "tau_f"])
        pts = rep.points
        ss = [""] * len(pts) if pts.s is None else pts.s.tolist()
        writer.writerows(zip(pts.t.tolist(), ss, rep.p_dev.tolist(),
                             rep.qe_dev.tolist(), rep.rho_dev.tolist(),
                             rep.kappa.tolist(), rep.v.tolist(),
                             rep.tau_f.tolist()))


def _transformed_residuals(result, lam_hat: float, k: int, margin: float,
                           cap: float):
    """Transformed residuals at the predicted scale, with their report summary."""
    hat = result.instance
    hat_pts = sample_points(hat.metric, hat.density, k, margin=margin, cap=cap)
    hat_rep = einstein_residuals(hat.metric, hat.density, hat.params, lam_hat,
                                 hat_pts, with_diagnostics=False)
    return hat_rep, {"lambda_hat": lam_hat,
                     "residual_P": hat_rep.residual_P,
                     "kappa_mean": hat_rep.kappa_mean,
                     "kappa_spread": hat_rep.kappa_spread}


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    inst = _instance_from_config(cfg)
    tol = _tolerances(cfg)
    k, margin, cap = _grid_args(cfg, args)
    expect = _expectations(cfg)

    pts = sample_points(inst.metric, inst.density, k, margin=margin, cap=cap)
    lam_known = "lambda" in expect
    lam = float(expect["lambda"]) if lam_known else _estimate_lambda(inst, pts)

    rep = einstein_residuals(inst.metric, inst.density, inst.params, lam, pts,
                             with_diagnostics=True)
    tau_res = tau_consistency_residual(rep)

    checks = Checks()
    checks.bound("modified_schouten_residual", rep.residual_P, tol["residual"])
    checks.bound("scale_spread", rep.kappa_spread, tol["kappa"])
    checks.bound("tau_consistency_residual", tau_res, tol["residual"],
                 note="weighted scalar curvature disagrees with the trace "
                      "identity; a wrong characteristic constant mu shows up here")

    mu_solved = None
    if inst.params.m != 1.0:
        mu_mean, mu_spread = solve_mu(inst.metric, inst.density, inst.params,
                                      lam, pts)
        mu_solved = {"mean": mu_mean, "spread": mu_spread}
        checks.bound("mu_spread", mu_spread, tol["mu"])
        checks.close("mu_consistency", mu_mean, inst.params.mu, tol["mu"])

    if "kappa" in expect:
        checks.close("kappa_expected", rep.kappa_mean, float(expect["kappa"]),
                     tol["value"])
    if "mu" in expect and mu_solved is not None:
        checks.close("mu_expected", mu_solved["mean"], float(expect["mu"]),
                     tol["mu"])

    thresholds = Thresholds(residual=tol["residual"], kappa=tol["kappa"],
                            constancy=tol["constancy"],
                            sectional=tol["sectional"])
    contradiction = None
    try:
        cls = classify_report(inst, lam, rep, thresholds=thresholds)
        local_branch, global_branch = cls.local, cls.global_branch
        details = cls.details
    except ContradictionError as exc:
        contradiction = str(exc)
        local_branch, global_branch = "Trivial", "ContradictionError"
        details = {"contradiction": contradiction}
    if "branch_local" in expect:
        checks.equal("branch_local", local_branch, str(expect["branch_local"]))
    if "branch_global" in expect:
        checks.equal("branch_global", global_branch,
                     str(expect["branch_global"]))

    hat_summary = None
    if "conformal" in cfg and "lambda_hat" in expect:
        result = apply_conformal(inst, _conformal_factor(cfg, inst))
        hat_rep, hat_summary = _transformed_residuals(
            result, float(expect["lambda_hat"]), k, margin, cap)
        checks.bound("transformed_schouten_residual", hat_rep.residual_P,
                     tol["residual"],
                     note="the conformally transformed instance misses its "
                          "predicted constant")
        checks.bound("transformed_scale_spread", hat_rep.kappa_spread,
                     tol["kappa"])

    report = {
        "schema": 1,
        "family": cfg.get("family"),
        "parameters": cfg.get("parameters"),
        "lambda": lam,
        "lambda_estimated": not lam_known,
        "points": len(pts),
        "residuals": {
            "modified_schouten": rep.residual_P,
            "quasi_einstein": rep.residual_QE,
            "einstein": rep.residual_Einstein,
            "tau_consistency": tau_res,
            "sectional": rep.sec_residual,
            "fiber_ricci_flat": rep.fiber_flat_residual,
            "fiber_quasi_einstein": rep.fiber_be_residual,
        },
        "kappa": {"mean": rep.kappa_mean, "spread": rep.kappa_spread,
                  "expected": expect.get("kappa")},
        "mu": {"declared": inst.params.mu, "solved": mu_solved,
               "expected": expect.get("mu")},
        "density_spread": rep.v_spread,
        "classification": {"local": local_branch, "global": global_branch,
                           "details": {key: val for key, val in details.items()
                                       if not isinstance(val, dict)}},
        "conformal": hat_summary,
        "checks": checks.rows,
        "passed": checks.passed,
    }
    if contradiction:
        report["classification"]["contradiction"] = contradiction

    checks.print()
    print(f"VERDICT: {'pass' if checks.passed else 'fail'} "
          f"({len(pts)} points, lambda = {lam!r})")
    _write_report(args.out, report)
    if args.csv:
        _write_csv(args.csv, rep)
    return 0 if checks.passed else 1


# ---------------------------------------------------------------------------
# conformal

def _cmd_conformal(args) -> int:
    cfg = _load_config(args.config)
    inst = _instance_from_config(cfg)
    tol = _tolerances(cfg)
    k, margin, cap = _grid_args(cfg, args)
    expect = _expectations(cfg)
    if "conformal" not in cfg:
        raise ConfigError("conformal verification needs a \"conformal\" section")
    u = _conformal_factor(cfg, inst)

    result = apply_conformal(inst, u)
    ts = sample_grid(inst.metric.interval, max(8, min(k, 64)), margin=margin, cap=cap)
    laws = conformal_law_residuals(inst, u, result, ts)
    inv = involution_residual(inst, u, ts)

    checks = Checks()
    for name, val in laws.items():
        checks.bound(f"law_{name}", val, tol["conformal"])
    checks.bound("involution", inv, tol["conformal"])

    hat_summary = None
    if "lambda_hat" in expect:
        hat_rep, hat_summary = _transformed_residuals(
            result, float(expect["lambda_hat"]), k, margin, cap)
        checks.bound("transformed_schouten_residual", hat_rep.residual_P,
                     tol["residual"])

    report = {
        "schema": 1,
        "family": cfg.get("family"),
        "factor": u.to_string(),
        "law_residuals": laws,
        "involution_residual": inv,
        "transformed": hat_summary,
        "checks": checks.rows,
        "passed": checks.passed,
    }
    checks.print()
    print(f"VERDICT: {'pass' if checks.passed else 'fail'}")
    _write_report(args.out, report)
    return 0 if checks.passed else 1


# ---------------------------------------------------------------------------
# catalog

def _coerce(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_catalog(args) -> int:
    if args.action == "list":
        width = max(len(n) for n in catalog.available())
        for name in catalog.available():
            spec = catalog.FAMILIES[name]
            defaults = ", ".join(f"{k}={v!r}" for k, v in
                                 catalog.defaults_of(name).items())
            print(f"{name:{width}s}  {spec.summary}")
            print(f"{'':{width}s}  defaults: {defaults}")
        return 0
    # make
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key] = _coerce(val)
    bundle = catalog.make(args.name, **overrides)
    k = _grid_size(1000 if args.points is None else args.points)
    cfg = bundle.config(k=k)
    text = json.dumps(cfg, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# table

def _cmd_table(args) -> int:
    k = _grid_size(400 if args.points is None else args.points)
    gate = 1e-8
    rows = []
    ok = True
    for sign, lam in (("positive", 0.5), ("zero", 0.0), ("negative", -0.5)):
        bundle = catalog.make("warping_density", lam=lam)
        inst = bundle.instance
        pts = sample_points(inst.metric, inst.density, k, margin=0.05)
        rep = einstein_residuals(inst.metric, inst.density, inst.params,
                                 bundle.lam, pts)
        mu_mean, mu_spread = solve_mu(inst.metric, inst.density, inst.params,
                                      bundle.lam, pts)
        hat_rep, _ = _transformed_residuals(apply_conformal(inst, bundle.pair.u),
                                            bundle.pair.lam_hat, k, 0.05, DEFAULT_CAP)
        row = {
            "sign": sign,
            "lambda": bundle.lam,
            "mu_declared": inst.params.mu,
            "mu_solved": mu_mean,
            "mu_spread": mu_spread,
            "kappa_spread": rep.kappa_spread,
            "residual_QE": rep.residual_QE,
            "lambda_hat": bundle.pair.lam_hat,
            "residual_hat": hat_rep.residual_P,
        }
        rows.append(row)
        ok = ok and (rep.residual_QE <= gate and mu_spread <= gate
                     and abs(mu_mean - inst.params.mu) <= 1e-6
                     and hat_rep.residual_P <= gate)
    header = (f"{'sign':9s} {'lambda':>8s} {'mu decl':>10s} {'mu solved':>12s} "
              f"{'QE resid':>10s} {'kap sprd':>10s} {'lam_hat':>9s} {'hat resid':>10s}")
    print(header)
    for r in rows:
        print(f"{r['sign']:9s} {r['lambda']:8.3f} {r['mu_declared']:10.6f} "
              f"{r['mu_solved']:12.8f} {r['residual_QE']:10.2e} "
              f"{r['kappa_spread']:10.2e} {r['lambda_hat']:9.4f} "
              f"{r['residual_hat']:10.2e}")
    print(f"VERDICT: {'pass' if ok else 'fail'}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="smms",
        description="verify weighted Einstein instances on warped products")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify a config against its expectations")
    v.add_argument("--config", required=True)
    v.add_argument("--out", help="write the JSON report here")
    v.add_argument("--csv", help="write per-point records here")
    v.add_argument("--points", type=int, help="override the grid size")
    v.add_argument("--margin", type=float, help="override the grid margin")
    v.set_defaults(fn=_cmd_verify)

    c = sub.add_parser("conformal",
                       help="verify the conformal transformation laws")
    c.add_argument("--config", required=True)
    c.add_argument("--out", help="write the JSON report here")
    c.add_argument("--points", type=int, help="override the grid size")
    c.add_argument("--margin", type=float, help="override the grid margin")
    c.set_defaults(fn=_cmd_conformal)

    cat = sub.add_parser("catalog", help="list families or emit a config")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    cl = cat_sub.add_parser("list", help="list the built-in families")
    cl.set_defaults(fn=_cmd_catalog, action="list")
    cm = cat_sub.add_parser("make", help="emit a verification config")
    cm.add_argument("name")
    cm.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="override a family parameter (JSON literal)")
    cm.add_argument("--out", help="write the config here")
    cm.add_argument("--points", type=int, help="grid size stored in the config")
    cm.set_defaults(fn=_cmd_catalog, action="make")

    t = sub.add_parser("table",
                       help="reproduce the three-sign warping-density family")
    t.add_argument("--points", type=int)
    t.add_argument("--csv", help="write the table here")
    t.set_defaults(fn=_cmd_table)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        rc = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return rc
    except (ConfigError, SmmsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull so
        # the flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
