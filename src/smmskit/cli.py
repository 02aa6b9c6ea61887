"""Command line interface.

Subcommands:

* ``verify``     check an instance described by a JSON config against its
                 expectations; writes a JSON report and optional CSV
* ``conformal``  verify the conformal transformation laws for a config
                 that carries a conformal factor
* ``catalog``    list the built-in families or emit a config for one
* ``table``      reproduce the three-sign family whose density equals the
                 warping, comparing frozen constants against solved ones

verify, conformal and table sample their grids and render
``classify.certify``'s certificate of each representative (an instance and
its conformal image); the law rows of conformal come from
``conformal.conformal_law_residuals``.  Nothing here runs a kernel pass.

Exit codes: 0 all checks passed, 1 at least one check failed (the report
is still written) or stdout was closed before the output was written, 2 the
config could not be parsed or validated (NaN and +-Infinity are not JSON),
or a number in it took the arithmetic out of the float range.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys

from . import catalog
from .classify import GLOBAL_BRANCHES, LOCAL_BRANCHES, Checks, Thresholds, certify
from .conformal import apply_conformal, conformal_law_residuals, involution_residual
from .errors import SmmsError
from .profiles import DEFAULT_CAP, Profile1D, sample_grid
from .weighted import Instance, sample_points

# the gates as a plain dict, for readers outside the package
DEFAULT_TOLERANCES = dataclasses.asdict(Thresholds())

# the largest grid a command samples
MAX_GRID_POINTS = 10**6


class ConfigError(Exception):
    """The config file is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# config loading

def _not_json(constant: str):
    # Python's json reads NaN and +-Infinity; RFC 8259 has no such numbers
    raise ValueError(f"{constant} is not a JSON number")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_not_json)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, deep nesting
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
    if k > MAX_GRID_POINTS:
        raise ConfigError(f"grid size must be at most {MAX_GRID_POINTS}, got {k}")
    return k


def _instance_from_config(cfg: dict) -> Instance:
    flags = _section(cfg, "flags")
    unknown = set(flags) - {"complete", "compact"}
    if unknown:
        raise ConfigError(f"unknown flags: {', '.join(sorted(unknown))}")
    for key, val in flags.items():
        if not isinstance(val, bool):
            raise ConfigError(f"flags.{key} must be true or false, got {val!r}")
    if "family" in cfg:
        # catalog.make checks each parameter against the shape of its default
        inst = catalog.make(str(cfg["family"]), **_section(cfg, "parameters")).instance
        own = {"complete": inst.complete, "compact": inst.compact}
        if "flags" in cfg and flags != own:
            raise ConfigError(f"flags must be the family's own, {json.dumps(own)}, "
                              f"got {json.dumps(flags)}")
        return inst
    if not isinstance(cfg["custom"], dict):
        raise ConfigError("\"custom\" must be an object")
    if "parameters" in cfg:
        raise ConfigError("\"parameters\" are a catalog family's; a custom config takes none")
    try:
        inst = catalog.custom_instance(cfg["custom"],
                                       complete=flags.get("complete", False),
                                       compact=flags.get("compact", False))
    except KeyError as exc:
        raise ConfigError(f"custom instance needs the key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed custom instance: {exc}") from exc
    return inst


def _tolerances(cfg: dict) -> Thresholds:
    extra = _section(cfg, "tolerances")
    unknown = set(extra) - {f.name for f in dataclasses.fields(Thresholds)}
    if unknown:
        raise ConfigError(f"unknown tolerances: {', '.join(sorted(unknown))}")
    tol = {}
    for key, val in extra.items():
        tol[key] = float(_number(val, f"tolerances.{key}"))
        if tol[key] < 0.0:
            raise ConfigError(f"tolerances.{key} must not be negative, got {val!r}")
    return Thresholds(**tol)


def _expectations(cfg: dict) -> dict:
    """The expectations block; a key that no check reads is an error."""
    expect = _section(cfg, "expectations")
    numbers = ("lambda", "kappa", "mu", "lambda_hat")
    unknown = set(expect) - set(numbers) - {"branch_local", "branch_global"}
    if unknown:
        raise ConfigError(f"unknown expectations: {', '.join(sorted(unknown))}")
    for key in numbers:
        if key in expect:
            _number(expect[key], f"expectations.{key}")
    for key, branches in (("branch_local", LOCAL_BRANCHES),
                          ("branch_global", GLOBAL_BRANCHES + ("ContradictionError",))):
        if key in expect and expect[key] not in branches:
            raise ConfigError(f"expectations.{key} must be one of "
                              f"{', '.join(branches)}, got {expect[key]!r}")
    if "lambda_hat" in expect and "conformal" not in cfg:
        raise ConfigError("expectations.lambda_hat needs a \"conformal\" section")
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


def _conformal_section(cfg: dict) -> dict | None:
    """The conformal section, None when there is none: an object with a
    string "u" and optionally a finite number "nu"; any other key is an
    error."""
    if "conformal" not in cfg:
        return None
    section = cfg["conformal"]
    if not isinstance(section, dict) or not isinstance(section.get("u"), str):
        raise ConfigError("\"conformal\" must be an object with a string \"u\"")
    unknown = set(section) - {"u", "nu"}
    if unknown:
        raise ConfigError(f"unknown conformal keys: {', '.join(sorted(unknown))}")
    if "nu" in section:
        _number(section["nu"], "conformal.nu")
    return section


def _conformal_factor(section: dict, inst: Instance):
    return Profile1D.from_string(section["u"], inst.metric.interval, var="t")


# ---------------------------------------------------------------------------
# checks

def _print_checks(checks: Checks):
    for r in checks.rows:
        flag = "PASS" if r["passed"] else "FAIL"
        if isinstance(r["value"], float) and isinstance(r["gate"], float):
            body = f"{r['value']:.3e} vs gate {r['gate']:.3e}"
        else:
            body = f"{r['value']!r} vs {r['gate']!r}"
        note = f"  ({r['note']})" if r["note"] and not r["passed"] else ""
        print(f"{flag}  {r['name']:34s} {body}{note}")


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


def _certify_image(result, lam_hat: float, k: int, margin: float, cap: float,
                   tol: Thresholds):
    """The transformed instance's certificate at lam_hat, with its summary."""
    hat = result.instance
    hat_pts = sample_points(hat.metric, hat.density, k, margin=margin, cap=cap)
    cert = certify(hat, hat_pts, tol, {"lambda": lam_hat})
    return cert, {"lambda_hat": lam_hat,
                  "residual_P": cert.report.residual_P,
                  "kappa_mean": cert.report.kappa_mean,
                  "kappa_spread": cert.report.kappa_spread}


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    inst = _instance_from_config(cfg)
    tol = _tolerances(cfg)
    k, margin, cap = _grid_args(cfg, args)
    expect = _expectations(cfg)
    section = _conformal_section(cfg)

    pts = sample_points(inst.metric, inst.density, k, margin=margin, cap=cap)
    cert = certify(inst, pts, tol, expect)
    rep, checks, verdict = cert.report, cert.checks, cert.verdict

    hat_summary = None
    if "lambda_hat" in expect:
        result = apply_conformal(inst, _conformal_factor(section, inst))
        hat, hat_summary = _certify_image(result, float(expect["lambda_hat"]),
                                          k, margin, cap, tol)
        checks.bound("transformed_schouten_residual", hat.report.residual_P,
                     tol.residual,
                     note="the conformally transformed instance misses its "
                          "predicted constant")
        checks.bound("transformed_scale_spread", hat.report.kappa_spread,
                     tol.kappa)

    report = {
        "schema": 1,
        "family": cfg.get("family"),
        "parameters": cfg.get("parameters"),
        "lambda": rep.lam,
        "lambda_estimated": "lambda" not in expect,
        "points": len(pts),
        "residuals": {
            "modified_schouten": rep.residual_P,
            "quasi_einstein": rep.residual_QE,
            "einstein": rep.residual_Einstein,
            "tau_consistency": cert.tau_residual,
            "sectional": rep.sec_residual,
            "fiber_ricci_flat": rep.fiber_flat_residual,
            "fiber_quasi_einstein": rep.fiber_be_residual,
        },
        "kappa": {"mean": rep.kappa_mean, "spread": rep.kappa_spread,
                  "expected": expect.get("kappa")},
        "mu": {"declared": inst.params.mu,
               "solved": None if cert.mu is None
               else {"mean": cert.mu[0], "spread": cert.mu[1]},
               "expected": expect.get("mu")},
        "density_spread": rep.v_spread,
        "classification": {"local": verdict.local,
                           "global": verdict.global_branch,
                           "details": {key: val for key, val
                                       in verdict.details.items()
                                       if not isinstance(val, dict)}},
        "conformal": hat_summary,
        "checks": checks.rows,
        "passed": checks.passed,
    }
    if "contradiction" in verdict.details:
        report["classification"]["contradiction"] = verdict.details["contradiction"]

    _print_checks(checks)
    print(f"VERDICT: {'pass' if checks.passed else 'fail'} "
          f"({len(pts)} points, lambda = {rep.lam!r})")
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
    section = _conformal_section(cfg)
    if section is None:
        raise ConfigError("conformal verification needs a \"conformal\" section")
    u = _conformal_factor(section, inst)

    result = apply_conformal(inst, u)
    ts = sample_grid(inst.metric.interval, max(8, min(k, 64)), margin=margin, cap=cap)
    laws = conformal_law_residuals(inst, result, ts)
    inv = involution_residual(inst, result, ts)

    checks = Checks()
    for name, val in laws.items():
        checks.bound(f"law_{name}", val, tol.conformal)
    checks.bound("involution", inv, tol.conformal)

    hat_summary = None
    if "lambda_hat" in expect:
        hat, hat_summary = _certify_image(result, float(expect["lambda_hat"]),
                                          k, margin, cap, tol)
        checks.bound("transformed_schouten_residual", hat.report.residual_P,
                     tol.residual)

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
    _print_checks(checks)
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
    tol = Thresholds()
    rows = []
    ok = True
    for sign, lam in (("positive", 0.5), ("zero", 0.0), ("negative", -0.5)):
        bundle = catalog.make("warping_density", lam=lam)
        inst = bundle.instance
        pts = sample_points(inst.metric, inst.density, k, margin=0.05)
        base = certify(inst, pts, tol, {"lambda": bundle.lam})
        hat, _ = _certify_image(apply_conformal(inst, bundle.pair.u),
                                bundle.pair.lam_hat, k, 0.05, DEFAULT_CAP, tol)
        mu_mean, mu_spread = base.mu
        row = {
            "sign": sign,
            "lambda": bundle.lam,
            "mu_declared": inst.params.mu,
            "mu_solved": mu_mean,
            "mu_spread": mu_spread,
            "kappa_spread": base.report.kappa_spread,
            "residual_QE": base.report.residual_QE,
            "lambda_hat": bundle.pair.lam_hat,
            "residual_hat": hat.report.residual_P,
        }
        rows.append(row)
        ok = ok and (row["residual_QE"] <= tol.residual
                     and mu_spread <= tol.residual
                     and abs(mu_mean - inst.params.mu) <= tol.mu
                     and row["residual_hat"] <= tol.residual)
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

@functools.lru_cache(maxsize=1)  # parse_args leaves the parser as it was
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
    except ArithmeticError as exc:  # a parameter took a float out of its range
        print(f"error: arithmetic out of the float range "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
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
