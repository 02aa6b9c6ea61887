"""Workload definitions for the smmskit benchmark.

Each workload turns a seed into an endless stream of rounds of operations
for one closed-loop client (the next operation starts when the previous one
has finished); a round draws each of the workload's families once.  An
operation has a timed part, ``run``, that calls the public API or the
``smms`` command line in process, and an untimed part, ``check``, that
decides from the program's outputs whether the operation succeeded.  The
checks fail closed: every sup is recomputed with a NaN-propagating max, a
non-finite value is a failure, and a gate reads ``not (value <= gate)`` so
that NaN never passes.

Importing this module needs ``smmskit`` on ``sys.path``; ``run.py`` and
``setup_probe.py`` arrange that.  Calls into the package go through module
attributes (``weighted.einstein_residuals``), never through names bound at
import time, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random

from checks import Outcome, sup
from smmskit import catalog, cli, weighted
from smmskit.errors import ContradictionError

# the package re-exports a function named classify over the module's name
classify = importlib.import_module("smmskit.classify")

# Order within a round: radial families (one base coordinate per grid point,
# so a grid of k points has k distinct base coordinates) alternate with split
# or nested families (a sqrt(k) x sqrt(k) (t, s) grid with only sqrt(k)
# distinct base coordinates), so that even the self-check's one- and
# two-operation runs meet both kinds.
FAMILY_ORDER = (
    "weighted_sphere",
    "cone_product",
    "exponential_warped",
    "neck_warped",
    "weighted_hyperbolic",
    "skew_sphere_density",
    "warping_density",
    "weighted_euclidean",
    "constant_density",
)

# Gates the checks apply; the same defaults the command line uses.
RESIDUAL_GATE = cli.DEFAULT_TOLERANCES["residual"]
KAPPA_GATE = cli.DEFAULT_TOLERANCES["kappa"]
VALUE_GATE = cli.DEFAULT_TOLERANCES["value"]
MU_GATE = cli.DEFAULT_TOLERANCES["mu"]
CONFORMAL_GATE = cli.DEFAULT_TOLERANCES["conformal"]

# Added to the expected scale of an operation the self-check corrupts on
# purpose; far above every gate, so the operation must fail.
WRONG_LAMBDA_SHIFT = 0.25

# The warm-up operation: the cheapest family on a tiny grid.
WARMUP_FAMILY = "cone_product"
WARMUP_K = 16


def draw_params(rng: random.Random, family: str) -> dict:
    """Parameter overrides drawn inside the ranges acceptance criteria 01,
    04 and 06 sweep; families those criteria do not sweep keep their
    catalog defaults."""
    if family in ("weighted_sphere", "weighted_euclidean", "weighted_hyperbolic"):
        # weighted_hyperbolic starts at n = 3: at n = 2 the classifier returns
        # ExpEinstein where the catalog expects SpaceForm, a known defect that
        # test_selfcheck.py keeps as a strict xfail
        n_lo = 3 if family == "weighted_hyperbolic" else 2
        out = {"n": rng.randint(n_lo, 5), "m": rng.uniform(0.8, 3.5)}
        if family == "weighted_sphere":
            out["lam"] = rng.uniform(0.3, 1.2)
            out["a"] = rng.uniform(0.8, 2.5)
            out["b"] = rng.uniform(-0.8, 0.8) * out["a"]
        elif family == "weighted_euclidean":
            out["a"] = rng.uniform(0.5, 2.0)
            out["b"] = rng.uniform(0.0, 1.5)
        else:
            out["lam"] = rng.uniform(-1.2, -0.3)
            out["a"] = rng.uniform(0.0, 1.5)
            out["b"] = rng.uniform(0.3, 1.5)
        return out
    if family == "warping_density":
        sign = rng.choice((1, 0, -1))
        out = {"n": rng.randint(3, 5), "m": rng.uniform(1.4, 4.0),
               "c": rng.uniform(0.5, 2.0)}
        if sign > 0:
            out["lam"] = rng.uniform(0.3, 1.2)
            out["pair_k"] = (out["c"] / math.sqrt(2.0 * out["lam"])
                             + rng.uniform(0.1, 1.5))
        elif sign == 0:
            out["lam"] = 0.0
            out["pair_k"] = rng.uniform(0.5, 2.0)
        else:
            out["lam"] = rng.uniform(-1.2, -0.3)
            out["pair_k"] = rng.uniform(0.2, 2.0)
        return out
    if family == "exponential_warped":
        return {"n": rng.randint(2, 4), "m": rng.uniform(1.3, 3.0),
                "lam": rng.uniform(-1.2, -0.3), "a": rng.uniform(0.5, 2.0),
                "b": rng.uniform(0.3, 1.5), "kappa": rng.uniform(-1.5, -0.1)}
    if family == "neck_warped":
        return {"m": rng.choice((2.2, 2.5, 3.0, 3.7))}
    return {}


def draw_round(rng: random.Random) -> list:
    """One (family, parameters) draw per family, in rotation order."""
    return [(family, draw_params(rng, family)) for family in FAMILY_ORDER]


# ---------------------------------------------------------------------------
# fail-closed checks of command-line outputs

def _check_rows(out: Outcome, rows: list):
    """Re-evaluates every check row of a command-line report."""
    for row in rows:
        if not row.get("passed"):
            out.problems.append(f"report row {row.get('name')!r} did not pass")
        value, gate = row.get("value"), row.get("gate")
        if isinstance(gate, float) and not isinstance(value, str):
            out.gate(f"row {row.get('name')}", value, gate)


def _load_json(path: str, out: Outcome):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        out.problems.append(f"cannot read {os.path.basename(path)}: {exc}")
        return None


def _read_csv(path: str, out: Outcome) -> list:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        out.problems.append(f"cannot read {os.path.basename(path)}: {exc}")
        return []


def _column(rows: list, key: str) -> list:
    return [float(r[key]) for r in rows]


def _fresh(path: str) -> str:
    """Removes an earlier output at path, so a stale file never passes a check."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    return path


def _quiet_main(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# operations

class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    label = "op"

    def run(self):
        raise NotImplementedError

    def check(self, result) -> Outcome:
        raise NotImplementedError


class BaseOp(Op):
    """make -> sample_points -> einstein_residuals -> solve_mu -> classify."""

    def __init__(self, family: str, params: dict, k: int, lam_shift: float = 0.0):
        self.family, self.params, self.k = family, params, k
        self.label = family
        self.lam_shift = lam_shift

    def run(self):
        bundle = catalog.make(self.family, **self.params)
        inst = bundle.instance
        lam = bundle.lam + self.lam_shift
        pts = weighted.sample_points(inst.metric, inst.density, self.k)
        rep = weighted.einstein_residuals(inst.metric, inst.density, inst.params,
                                          lam, pts, with_diagnostics=True)
        mu = None
        if inst.params.m != 1.0:
            mu = weighted.solve_mu(inst.metric, inst.density, inst.params, lam, pts)
        try:
            cls = classify.classify_report(inst, lam, rep)
            branches = (cls.local, cls.global_branch)
        except ContradictionError:
            branches = (None, "ContradictionError")
        return bundle, rep, mu, branches

    def check(self, result) -> Outcome:
        bundle, rep, mu, branches = result
        out = Outcome(points=len(rep.points))
        for name in ("p_dev", "qe_dev", "rho_dev", "tau_f", "kappa", "v"):
            out.finite(name, getattr(rep, name))
        out.gate("modified_schouten_residual", sup(rep.p_dev), RESIDUAL_GATE)
        kap = rep.kappa
        out.gate("scale_spread", sup(kap) - min(kap), KAPPA_GATE)
        out.gate("kappa_expected", abs(sum(kap) / len(kap) - bundle.kappa),
                 VALUE_GATE)
        if mu is not None:
            mu_mean, mu_spread = mu
            out.gate("mu_spread", mu_spread, MU_GATE)
            out.gate("mu_consistency", abs(mu_mean - bundle.params.mu), MU_GATE)
        if bundle.branch_global == "ContradictionError":
            out.equal("branch_global", branches[1], "ContradictionError")
        else:
            out.equal("branch_local", branches[0], bundle.branch_local)
            out.equal("branch_global", branches[1], bundle.branch_global)
        return out


class _CliOp(Op):
    """An in-process ``smms`` invocation whose outputs land in ``workdir``."""

    def __init__(self, family: str, params: dict, workdir: str, tag: str,
                 k: int, lam_key: str, lam_shift: float):
        self.family = family
        self.label = family
        self.k = k
        self.bundle = catalog.make(family, **params)
        cfg = self.bundle.config(k=k)
        cfg["expectations"][lam_key] += lam_shift
        self.config = os.path.join(workdir, f"{tag}.config.json")
        self.report = _fresh(os.path.join(workdir, f"{tag}.report.json"))
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)

    def run(self):
        return _quiet_main(self.argv())


class VerifyOp(_CliOp):
    """``smms verify`` with a JSON report and the per-point CSV."""

    def __init__(self, family, params, workdir, tag, k, lam_shift=0.0):
        super().__init__(family, params, workdir, tag, k, "lambda", lam_shift)
        self.csv = _fresh(os.path.join(workdir, f"{tag}.points.csv"))

    def argv(self):
        return ["verify", "--config", self.config, "--out", self.report,
                "--csv", self.csv]

    def check(self, rc) -> Outcome:
        out = Outcome()
        out.equal("exit code", rc, 0)
        rep = _load_json(self.report, out)
        rows = _read_csv(self.csv, out)
        if rep is None or not rows:
            out.problems.append("verify wrote no report or no per-point rows")
            return out
        out.equal("verdict", rep.get("passed"), True)
        _check_rows(out, rep.get("checks", []))
        hat = rep.get("conformal")
        out.points = len(rows) * (2 if hat else 1)
        # recompute every sup from the per-point records
        res = rep.get("residuals", {})
        for col, key in (("p_dev", "modified_schouten"),
                         ("qe_dev", "quasi_einstein"),
                         ("rho_dev", "einstein")):
            vals = _column(rows, col)
            out.finite(col, vals)
            top = sup(vals)
            if not (top == res.get(key)):
                out.problems.append(f"{key}: report says {res.get(key)!r}, "
                                    f"per-point sup is {top!r}")
        out.gate("modified_schouten_residual", sup(_column(rows, "p_dev")),
                 RESIDUAL_GATE)
        kap = _column(rows, "kappa")
        out.finite("kappa", kap)
        out.finite("tau_f", _column(rows, "tau_f"))
        out.gate("scale_spread", sup(kap) - min(kap), KAPPA_GATE)
        out.gate("tau_consistency_residual", res.get("tau_consistency"),
                 RESIDUAL_GATE)
        if self.bundle.pair is not None:
            if not hat:
                out.problems.append("report lacks the transformed instance")
            else:
                out.gate("transformed_schouten_residual", hat.get("residual_P"),
                         RESIDUAL_GATE)
                out.gate("transformed_scale_spread", hat.get("kappa_spread"),
                         KAPPA_GATE)
        return out


class ConformalOp(_CliOp):
    """``smms conformal``: transformation laws, involution, transformed residual."""

    def __init__(self, family, params, workdir, tag, points, lam_shift=0.0):
        super().__init__(family, params, workdir, tag, points, "lambda_hat",
                         lam_shift)
        self.label = f"{family} (conformal)"
        self.points = points

    def argv(self):
        return ["conformal", "--config", self.config, "--points",
                str(self.points), "--out", self.report]

    def check(self, rc) -> Outcome:
        out = Outcome()
        out.equal("exit code", rc, 0)
        rep = _load_json(self.report, out)
        if rep is None:
            return out
        out.equal("verdict", rep.get("passed"), True)
        _check_rows(out, rep.get("checks", []))
        laws = rep.get("law_residuals") or {}
        for name in ("ricci", "modified_ricci", "schouten", "scalar"):
            out.gate(f"law_{name}", laws.get(name), CONFORMAL_GATE)
        out.gate("involution", rep.get("involution_residual"), CONFORMAL_GATE)
        hat = rep.get("transformed") or {}
        out.gate("transformed_schouten_residual", hat.get("residual_P"),
                 RESIDUAL_GATE)
        # law points (each also mapped to the image) plus the transformed grid
        inst = self.bundle.instance
        law_pts = max(8, min(self.points, 64))
        grid = inst.metric.grid(self.points, s_active=inst.density.s_active(inst.metric))
        out.points = law_pts + len(grid)
        return out


class TableOp(Op):
    """``smms table``: the three-sign warping-density family."""

    label = "table"

    def __init__(self, workdir: str, tag: str, k: int):
        self.k = k
        self.csv = _fresh(os.path.join(workdir, f"{tag}.table.csv"))

    def run(self):
        return _quiet_main(["table", "--points", str(self.k), "--csv", self.csv])

    def check(self, rc) -> Outcome:
        out = Outcome()
        out.equal("exit code", rc, 0)
        rows = _read_csv(self.csv, out)
        out.equal("table rows", len(rows), 3)
        for r in rows:
            sign = r.get("sign")
            out.gate(f"{sign} residual_QE", float(r["residual_QE"]), RESIDUAL_GATE)
            out.gate(f"{sign} mu_spread", float(r["mu_spread"]), RESIDUAL_GATE)
            out.gate(f"{sign} mu_solved",
                     abs(float(r["mu_solved"]) - float(r["mu_declared"])), MU_GATE)
            out.gate(f"{sign} residual_hat", float(r["residual_hat"]), RESIDUAL_GATE)
        # each row certifies a base grid and a transformed grid of k points
        out.points = 2 * self.k * len(rows)
        return out


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """A seeded, endless stream of rounds; a round draws every family once.

    ``wrong_lambda_at`` lists operation indices whose expected scale is
    shifted by WRONG_LAMBDA_SHIFT; only the self-check sets it, to prove
    the checks fail closed.
    """

    name = "?"
    why = ""

    def __init__(self, seed: int, workdir: str, k: int | None = None,
                 wrong_lambda_at=()):
        self.seed = seed
        self.workdir = workdir
        self.k = self.default_k if k is None else k
        self.wrong_lambda_at = frozenset(wrong_lambda_at)

    def shift(self, index: int) -> float:
        return WRONG_LAMBDA_SHIFT if index in self.wrong_lambda_at else 0.0

    def build_round(self):
        """Builds one round of the workload's instances and configs; this
        is the set-up a fresh process pays before its first operation."""
        rng = random.Random(self.seed)
        return [catalog.make(family, **params).config(k=self.k)
                for family, params in draw_round(rng)]

    def rounds(self):
        """Yields the operations of one round at a time, as lists."""
        rng = random.Random(self.seed)
        index = 0
        while True:
            ops = []
            draws = draw_round(rng)
            for family, params in draws:
                ops.append(self.make_op(index, family, params))
                index += 1
            for op in self.round_extra(index, dict(draws)):
                ops.append(op)
                index += 1
            yield ops

    def make_op(self, index: int, family: str, params: dict) -> Op:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        """A small untimed operation that runs before the timed ones."""
        return VerifyOp(WARMUP_FAMILY, {}, self.workdir, "warmup", WARMUP_K)

    def round_extra(self, index: int, draws: dict) -> list:
        """Operations that close a round; ``draws`` maps family to parameters."""
        return []


class BaseSweep(Workload):
    name = "base-sweep"
    why = ("pointwise kernel only (profiles/jets/geometry/odes/weighted); "
           "the conformal map does no work")
    # At k = 1000 a round takes about 3.3 s on a 2-core VM, so a 40-s run
    # holds about twelve rounds; a slow stretch of a shared machine drops that
    # below eleven, and op_s_tail (the 11th-slowest operation) then jumps from
    # the neck_warped band (about 1 s) to the next family (about 0.4 s).  At
    # k = 500 a run holds over twenty rounds and the tail stays in that band.
    default_k = 500

    def make_op(self, index, family, params):
        return BaseOp(family, params, self.k, self.shift(index))

    def warmup_op(self):
        return BaseOp(WARMUP_FAMILY, {}, WARMUP_K)


class CliVerify(Workload):
    name = "cli-verify"
    why = ("smms verify/table/conformal in process: the transformed grid inverts "
           "the coordinate map point by point, conformal builds and composes maps")
    # At k = 1000 one round of verify takes about 45 s on a 2-core VM, longer
    # than a run; at k = 250 it takes 5-8 s.  A radial grid still has k
    # distinct base coordinates and a split grid sqrt(k), so both sides of
    # the inversion cost are in the mix.
    default_k = 250
    # `smms conformal` builds maps instead of querying a sorted grid; at this
    # commit it takes 5-7 s, so it runs once per round, on the round's sphere
    conformal_family = "weighted_sphere"
    conformal_points = 64

    def make_op(self, index, family, params):
        return VerifyOp(family, params, self.workdir, f"op{index}", self.k,
                        self.shift(index))

    def round_extra(self, index, draws):
        family = self.conformal_family
        return [TableOp(self.workdir, f"op{index}", self.k),
                ConformalOp(family, draws[family], self.workdir, f"op{index + 1}",
                            self.conformal_points, self.shift(index + 1))]


WORKLOADS = {w.name: w for w in (BaseSweep, CliVerify)}
