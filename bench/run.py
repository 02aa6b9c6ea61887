"""smmskit benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload base-sweep --seed 1 --seconds 40 --trace 0

``--trace 0`` runs the workload for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` runs it with the layer tracer installed for half that
time, replays the same operations untraced to measure the tracer's overhead,
reports the per-layer metrics and writes the spans to ``bench/out/``.  Every
operation's outputs are checked (see ``workloads.py``); the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads, metrics and their units are listed in
``bench/README.md``.
"""

import os

# one thread: fixed before numpy loads here or in any set-up probe
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PROBE = os.path.join(HERE, "setup_probe.py")
sys.path[:0] = [SRC, HERE]

import tracer as tracing  # noqa: E402
from checks import Outcome  # noqa: E402

SETUP_REPS = 5           # fresh processes per run; setup_s is their median
TAIL_BEYOND = 10         # samples required beyond the reported tail latency
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "points_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}


def _package_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "smmskit", "__init__.py"))


# ---------------------------------------------------------------------------
# measurement

class Record(NamedTuple):
    label: str
    latency: float
    outcome: Outcome
    hat_ratio: float | None = None   # traced runs only, see hat_to_base


# per-point diagnostics that only base residual calls compute
DIAGNOSTICS = ("weighted.sectional_residual_at", "weighted._fiber_diagnostics")


def residual_totals(tr) -> tuple:
    """(base s, base points, transformed s, transformed points) traced so
    far; the base time leaves out the diagnostics."""
    return (tr.inclusive(tracing.RES_BASE) - tr.inclusive(*DIAGNOSTICS),
            tr.items(tracing.RES_BASE),
            tr.inclusive(tracing.RES_HAT), tr.items(tracing.RES_HAT))


def hat_to_base(before: tuple, after: tuple):
    """Transformed over base residual time per point within one operation;
    None unless the operation computed both."""
    base_s, base_n, hat_s, hat_n = (a - b for a, b in zip(after, before))
    if not (base_n and hat_n):
        return None
    return (hat_s / hat_n) / (base_s / base_n)


def run_op(op, tracer=None) -> Record:
    """Runs one operation (timed) and checks its outputs (untimed)."""
    error = None
    ratio = None
    if tracer is not None:
        before = residual_totals(tracer)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            tracer.active = True
            result = tracer.call("bench.op", op.run, (), {})
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{op.label}: {type(exc).__name__}: {exc}"
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            ratio = hat_to_base(before, residual_totals(tracer))
    if error is not None:
        return Record(op.label, latency, Outcome(problems=[error]), ratio)
    try:
        outcome = op.check(result)
    except Exception as exc:  # unreadable output fails the operation
        outcome = Outcome(
            problems=[f"{op.label}: check raised {type(exc).__name__}: {exc}"])
    return Record(op.label, latency, outcome, ratio)


def run_loop(rounds, seconds: float, max_ops=None, tracer=None) -> list:
    """Closed loop over whole rounds: a round starts while time is left, so
    every family of the workload runs equally often."""
    records = []
    start = time.perf_counter()
    for ops in rounds:
        for op in ops:
            records.append(run_op(op, tracer))
            if max_ops is not None and len(records) >= max_ops:
                return records
        if time.perf_counter() - start >= seconds:
            return records
    return records


def measure_setup(workload: str, seed: int, reps: int) -> dict:
    """Medians over ``reps`` fresh interpreters running setup_probe.py."""
    samples = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, PROBE, "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.realpath(rec.pop("smmskit_file")).startswith(
                os.path.realpath(SRC) + os.sep):
            raise RuntimeError("set-up probe imported smmskit from outside src/")
        samples.append(rec)
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def tail_latency(latencies: list) -> tuple:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it, or the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


# ---------------------------------------------------------------------------
# metrics

def end_to_end(records: list, setup: dict) -> tuple:
    lat = [r.latency for r in records]
    busy = sum(lat)
    ok = [r for r in records if r.outcome.ok]
    tail, pct, beyond = tail_latency(lat)
    metrics = {
        "setup_s": setup["setup_s"],
        "ops_per_s": len(ok) / busy,
        "points_per_s": sum(r.outcome.points for r in ok) / busy,
        "op_s_p50": statistics.median(lat),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPS} fresh processes",
        "ops_per_s": f"{len(ok)} verified ops in {busy:.3f} s of op time",
        "points_per_s": f"{sum(r.outcome.points for r in ok)} points",
        "op_s_p50": f"{len(lat)} samples",
        "op_s_tail": f"p{pct:.1f}, {beyond} of {len(lat)} samples beyond",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, notes


PER_LAYER_UNITS = {
    "import.smmskit_s": "s",
    "import.scipy_integrate_s": "s",
    "catalog.make_s": "s",
    "profiles.tree_walks_per_point": "calls/point",
    "odes.jet_calls_per_point": "calls/point",
    "geometry.ricci_calls_per_point": "calls/point",
    "weighted.residuals_self_s": "s/op",
    "weighted.solve_mu_s": "s/op",
    "weighted.s_per_point": "s/point",
    "conformal.inverse_calls": "calls/op",
    "conformal.inverse_calls_per_point": "calls/point",
    "conformal.inverse_s": "s/op",
    "conformal.hat_to_base_ratio": "1",
    "conformal.forward_calls": "calls/op",
    "conformal.forward_s": "s/op",
    "conformal.quad_calls": "calls/op",
    "conformal.quad_s": "s/op",
    "conformal.apply_s": "s/op",
    "conformal.laws_s": "s/op",
    "conformal.involution_s": "s/op",
    "classify.classify_s": "s/op",
    "profiles.sample_points_s": "s/op",
    "cli.main_s": "s/op",
    "cli.self_s": "s/op",
    "check.worst_gate_ratio": "1",
    "check.nonfinite": "count",
    "trace.overhead_ratio": "1",
    **{f"{m}.self_s": "s/op" for m in tracing.MODULES},
}


def per_layer(tr, records: list, setup: dict, overhead: float) -> dict:
    n = len(records)
    points = sum(r.outcome.points for r in records)

    def per_op(x):
        return x / n

    def per_point(x):
        return x / points if points else 0.0

    res_base, res_hat = tracing.RES_BASE, tracing.RES_HAT
    ratios = [r.hat_ratio for r in records if r.hat_ratio is not None]
    metrics = {
        "import.smmskit_s": setup["import_smmskit_s"],
        "import.scipy_integrate_s": setup["import_scipy_integrate_s"],
        "catalog.make_s": setup["catalog_make_s"],
        "profiles.tree_walks_per_point": per_point(
            tr.calls("profiles.Profile1D.jet", "profiles.Profile1D.value")),
        "odes.jet_calls_per_point": per_point(
            tr.calls("odes.OdeProfile.jet", "odes.DerivedProfile.jet")),
        "geometry.ricci_calls_per_point": per_point(tr.calls("geometry.ricci")),
        "weighted.residuals_self_s": per_op(
            tr.self_time(res_base) + tr.self_time(res_hat)),
        "weighted.solve_mu_s": per_op(tr.inclusive("weighted.solve_mu")),
        "weighted.s_per_point": per_point(tr.inclusive(res_base, res_hat)),
        "conformal.inverse_calls": per_op(tr.calls("conformal.ConformalMap.inverse")),
        "conformal.inverse_calls_per_point": per_point(
            tr.calls("conformal.ConformalMap.inverse")),
        "conformal.inverse_s": per_op(tr.inclusive("conformal.ConformalMap.inverse")),
        "conformal.hat_to_base_ratio": statistics.median(ratios) if ratios else 0.0,
        "conformal.forward_calls": per_op(tr.calls("conformal.ConformalMap.forward")),
        "conformal.forward_s": per_op(tr.inclusive("conformal.ConformalMap.forward")),
        "conformal.quad_calls": per_op(tr.calls("conformal.quad")),
        "conformal.quad_s": per_op(tr.inclusive("conformal.quad")),
        "conformal.apply_s": per_op(tr.inclusive("conformal.apply_conformal")),
        "conformal.laws_s": per_op(tr.inclusive("conformal.conformal_law_residuals")),
        "conformal.involution_s": per_op(tr.inclusive("conformal.involution_residual")),
        "classify.classify_s": per_op(tr.inclusive("classify.classify_report")),
        "profiles.sample_points_s": per_op(tr.inclusive("weighted.sample_points")),
        "cli.main_s": per_op(tr.inclusive("cli.main")),
        "cli.self_s": per_op(tr.module_self("cli")),
        "check.worst_gate_ratio": max(r.outcome.worst_ratio for r in records),
        "check.nonfinite": sum(r.outcome.nonfinite for r in records),
        "trace.overhead_ratio": overhead,
    }
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = per_op(tr.module_self(module))
    return metrics


# ---------------------------------------------------------------------------
# entry points

def bench(workload: str, seed: int, seconds: float, trace: bool, k=None,
          max_ops=None, setup_reps=SETUP_REPS, wrong_lambda_at=()) -> tuple:
    """Runs one benchmark; returns (result JSON object, report lines).

    ``k``, ``max_ops`` and ``wrong_lambda_at`` shrink or corrupt the run for
    the self-check; the command line always uses the workload defaults.
    """
    # workloads imports smmskit, which only a checkout provides; main()
    # checks for it before getting here
    import smmskit
    import workloads
    if not os.path.realpath(smmskit.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"smmskit was imported from {smmskit.__file__}, not {SRC}")
    cls = workloads.WORKLOADS[workload]
    lines = [f"workload {workload} (seed {seed}): {cls.why}"]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup = measure_setup(workload, seed, setup_reps)
        wl = cls(seed, workdir, k=k, wrong_lambda_at=wrong_lambda_at)
        warm = run_op(wl.warmup_op())
        if not trace:
            records = run_loop(wl.rounds(), seconds, max_ops)
            metrics, notes = end_to_end(records, setup)
            units = END_TO_END_UNITS
            checked = [warm] + records
        else:
            tr = tracing.Tracer()
            tr.install()
            try:
                records = run_loop(wl.rounds(), seconds / 2.0, max_ops, tracer=tr)
            finally:
                tr.uninstall()
            replay = cls(seed, workdir, k=k, wrong_lambda_at=wrong_lambda_at)
            untraced = run_loop(replay.rounds(), float("inf"), len(records))
            overhead = (sum(r.latency for r in records)
                        / sum(r.latency for r in untraced))
            metrics = per_layer(tr, records, setup, overhead)
            units = PER_LAYER_UNITS
            notes = {}
            spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
            tr.write(spans)
            lines.append(f"{len(records)} traced ops, {len(tr.spans)} spans "
                         f"written to {os.path.relpath(spans, ROOT)}")
            checked = [warm] + records + untraced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in checked if not r.outcome.ok]
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"  {name:36s} {value:14.6g} {units[name]}{note}")
    lines.append(f"  {'fail_ratio':36s} {len(failed) / len(checked):14.6g} 1"
                 f"  ({len(failed)} of {len(checked)} ops failed)")
    for r in failed[:20]:
        lines.append(f"FAIL {r.label}: " + "; ".join(r.outcome.problems[:3]))
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("base-sweep", "cli-verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not _package_present():
        print(f"error: no smmskit package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    result, lines = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
