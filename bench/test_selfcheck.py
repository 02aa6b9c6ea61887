"""Self-check of the benchmark: tiny runs of every workload.

    python3 -m pytest -q bench/test_selfcheck.py

Each workload runs one operation on a tiny grid, with and without the
tracer, and must print every metric BENCHMARK.json names, with its unit.
One operation with a wrong scale must be counted as failed, which proves the
output checks fail closed; and the runner must refuse a directory that holds
only the benchmark.
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the thread variables and sys.path)
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {"base-sweep": 16, "cli-verify": 16}
# operations in one cli-verify round: nine verify, one table, one conformal
CLI_ROUND = len(workloads.FAMILY_ORDER) + 2

END_TO_END = ("setup_s", "ops_per_s", "points_per_s", "op_s_p50", "op_s_tail",
              "peak_rss_mb")
PER_LAYER = (
    "import.smmskit_s", "import.scipy_integrate_s", "catalog.make_s",
    "profiles.tree_walks_per_point", "odes.jet_calls_per_point",
    "geometry.ricci_calls_per_point", "weighted.residuals_self_s",
    "weighted.solve_mu_s", "weighted.s_per_point",
    "conformal.inverse_calls", "conformal.inverse_calls_per_point",
    "conformal.inverse_s", "conformal.hat_to_base_ratio",
    "conformal.forward_calls", "conformal.forward_s", "conformal.quad_calls",
    "conformal.quad_s", "conformal.apply_s", "conformal.laws_s",
    "conformal.involution_s", "classify.classify_s",
    "profiles.sample_points_s", "cli.main_s", "cli.self_s",
    "check.worst_gate_ratio", "check.nonfinite", "trace.overhead_ratio",
)


def _tiny(workload, trace, **kwargs):
    return run.bench(workload, seed=3, seconds=3600.0, trace=trace,
                     k=TINY[workload], max_ops=kwargs.pop("max_ops", 1),
                     setup_reps=1, **kwargs)


def _assert_printed(lines, metrics, spec):
    text = "\n".join(lines)
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines), (m["name"], text)
    assert any(line.split()[:1] == ["fail_ratio"] for line in lines), text


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics_are_printed_with_units(workload):
    result, lines = _tiny(workload, trace=False)
    assert result["correct"] and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    _assert_printed(lines, result["metrics"], SPEC["end_to_end"])
    for name in END_TO_END:
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0.0, name


@pytest.mark.parametrize("workload,ops", [("base-sweep", 1),
                                          ("cli-verify", CLI_ROUND)])
def test_per_layer_metrics_are_printed_with_units(workload, ops):
    result, lines = _tiny(workload, trace=True, max_ops=ops)
    assert result["correct"] and result["failed"] == 0, lines
    _assert_printed(lines, result["metrics"], SPEC["per_layer"])
    assert set(PER_LAYER) <= set(result["metrics"])
    value = {name: m["value"] for name, m in result["metrics"].items()}
    conformal = ("conformal.inverse_calls", "conformal.forward_calls",
                 "conformal.quad_calls", "conformal.laws_s",
                 "conformal.involution_s", "cli.main_s")
    for name in conformal:
        assert (value[name] == 0) == (workload == "base-sweep"), name
    assert value["trace.overhead_ratio"] > 0.0


def test_spec_lists_the_issue_metrics():
    assert {m["name"] for m in SPEC["end_to_end"]} == set(END_TO_END)
    assert set(PER_LAYER) <= {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()}


@pytest.mark.parametrize("workload,ops,wrong", [
    ("base-sweep", 2, 1),                      # solve and classify
    ("cli-verify", 2, 1),                      # smms verify
    ("cli-verify", CLI_ROUND, CLI_ROUND - 1),  # smms conformal
])
def test_wrong_lambda_is_counted_as_a_failure(workload, ops, wrong):
    result, lines = _tiny(workload, trace=False, max_ops=ops,
                          wrong_lambda_at={wrong})
    assert not result["correct"]
    assert result["failed"] == 1, lines
    assert result["attempted"] == ops + 1  # the warm-up is checked too
    assert any(line.startswith("FAIL ") for line in lines)


def test_sup_propagates_nan_and_gates_reject_it():
    assert math.isnan(workloads.sup([0.1, math.nan, 0.2]))
    assert max([0.1, math.nan, 0.2]) == 0.2  # the builtin max drops it
    out = workloads.Outcome()
    out.gate("residual", math.nan, 1e-8)
    assert not out.ok and out.nonfinite == 1


@pytest.mark.xfail(strict=True, reason="known defect: at n = 2 the classifier "
                   "returns ExpEinstein where the catalog expects SpaceForm")
def test_hyperbolic_plane_gets_the_catalog_branch():
    # criterion 01 draws n from 2..5, so the workloads would include this
    # instance; they draw n >= 3 for weighted_hyperbolic until it is fixed
    op = workloads.BaseOp("weighted_hyperbolic", {"n": 2}, 64)
    outcome = op.check(op.run())
    assert outcome.ok, outcome.problems


def test_inputs_follow_the_seed():
    def draws(seed):
        return workloads.draw_round(random.Random(seed))
    assert draws(7) == draws(7)
    assert draws(7) != draws(8)
    assert [f for f, _ in draws(7)] == list(workloads.FAMILY_ORDER)


def test_refuses_a_directory_without_the_program():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable] + SPEC["command"][1:]
            + ["--workload", "base-sweep", "--seed", "1", "--seconds", "1",
               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
