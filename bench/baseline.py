"""Runs every workload over several seeds and records the distribution.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload in BENCHMARK.json it runs the benchmark command once per
seed with ``--trace 0`` and once with ``--trace 1`` on the first seed, all
at the spec's ``run_seconds``, one run at a time.  It prints each
end-to-end metric's median and its spread, the distance between the first
and third quartile as a share of the median, and writes everything to
``--out``.  A run that fails or reports ``correct: false`` stops it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                         + "\n".join(lines[-25:]))
    return result


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="range a-b")
    ap.add_argument("--out", help="write the JSON summary here")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in seeds:
            result = run_once(spec, workload, seed, trace=0)
            print(f"{workload} seed {seed}: {result['attempted']} ops", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        out["end_to_end"][workload] = {
            name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
        for name, s in out["end_to_end"][workload].items():
            print(f"  {name:16s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.3f} (bound {bounds[name]})", flush=True)
        traced = run_once(spec, workload, seeds[0], trace=1)
        out["per_layer"][workload] = traced["metrics"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
