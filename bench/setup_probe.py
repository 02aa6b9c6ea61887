"""Set-up cost of one fresh process, printed as one JSON line.

Times ``import scipy.integrate`` (which pulls numpy), the rest of
``import smmskit.cli``, and building one round of the workload's instances
and configs through ``catalog.make``.  ``run.py`` starts this script several
times per run and reports the median; run it by hand as

    python3 bench/setup_probe.py --workload base-sweep --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

T1 = time.perf_counter()
import scipy.integrate  # noqa: E402,F401
T2 = time.perf_counter()
import smmskit.cli  # noqa: E402,F401
T3 = time.perf_counter()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    import workloads
    t4 = time.perf_counter()
    workloads.WORKLOADS[args.workload](args.seed, workdir="").build_round()
    t5 = time.perf_counter()
    print(json.dumps({
        "import_scipy_integrate_s": T2 - T1,
        "import_smmskit_s": (T1 - T0) + (T3 - T2),
        "catalog_make_s": t5 - t4,
        "setup_s": (T3 - T0) + (t5 - t4),
        "smmskit_file": smmskit.cli.__file__,
    }))


if __name__ == "__main__":
    main()
