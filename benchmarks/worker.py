"""Worker process for run.py: measures one workload and prints one JSON line.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --t0 MONOTONIC [--setup-only]

``--t0`` is the time.monotonic() reading taken by the parent just before
it started this process, so the set-up time includes interpreter start-up.
"""

import os
import sys

if __name__ == "__main__":
    # Cap BLAS and OpenMP pools at the cores this process may use, before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(len(os.sched_getaffinity(0)))
    import argparse
    import json
    from pathlib import Path

    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import harness

    out = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.setup_only, args.t0, str(here.parent))
    print(json.dumps(out))
