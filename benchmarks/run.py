"""Run one optstab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload exact-geometry --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; optstab is imported from ``src/``.
Each workload run happens in fresh worker processes (see worker.py), one at
a time: with ``--trace 0``, ``SETUPS - 1`` processes only set up and one
sets up and then measures; ``setup_s`` is the median set-up time and the
latencies are scaled to the machine's full speed (see ``end_to_end``).
With ``--trace 1``, one process runs untraced and traced passes in turn and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
whenever that line is printed, whether or not every output was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-geometry", "cli-verifiers", "sampled-oracle")
SETUPS = 3
TIME_LIMIT_S = 170.0
# glibc's default mmap threshold moves with the sizes freed so far, so whether a
# 20 MB distance matrix is mapped afresh (and faulted in) or reused from the heap
# depended on allocation order: the same seed ran at 103 or 123 MB peak and up to
# 30 % slower.  Fixed thresholds make the workers repeat.
ALLOCATOR = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(256 << 20)}


class WorkerError(RuntimeError):
    pass


def spawn(worker_args, deadline: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, **ALLOCATOR, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args, "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the time limit: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(out: dict, setups: list) -> tuple:
    """Latency metrics at the machine's full speed.

    Other tenants of a shared machine slow every run down by a varying
    factor.  The calibration kernel timed just before each task measures that
    factor; each latency is scaled by the fastest calibration of the run over
    the one before the task, and a task's latency is its median over the
    passes, which all run the same tasks.
    """
    cal, fastest = out["calibration"], out["fastest_calibration"]
    scaled = [[lat * fastest / c for lat, c in zip(p, cp)] for p, cp in zip(out["latencies"], cal)]
    per_task = sorted(statistics.median(s) for s in zip(*scaled))
    n = len(per_task)
    q = math.floor(1000.0 * (n - 10) / n) / 10.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "tasks_per_s": (n / sum(per_task), "1/s"),
        "task_p50_ms": (1000.0 * statistics.median(per_task), "ms"),
        "task_tail_ms": (1000.0 * per_task[n - 11], "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "tasks_per_s": f"one pass of {n} tasks",
        "task_p50_ms": f"median over the {n} tasks",
        "task_tail_ms": f"p{q}: 10 of the {n} tasks beyond it",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    slowdown = statistics.median(c for cp in cal for c in cp) / fastest
    machine = (f"{len(scaled)} passes; calibration kernel {1000 * fastest:.3f} ms at its "
               f"fastest, {slowdown:.2f}x that at the median")
    return metrics, notes, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "optstab" / "__init__.py").is_file():
        print(f"no optstab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        if args.trace:
            out = spawn(common, deadline)
        else:
            setups = [spawn(common + ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUPS - 1)]
            out = spawn(common, deadline)
            setups.append(out["setup_s"])
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: closed loop, one client, "
          f"{out['pass_size']} tasks per pass")
    if args.trace:
        with open(ROOT / "BENCHMARK.json") as fh:
            units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in out["per_layer"].items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
        print(f"  traced wall per pass {out['traced_wall_s']:.6f} s = layer self "
              f"{out['layer_self_s']:.6f} s + unattributed "
              f"{out['per_layer']['trace.unattributed_s']:.6f} s "
              f"({out['traced_passes']} traced passes)")
    else:
        metrics, notes, machine = end_to_end(out, setups)
        print(f"  {machine}; latencies are scaled to the fastest")
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:12.4f} {unit:4s}  {notes[name]}")
        print(f"  {'fail_ratio':14s} {out['failed'] / out['attempted']:12.4f} 1     "
              f"{out['failed']} of {out['attempted']} checked calls failed")
        if args.workload == "cli-verifiers":
            print(f"  cli rows per pass: {out['rows_written']} written, "
                  f"{out['rows_missing']} missing (hoffman skips rank-0 draws)")
            print(f"  egi config seeds rejected for a draw with condition number above "
                  f"1e3: {out['egi_seeds_rejected']} (the CLI's unscaled tolerance fails such draws)")
    for err in out["errors"]:
        print(f"  FAILED {err}")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
