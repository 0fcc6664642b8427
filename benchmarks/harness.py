"""Closed-loop runner for one workload, inside one worker process.

One client, one thread: each task starts when the previous one returns and
its output has been checked.  Latency covers the optstab call only, not
the oracle.  A pass runs every task of the workload once, in a fixed
order; passes repeat until the time budget is spent, so every pass does
the same work.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import time
import traceback

import numpy as np

import tracer as tracing
import workloads


def run_task(task, tracer=None, task_id: int = 0) -> tuple:
    """(latency_s, error, rows_written, rows_missing) for one checked call."""
    if tracer is not None:
        tracer.start_task(task_id, task.kind)
    start = time.perf_counter()
    try:
        out = task.run()
        error = None
    except Exception as exc:  # noqa: BLE001 - a raising task is a failed task
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_task(latency)
    if error is not None:
        return latency, error, 0, 0
    try:
        error, written, missing = task.check(out)
    except Exception:  # noqa: BLE001 - an output the oracle cannot read is wrong
        return latency, "check raised: " + traceback.format_exc(limit=3), 0, 0
    return latency, error, written, missing


def run_pass(tasks, tracer=None, first_id: int = 0) -> list:
    return [run_task(t, tracer, first_id + i) for i, t in enumerate(tasks)]


_CAL_X = np.linspace(0.0, 1.0, 3)


def calibrate() -> float:
    """Seconds taken by a fixed kernel of small numpy calls in a Python loop,
    the kind of work optstab does; about 0.7 ms on an unloaded 2.1 GHz core."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.linalg.norm(_CAL_X * i)) + math.sqrt(i)
    return time.perf_counter() - start


def run_pass_calibrated(tasks) -> tuple:
    """One pass, with the calibration kernel timed just before each task."""
    results, cal = [], []
    for task in tasks:
        cal.append(calibrate())
        results.append(run_task(task))
    return results, cal


class Outcomes:
    """Attempted and failed counts with the first few failure messages."""

    def __init__(self):
        self.attempted, self.failed, self.errors = 0, 0, []

    def add(self, tasks, results) -> None:
        for task, (_, error, _, _) in zip(tasks, results):
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{task.kind}: {error}")


def _rows(results) -> tuple:
    return sum(r[2] for r in results), sum(r[3] for r in results)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_only: bool, t0: float, root: str) -> dict:
    """Set up, warm up and run one workload; ``t0`` is when the process began."""
    bench_dir = os.path.join(root, ".bench_work")
    work_dir = os.path.join(bench_dir, f"{workload}-{seed}-{os.getpid()}")
    try:
        tasks = workloads.build(workload, seed, work_dir)
        outcomes = Outcomes()
        warm = workloads.warmup_tasks(tasks)
        outcomes.add(warm, run_pass(warm))
        setup_s = time.monotonic() - t0
        if setup_only:
            return {"setup_s": setup_s}
        result = {"setup_s": setup_s, "pass_size": len(tasks)}
        deadline = time.perf_counter() + seconds
        if trace:
            result.update(_traced(tasks, deadline, outcomes, bench_dir, workload))
        else:
            # more chances to see the machine at full speed, the reference for scaling
            passes, cals = [], [[calibrate() for _ in range(300)]]
            while not passes or time.perf_counter() < deadline:
                res, cal = run_pass_calibrated(tasks)
                outcomes.add(tasks, res)
                passes.append(res)
                cals.append(cal)
            result["latencies"] = [[r[0] for r in res] for res in passes]
            result["calibration"] = cals[1:]
            result["fastest_calibration"] = min(map(min, cals))
            result["rows_written"], result["rows_missing"] = _rows(passes[0])
            result["egi_seeds_rejected"] = sum(t.spec.get("rejected_seeds", 0) for t in tasks)
        result.update(attempted=outcomes.attempted, failed=outcomes.failed,
                      errors=outcomes.errors,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return result
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _traced(tasks, deadline, outcomes, bench_dir, workload) -> dict:
    """Alternate untraced and traced passes; per-layer metrics are per traced pass."""
    tr = tracing.Tracer()
    tr.install()
    try:
        plain, traced = [], []
        while not traced or time.perf_counter() < deadline:
            res = run_pass(tasks)
            outcomes.add(tasks, res)
            plain.append(sum(r[0] for r in res))
            res = run_pass(tasks, tr, first_id=len(traced) * len(tasks))
            outcomes.add(tasks, res)
            traced.append(sum(r[0] for r in res))
    finally:
        tr.uninstall()
    metrics = tr.metrics(len(traced))
    metrics["cli.rows_written"], metrics["cli.rows_missing"] = _rows(res)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics = {name: metrics[name] for name in tracing.PER_LAYER}
    os.makedirs(bench_dir, exist_ok=True)
    tr.write_spans(os.path.join(bench_dir, f"trace-{workload}.csv.gz"))
    return {"per_layer": metrics, "traced_passes": len(traced),
            "traced_wall_s": tr.wall_s / len(traced),
            "layer_self_s": sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)}
