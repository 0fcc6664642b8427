"""Self-tests of the benchmark: seeded inputs, oracles and trace accounting.

    python3 -m pytest -q benchmarks
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from optstab import instances, optima, sets  # noqa: E402

# Layers each workload is built to load; together they carry most of its self time.
HEAVY = {
    "exact-geometry": ("distances", "sets", "optima"),
    "sampled-oracle": ("linear", "gauges", "sets", "ladder"),
    "cli-verifiers": ("ladder", "linear", "scheme", "parametric", "instances", "cli"),
}


def _files(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


def _run_warmups(workload, seed, work_dir) -> tuple:
    """Outputs of one task per kind, and every file the run left behind."""
    tasks = workloads.warmup_tasks(workloads.build(workload, seed, str(work_dir)))
    outputs = [repr(task.run()) for task in tasks]
    return outputs, _files(work_dir)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs(workload, tmp_path):
    first = workloads.build(workload, 7, str(tmp_path / "a"))
    files = _files(tmp_path / "a") if (tmp_path / "a").exists() else {}
    shutil.rmtree(tmp_path / "a", ignore_errors=True)
    again = workloads.build(workload, 7, str(tmp_path / "a"))
    assert workloads.inputs_digest(first) == workloads.inputs_digest(again)
    assert files == (_files(tmp_path / "a") if files else {})
    other = workloads.build(workload, 8, str(tmp_path / "b"))
    assert workloads.inputs_digest(first) != workloads.inputs_digest(other)


def test_egi_configs_draw_conditioned_matrices(tmp_path):
    for task in workloads.build("cli-verifiers", 1534451637, str(tmp_path)):
        if task.kind == "cli-egi":
            draws = np.random.default_rng(task.spec["seed"])
            conds = [workloads._cond(instances.random_rank_deficient_matrix(draws, 8))
                     for _ in range(task.spec["n_matrices"])]
            assert max(conds) <= workloads.EGI_MAX_COND


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_outputs_and_tables(workload, tmp_path):
    first = _run_warmups(workload, 3, tmp_path / "w")
    shutil.rmtree(tmp_path / "w", ignore_errors=True)
    assert first == _run_warmups(workload, 3, tmp_path / "w")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_accounts_for_wall_time(workload, tmp_path):
    tasks = workloads.build(workload, 5, str(tmp_path))
    original = sets.hausdorff
    tr = tracing.Tracer()
    tr.install()
    try:
        assert sets.hausdorff is not original and optima.hausdorff is sets.hausdorff
        results = harness.run_pass(tasks, tr)
    finally:
        tr.uninstall()
    assert sets.hausdorff is original and optima.hausdorff is original
    m = tr.metrics(1)
    self_times = {layer: m[f"{layer}.self_s"] for layer in tracing.LAYERS}
    assert all(v >= 0.0 for v in self_times.values())
    wall = sum(r[0] for r in results)
    assert tr.wall_s == pytest.approx(wall, rel=1e-12)
    assert sum(self_times.values()) + m["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= m["trace.unattributed_s"] < 0.05 * wall
    heavy = sum(self_times[layer] for layer in HEAVY[workload])
    assert heavy > 0.5 * sum(self_times.values()), self_times


def test_oracles_reject_changed_values(tmp_path):
    by_kind = {t.kind: t for t in workloads.build("exact-geometry", 2, str(tmp_path))}
    for kind in ("hausdorff-euclidean", "hausdorff-energy", "ce33-hausdorff", "ce34-hausdorff"):
        out = by_kind[kind].run()
        assert by_kind[kind].check(out)[0] is None
        assert by_kind[kind].check(dataclasses.replace(out, value=out.value + 1e-6))[0]
        assert by_kind[kind].check(sets.DistanceReport(out.value, "sampled"))[0]
    out = by_kind["ce33-inf"].run()
    assert by_kind["ce33-inf"].check(dataclasses.replace(out, value=-0.999))[0]
    rep = by_kind["stability"].run()
    rep.rows[0]["sup_A"] += 1e-3
    assert by_kind["stability"].check(rep)[0]


def test_cli_oracle_reads_the_tables(tmp_path):
    by_kind = {t.kind: t for t in workloads.warmup_tasks(
        workloads.build("cli-verifiers", 2, str(tmp_path)))}
    task = by_kind["cli-hausdorff"]
    assert task.check(task.run()) == (None, 1, 0)
    table = next(tmp_path.rglob("hausdorff.csv"))
    header, row = table.read_text().splitlines()
    value = row.split(",")[1]
    table.write_text(header + "\n" + row.replace(value, repr(float(value) + 1e-6)) + "\n")
    assert task.check(0)[0]
    task = by_kind["cli-hoffman"]
    err, written, missing = task.check(task.run())
    assert err is None and written + missing == task.spec["n_triples"]


def test_latencies_scale_to_full_speed():
    # the second pass ran while the calibration kernel took twice as long
    out = {"latencies": [[0.01] * 12, [0.02] * 12], "calibration": [[1e-3] * 12, [2e-3] * 12],
           "fastest_calibration": 1e-3, "peak_rss_mb": 80.0}
    metrics, _, _ = run.end_to_end(out, [0.5, 0.4, 0.6])
    assert metrics["task_p50_ms"][0] == pytest.approx(10.0)
    assert metrics["task_tail_ms"][0] == pytest.approx(10.0)
    assert metrics["tasks_per_s"][0] == pytest.approx(100.0)
    assert metrics["setup_s"][0] == 0.5


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "exact-geometry",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=""))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
