"""Seeded inputs, tasks and independent oracles for the optstab benchmark.

A task is one public optstab call whose output is checked.  ``build``
turns a workload name and a seed into the list of tasks that make up one
pass of that workload; the same seed always gives the same inputs.  Sizes
sit on fixed grids and the seed draws the points, offsets, parameters and
configs, so every seed gives a pass with the same shape of work.

Each task's ``check`` compares the output against an oracle computed here,
from the generated inputs, without going through the code path under test
(numpy brute force, a closed form, or the CSV columns re-derived).  It
returns ``(error, rows_written, rows_missing)``; ``error`` is None when the
output matches.  Only the ``cli-verifiers`` tasks write rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.spatial.distance import cdist

from optstab import (cli, distances, gauges, instances, ladder, linear, optima,
                     sets)

WORKLOADS = ("exact-geometry", "cli-verifiers", "sampled-oracle")
CLI_SLOTS = 4          # cli-verifiers: configs per kind in one pass
CLOUD_PAIRS = 18       # exact-geometry: Euclidean cloud pairs in one pass
REL = 1e-12            # tolerance for values that an oracle recomputes exactly


@dataclass
class Task:
    kind: str
    size: float                    # relative work; the smallest task of a kind warms it up
    spec: dict                     # JSON-able description of the generated inputs
    run: Callable[[], object]
    check: Callable[[object], tuple]


def build(workload: str, seed: int, work_dir: str) -> list:
    """The tasks of one pass, in the order they run in.

    The order is round robin over the task kinds, the same for every seed,
    so that seeds differ in their inputs and not in the sequence of
    allocations (which moves the peak resident size by up to 20 %).
    """
    builders = {"exact-geometry": _exact_geometry, "cli-verifiers": _cli_verifiers,
                "sampled-oracle": _sampled_oracle}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    groups = {}
    for task in builders[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]),
                                   work_dir):
        groups.setdefault(task.kind, []).append(task)
    order = []
    while any(groups.values()):
        order.extend(group.pop(0) for group in groups.values() if group)
    return order


def inputs_digest(tasks) -> str:
    blob = json.dumps([[t.kind, t.spec] for t in tasks], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def warmup_tasks(tasks) -> list:
    """The smallest task of each kind, in first-appearance order."""
    best = {}
    for t in tasks:
        if t.kind not in best or t.size < best[t.kind].size:
            best[t.kind] = t
    return list(best.values())


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _close(a, b, rel=REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _lib(check):
    """Adapt a library-task check returning an error or None."""
    return lambda out: (check(out), 0, 0)


def _report(out, value, mode, rel=REL) -> Optional[str]:
    if out.mode != mode:
        return f"mode {out.mode!r}, expected {mode!r}"
    if not _close(out.value, value, rel):
        return f"value {out.value!r}, oracle {value!r}"
    return None


def _hausdorff_matrix(fwd, bwd) -> float:
    """D_H from fwd[i, j] = d(a_i, b_j) and bwd[j, i] = d(b_j, a_i)."""
    return max(float(fwd.min(axis=1).max()), float(bwd.min(axis=1).max()))


def _halfspace_gauge(A, b, V) -> np.ndarray:
    """Gauge of {x : A x <= b} (every b_i > 0) at each row of V."""
    return np.maximum(0.0, (V @ A.T / b).max(axis=1))


# ---------------------------------------------------------------------------
# exact-geometry
# ---------------------------------------------------------------------------

def _euclid_task(A, B):
    d = distances.euclidean(A.shape[1])
    cA, cB = sets.FiniteCloud(A), sets.FiniteCloud(B)
    D = cdist(A, B)

    def check(out):
        return _report(out, _hausdorff_matrix(D, D.T), "exact")
    return Task("hausdorff-euclidean", A.shape[0] * B.shape[0],
                {"A": A.tolist(), "B": B.tolist()},
                lambda: sets.hausdorff(d, cA, cB), _lib(check))


def _energy_task(a, b):
    d = distances.energy_ladder()
    cA, cB = sets.FiniteCloud(a.astype(float)), sets.FiniteCloud(b.astype(float))
    Ea, Eb = -13.6 / a.astype(float) ** 2, -13.6 / b.astype(float) ** 2
    # d(x, y) = E(y) - E(x): signed and asymmetric, so each direction has its own matrix
    fwd = Eb[None, :] - Ea[:, None]
    bwd = Ea[None, :] - Eb[:, None]

    def check(out):
        return _report(out, _hausdorff_matrix(fwd, bwd), "exact")
    return Task("hausdorff-energy", len(a) * len(b),
                {"A": a.tolist(), "B": b.tolist()},
                lambda: sets.hausdorff(d, cA, cB), _lib(check))


def _ce_tasks(name, K, j, f, d, A, A_j):
    """One counterexample step: inf, sup and D_H, with the catalog goldens."""
    spec = {"instance": name, "K": K, "j": j}

    def opt_check(expected):
        def check(out):
            if out.mode != "exact" or out.value != expected:
                return f"{out.mode} {out.value!r}, expected exactly {expected!r}"
            return None
        return _lib(check)

    def dh_check(out):
        if out.mode != "exact" or abs(out.value - 1.0 / j) >= 1e-12:
            return f"D_H {out.mode} {out.value!r}, expected 1/{j}"
        return None

    return [Task(f"{name}-inf", K, dict(spec, call="inf"),
                 lambda: optima.inf_over(f, A_j), opt_check(-1.0)),
            Task(f"{name}-sup", K, dict(spec, call="sup"),
                 lambda: optima.sup_over(f, A_j), opt_check(1.0)),
            Task(f"{name}-hausdorff", K, dict(spec, call="hausdorff"),
                 lambda: sets.hausdorff(d, A, A_j), _lib(dh_check))]


def _piecewise_expect(f, A, Ap) -> dict:
    """Optimal values and D_H of one stability trial, from point values."""
    xs = np.array([p.lo for p in f.pieces] + [f.pieces[-1].hi])
    ys = np.array([p.val_lo for p in f.pieces] + [f.pieces[-1].val_hi])
    a, b = np.atleast_1d(A.points), np.atleast_1d(Ap.points)
    fa, fb = np.interp(a, xs, ys), np.interp(b, xs, ys)
    D = np.abs(a[:, None] - b[None, :])
    return dict(D_H=_hausdorff_matrix(D, D.T), sup_A=float(fa.max()),
                sup_Ap=float(fb.max()), inf_A=float(fa.min()),
                inf_Ap=float(fb.min()), lam=f.regularity.lam)


def _transfer_error(row, e) -> Optional[str]:
    """Compare one stability row with its oracle; None when they agree."""
    for key in ("D_H", "sup_A", "sup_Ap"):
        if not _close(float(row[key]), e[key], 1e-9):
            return f"{key} {row[key]!r}, oracle {e[key]!r}"
    moved = max(abs(e["sup_A"] - e["sup_Ap"]), abs(e["inf_A"] - e["inf_Ap"]))
    bound = e["lam"] * e["D_H"] + 1e-9
    if moved > bound:
        return f"transfer inequality fails in the oracle: {moved!r} > {bound!r}"
    if not _close(float(row["slack"]), bound - moved, 1e-9):
        return f"slack {row['slack']!r}, oracle {bound - moved!r}"
    if row["verdict"] != "pass":
        return f"verdict {row['verdict']!r} where the transfer holds"
    return None


def _stability_task(f, A, Ap):
    d = distances.absolute()

    def check(rep):
        return _transfer_error(rep.rows[0], _piecewise_expect(f, A, Ap))
    spec = {"pieces": [[p.lo, p.hi, p.val_lo, p.val_hi] for p in f.pieces],
            "A": A.points.tolist(), "Ap": Ap.points.tolist()}
    return Task("stability", len(A) * len(Ap), spec,
                lambda: optima.check_finite_stability(f, d, [(A, Ap)]), _lib(check))


def _exact_geometry(rng, work_dir):
    tasks = []
    # (a) Euclidean cloud pairs, n_A != n_B, log-spaced from 24 to 276 points
    for i in range(CLOUD_PAIRS):
        dim = (2, 3, 5)[i % 3]
        n_a = round(30 * (200 / 30) ** ((i + 0.5) / CLOUD_PAIRS))
        n_b = round(n_a * (1.45 if i % 2 else 0.75))
        A = rng.standard_normal((n_a, dim))
        B = rng.standard_normal((n_b, dim)) + rng.uniform(-1.0, 1.0, dim)
        tasks.append(_euclid_task(A, B))
    # (b) ce33 and (c) ce34 steps at K = 60 and 120
    for name, steps in (("ce33", {60: 10, 120: 6}), ("ce34", {60: 2, 120: 2})):
        for K, n_steps in steps.items():
            if name == "ce33":
                f, d = instances.oscillating_objective(K), distances.absolute()
                A, member, j_hi = instances.oscillating_blocks(K), instances.oscillating_blocks, K - 1
            else:
                f, d = instances.segment_sine_objective(K), distances.euclidean(K)
                A, member, j_hi = instances.axis_segment_family(K), instances.axis_segment_family, K
            for j in rng.choice(np.arange(2, j_hi + 1), size=n_steps, replace=False):
                j = int(j)
                tasks.extend(_ce_tasks(name, K, j, f, d, A, member(K, extended_j=j)))
    # (d) Lipschitz-transfer trials on random piecewise objectives and clouds
    for _ in range(24):
        f = instances.random_piecewise_objective(rng)
        tasks.append(_stability_task(f, instances.random_cloud(rng), instances.random_cloud(rng)))
    # (e) integer clouds under the signed, asymmetric energy-ladder distance
    for i in range(8):
        n_a = 20 + 12 * i
        n_b = n_a + (9 if i % 2 else -7)
        tasks.append(_energy_task(rng.integers(1, 41, n_a), rng.integers(1, 41, n_b)))
    return tasks


# ---------------------------------------------------------------------------
# cli-verifiers
# ---------------------------------------------------------------------------

def _read_csv(path) -> list:
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    cols = header.split(",")
    return [dict(zip(cols, line.split(","))) for line in lines]


def _cli_task(kind, slot, cfg, spec, work_dir, csv_name, check_rows, size):
    """``optstab run`` on one config; ``check_rows(rows)`` returns (error, missing)."""
    base = os.path.join(work_dir, f"{kind}-{slot}")
    cfg_path, out_dir = base + ".json", base
    with open(cfg_path, "w") as fh:
        json.dump(dict(cfg, kind=kind, out_dir=out_dir), fh, indent=2, sort_keys=True)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):   # the CLI prints its summary
            return cli.main(["run", cfg_path])

    def check(code):
        rows = _read_csv(os.path.join(out_dir, csv_name))
        err, missing = check_rows(rows)
        if err is None and code != 0:
            err = f"exit code {code}"
        if err is None:
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = json.load(fh)
            if summary.get("verdict") != "pass" or summary.get("kind") != kind:
                err = f"summary {summary}"
        return err, len(rows), missing
    return Task(f"cli-{kind}", size, spec, run, check)


def _rows_error(rows, expected_ids, id_col, per_row) -> Optional[str]:
    ids = [int(r[id_col]) for r in rows]
    if ids != list(expected_ids):
        return f"{id_col} column {ids[:5]}..., expected {list(expected_ids)[:5]}..."
    for r in rows:
        err = per_row(r)
        if err:
            return f"{id_col} {r[id_col]}: {err}"
    return None


def _pass_verdict(r) -> Optional[str]:
    return None if r["verdict"] == "pass" else f"verdict {r['verdict']}"


def _check_counterexample(j_min, j_max):
    def per_row(r):
        j = int(r["j"])
        if float(r["inf_Aj"]) != -1.0 or float(r["sup_Aj"]) != 1.0:
            return f"optima {r['inf_Aj']}, {r['sup_Aj']}"
        if abs(float(r["D_H"]) - 1.0 / j) >= 1e-12:
            return f"D_H {r['D_H']}"
        return _pass_verdict(r)
    return lambda rows: (_rows_error(rows, range(j_min, j_max + 1), "j", per_row), 0)


def _check_scheme(m_min, m_max):
    def per_row(r):
        m = int(r["m"])
        if abs(float(r["sigma_k"]) - (2.0 - math.cos(math.pi / m))) >= 1e-12:
            return f"sigma_k {r['sigma_k']}"
        if not float(r["bracket_lo"]) <= 1.0 <= float(r["bracket_hi"]):
            return "bracket misses the optimum 1"
        return _pass_verdict(r)
    return lambda rows: (_rows_error(rows, range(m_min, m_max + 1), "m", per_row), 0)


def _check_stability(seed, n):
    def check_rows(rows):
        rng = np.random.default_rng(seed)
        trials = [(instances.random_piecewise_objective(rng), instances.random_cloud(rng),
                   instances.random_cloud(rng)) for _ in range(n)]
        return _rows_error(rows, range(n), "trial",
                           lambda r: _transfer_error(r, _piecewise_expect(*trials[int(r["trial"])]))), 0
    return check_rows


def _rank(L) -> int:
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0


def _check_hoffman(seed, n, max_dim=6):
    """Replays the config's seeded draws: rank-0 matrices write no row."""
    def check_rows(rows):
        rng = np.random.default_rng(seed)
        expect = {}
        for i in range(n):
            L = instances.random_rank_deficient_matrix(rng, max_dim)
            r = _rank(L)
            if r == 0:
                continue
            s = L @ rng.standard_normal(L.shape[1])
            t = L @ rng.standard_normal(L.shape[1])
            if L.shape[1] > r:
                rng.uniform(size=(7, L.shape[1] - r))   # the translation spot-check draws
            P = np.linalg.pinv(L, rcond=1e-12)
            expect[i] = (float(np.linalg.norm(P @ (s - t))),
                         float(np.linalg.norm(P, 2) * np.linalg.norm(s - t)) + 1e-9)

        def per_row(row):
            dh, bound = expect[int(row["triple"])]
            if not (_close(float(row["D_H"]), dh, 1e-9) and _close(float(row["bound"]), bound, 1e-9)):
                return f"D_H {row['D_H']}, bound {row['bound']}; oracle {dh!r}, {bound!r}"
            if float(row["slack"]) != float(row["bound"]) - float(row["D_H"]):
                return "slack is not bound - D_H"
            return _pass_verdict(row)
        return _rows_error(rows, sorted(expect), "triple", per_row), n - len(rows)
    return check_rows


EGI_MAX_COND = 1e3     # cli-verifiers: largest condition number an egi config may draw


def _cond(L) -> float:
    """Condition number of L on its range (1 for rank 0)."""
    s = np.linalg.svd(L, compute_uv=False)
    s = s[s > 1e-12 * s[0]] if s.size and s[0] > 0 else s[:0]
    return float(s[0] / s[-1]) if s.size else 1.0


def _egi_seed(rng, n, max_dim=8) -> tuple:
    """A config seed whose n matrices all have condition number at most
    EGI_MAX_COND, and how many seeds were rejected before it.

    The CLI checks the Penrose identities with the unscaled tolerance
    1e-9 (1 + ||L||_F), which an accurate pseudo-inverse of a matrix with
    condition number from about 4e3 fails, so the workload keeps to the
    matrices that tolerance is meant for (see README, "Failures").
    """
    for rejected in range(10_000):
        seed = int(rng.integers(2 ** 31))
        draws = np.random.default_rng(seed)
        if all(_cond(instances.random_rank_deficient_matrix(draws, max_dim)) <= EGI_MAX_COND
               for _ in range(n)):
            return seed, rejected
    raise RuntimeError("no well-conditioned egi seed in 10 000 tries")


def _check_egi(seed, n, max_dim=8):
    def check_rows(rows):
        rng = np.random.default_rng(seed)
        mats = [instances.random_rank_deficient_matrix(rng, max_dim) for _ in range(n)]

        def per_row(r):
            L = mats[int(r["matrix"])]
            if r["shape"] != f"{L.shape[0]}x{L.shape[1]}" or int(r["rank"]) != _rank(L):
                return f"shape {r['shape']} rank {r['rank']}"
            if not float(r["worst_residual"]) < 1e-9 * (1.0 + float(np.linalg.norm(L))):
                return f"residual {r['worst_residual']} above tolerance"
            return _pass_verdict(r)
        return _rows_error(rows, range(n), "matrix", per_row), 0
    return check_rows


def _check_ladder(n_levels):
    def per_row(r):
        k = int(r["k"])
        if abs(float(r["t_k"]) - math.sqrt(k)) >= 1e-6 or float(r["expected_t"]) != math.sqrt(k):
            return f"t_k {r['t_k']}, expected sqrt({k})"
        if not float(r["worst_ratio"]) <= k * (1 + 1e-6):
            return f"worst_ratio {r['worst_ratio']}"
        return _pass_verdict(r)
    return lambda rows: (_rows_error(rows, range(1, n_levels + 1), "k", per_row), 0)


def _check_parametric(seed, n):
    def check_rows(rows):
        pairs = np.random.default_rng(seed).uniform(-5, 5, size=(n, 2))
        if len(rows) != n:
            return f"{len(rows)} rows, expected {n}", 0
        for i, (r, (t, s)) in enumerate(zip(rows, pairs)):
            # phi(t) = inf{||x|| : x1 = t} = |t|, alpha = Lambda = 1
            if float(r["t"]) != t or float(r["s"]) != s:
                return f"pair {i}: ({r['t']}, {r['s']}) not the seeded pair", 0
            if not (_close(float(r["d_I"]), abs(t - s)) and _close(float(r["observed"]), abs(abs(t) - abs(s)))
                    and _close(float(r["bound"]), abs(t - s) + 1e-9)):
                return f"pair {i}: columns {r}", 0
            err = _pass_verdict(r)
            if err:
                return f"pair {i}: {err}", 0
        return None, 0
    return check_rows


def _hausdorff_sets(rng, slot):
    """Two exact set models of one kind and their closed-form D_H."""
    kind = slot % 3
    if kind == 0:
        # interval unions: B moves each endpoint of A by less than a quarter gap
        lengths, gaps = rng.uniform(1, 2, 6), rng.uniform(2, 3, 6)
        lo = np.cumsum(gaps + np.concatenate([[0.0], lengths[:-1]]))
        ends = np.column_stack([lo, lo + lengths])
        moved = ends + rng.uniform(-0.4, 0.4, ends.shape)
        doc = lambda E: {"kind": "interval_union",
                         "intervals": [[float(a), float(b), True, True] for a, b in E]}
        return doc(ends), doc(moved), float(np.abs(moved - ends).max())
    if kind == 1:
        # axis segments in R^8: D_H is the largest extent difference, 0 where absent
        dim = 8
        ua = np.where(rng.random(dim) < 0.75, rng.uniform(0.5, 2, dim), 0.0)
        ub = np.where(rng.random(dim) < 0.75, rng.uniform(0.5, 2, dim), 0.0)
        ua[0] = ub[0] = 1.0
        doc = lambda u: {"kind": "axis_segments", "dim": dim,
                         "extents": {str(k): [float(v), bool(k % 2)] for k, v in enumerate(u) if v > 0}}
        return doc(ua), doc(ub), float(np.abs(ua - ub).max())
    # parallel affine slabs in R^4: D_H is the normal part of the offset
    K = rng.standard_normal((4, 2))
    pa, pb = rng.standard_normal(4), rng.standard_normal(4)
    q, _ = np.linalg.qr(K)
    delta = pa - pb
    dh = float(np.linalg.norm(delta - q @ (q.T @ delta)))
    doc = lambda p: {"kind": "affine_slab", "particular": p.tolist(),
                     "kernel_basis": K.tolist(), "box_halfwidth": 1000.0}
    return doc(pa), doc(pb), dh


def _check_hausdorff(dh):
    def check_rows(rows):
        if len(rows) != 1:
            return f"{len(rows)} rows", 0
        r = rows[0]
        if r["mode"] != "exact" or not _close(float(r["value"]), dh):
            return f"D_H {r['mode']} {r['value']}, closed form {dh!r}", 0
        return None, 0
    return check_rows


def _cli_verifiers(rng, work_dir):
    os.makedirs(work_dir, exist_ok=True)
    tasks = []
    for slot in range(CLI_SLOTS):
        seed = int(rng.integers(2 ** 31))
        ce = ("ce33", "ce34")[slot % 2]
        j_min = 2 + int(rng.integers(0, 4))
        m_max = 96 + 32 * slot
        n_hoff, n_egi, n_par = 150 + 50 * slot, 400 + 200 * slot, 200 + 100 * slot
        set_a, set_b, dh = _hausdorff_sets(rng, slot)
        egi_seed, rejected = _egi_seed(rng, n_egi)
        paths = []
        for name, doc in (("a", set_a), ("b", set_b)):
            paths.append(os.path.join(work_dir, f"set-{slot}-{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
        specs = [
            ("counterexample", {"instance": ce, "K": 20, "j_min": j_min, "j_max": j_min + 8},
             f"counterexample_{ce}.csv", _check_counterexample(j_min, j_min + 8), 9),
            ("scheme", {"instance": "disk_polygon", "m_min": 3, "m_max": m_max},
             "scheme_disk.csv", _check_scheme(3, m_max), m_max),
            ("stability", {"seed": seed, "n_trials": 20}, "stability.csv",
             _check_stability(seed, 20), 20),
            ("hoffman", {"seed": seed, "n_triples": n_hoff}, "hoffman.csv",
             _check_hoffman(seed, n_hoff), n_hoff),
            ("egi", {"seed": egi_seed, "n_matrices": n_egi}, "egi.csv",
             _check_egi(egi_seed, n_egi), n_egi),
            ("ladder", {"seed": seed, "n_levels": 1}, "ladder.csv", _check_ladder(1), 1),
            ("parametric", {"seed": seed, "n_pairs": n_par}, "parametric.csv",
             _check_parametric(seed, n_par), n_par),
            ("hausdorff", {"seed": seed, "set_a": paths[0], "set_b": paths[1]},
             "hausdorff.csv", _check_hausdorff(dh), 1),
        ]
        for kind, cfg, csv_name, check_rows, size in specs:
            # the spec leaves out file paths, which depend on the work directory
            spec = {k: v for k, v in cfg.items() if k not in ("set_a", "set_b")}
            if kind == "hausdorff":
                spec["sets"] = [set_a, set_b]
            if kind == "egi":
                spec["rejected_seeds"] = rejected
            tasks.append(_cli_task(kind, slot, cfg, spec, work_dir, csv_name, check_rows, size))
    return tasks


# ---------------------------------------------------------------------------
# sampled-oracle
# ---------------------------------------------------------------------------

def _mixed_task(entry, s0, probes, budget, seed):
    f, L, C = entry.objects["objective"], entry.objects["L"], entry.objects["C"]

    def check(rep):
        if not rep["passed"] or rep["excluded"]:
            return f"passed={rep['passed']} excluded={rep['excluded']}"
        # phi(t) = t on the open slab; a sampled inf can only lie above it
        v0 = rep["continuity"]["value"]
        if not s0 - 1e-9 <= v0 <= s0 + 1e-2:
            return f"phi({s0!r}) sampled as {v0!r}"
        return None
    return Task("mixed-box", len(probes), {"s0": s0, "probes": probes, "budget": budget, "seed": seed},
                lambda: linear.example_mixed_constraints(
                    f, L, C, probes, s0=[s0], budget=budget, rng=np.random.default_rng(seed)),
                _lib(check))


def _egi_task(rng, seed, n_samples):
    n = int(rng.integers(3, 5))
    L = rng.standard_normal((3, n))
    A = np.vstack([np.eye(3), -np.eye(3), rng.standard_normal((2, 3))])
    b = rng.uniform(0.5, 2.0, len(A))
    lm, S_X, S_Y = linear.decompose(L), gauges.GaugeSet.from_ball(1.0, n), gauges.GaugeSet.from_halfspaces(A, b)
    # independent lower bound on the Lipschitz constant of the restricted inverse
    U, s, _ = np.linalg.svd(L)
    R, P = U[:, s > 1e-12 * s[0]], np.linalg.pinv(L)
    dirs = np.random.default_rng(seed + 1).standard_normal((4000, R.shape[1])) @ R.T
    ratio = float((np.linalg.norm(dirs @ P.T, axis=1) / _halfspace_gauge(A, b, dirs)).max())

    def check(egi):
        cert = egi.lipschitz_cert
        if cert["mode"] != "sampled-inflated" or not math.isfinite(egi.constant):
            return f"certificate {cert}"
        if egi.constant < ratio:
            return f"constant {egi.constant!r} below the sampled ratio {ratio!r}"
        return None
    return Task("egi-halfspace", n_samples, {"L": L.tolist(), "A": A.tolist(), "b": b.tolist(), "seed": seed},
                lambda: linear.restricted_inverse_egi(lm, S_X, S_Y, rng=np.random.default_rng(seed),
                                                      n_eta_samples=n_samples),
                _lib(check))


def _disk(center, radius):
    return sets.ImplicitSampled(
        member=lambda x: bool(np.linalg.norm(x - center) <= radius),
        sampler=lambda n, rg: center + rg.uniform(-radius, radius, size=(n, 2)),
        dim=2, witness=center)


def _disk_tasks(rng, seed):
    ca, cb = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2) * 0.5
    cb = ca + cb
    ra, rb = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    angle = rng.uniform(0, 2 * math.pi)
    p = ca + (ra + rng.uniform(0.5, 2.0)) * np.array([math.cos(angle), math.sin(angle)])
    A, B = _disk(ca, ra), _disk(cb, rb)
    f, d = instances.target_distance_objective(p), distances.euclidean(2)
    far = float(np.linalg.norm(p - ca))
    spec = {"A": [ca.tolist(), ra], "B": [cb.tolist(), rb], "target": p.tolist(), "seed": seed}

    def one_sided(closed, above):
        # a sampled sup lies below the true sup, a sampled inf above the true inf
        def check(out):
            if out.mode != "sampled":
                return f"mode {out.mode!r} on an implicit set"
            gap = (out.value - closed) if above else (closed - out.value)
            if not -1e-9 <= gap <= 0.1 * ra:
                return f"value {out.value!r}, closed form {closed!r}"
            return None
        return _lib(check)

    dh = float(np.linalg.norm(ca - cb)) + abs(ra - rb)

    def dh_check(out):
        if out.mode != "sampled" or abs(out.value - dh) > 0.1 * max(ra, rb):
            return f"D_H {out.mode} {out.value!r}, closed form {dh!r}"
        return None
    return [Task("disk-sup", 1, dict(spec, call="sup"),
                 lambda: optima.sup_over(f, A, rng=np.random.default_rng(seed)), one_sided(far + ra, False)),
            Task("disk-inf", 1, dict(spec, call="inf"),
                 lambda: optima.inf_over(f, A, rng=np.random.default_rng(seed)), one_sided(far - ra, True)),
            Task("disk-hausdorff", 1, dict(spec, call="hausdorff"),
                 lambda: sets.hausdorff(d, A, B, rng=np.random.default_rng(seed)), _lib(dh_check))]


def _gauge_cloud_task(rng, n_a, n_b):
    A_hs = np.vstack([np.eye(2), -np.eye(2)])
    b = rng.uniform(0.5, 2.0, 4)
    d = distances.gauge_distance(gauges.GaugeSet.from_halfspaces(A_hs, b))
    P, Q = rng.standard_normal((n_a, 2)), rng.standard_normal((n_b, 2)) + rng.uniform(-1, 1, 2)
    cP, cQ = sets.FiniteCloud(P), sets.FiniteCloud(Q)
    # d(x, y) = M_C(y - x), so the two directions use different difference matrices
    fwd = _halfspace_gauge(A_hs, b, (Q[None, :, :] - P[:, None, :]).reshape(-1, 2)).reshape(n_a, n_b)
    bwd = _halfspace_gauge(A_hs, b, (P[None, :, :] - Q[:, None, :]).reshape(-1, 2)).reshape(n_b, n_a)

    def check(out):
        return _report(out, _hausdorff_matrix(fwd, bwd), "exact")
    return Task("hausdorff-gauge", n_a * n_b, {"A": P.tolist(), "B": Q.tolist(), "b": b.tolist()},
                lambda: sets.hausdorff(d, cP, cQ), _lib(check))


def _ladder_task(rng, lam, seed):
    C = gauges.GaugeSet.from_halfspaces(np.vstack([np.eye(2), -np.eye(2)]), rng.uniform(2.5, 4.0, 4))
    # ||x||^4 / 12 has Hessian norm ||x||^2, so the radius for lambda is sqrt(lambda)
    P = ladder.SmoothProblem(
        f=lambda x: float(np.dot(x, x)) ** 2 / 12.0,
        grad=lambda x: (float(np.dot(x, x)) / 3.0) * np.asarray(x, float),
        hess_norm=lambda x: float(np.dot(x, x)), dim=2, y0=[0.0, 0.0], C=C)

    def check(res):
        t = res.radii[0]
        if not res.passed or abs(t - math.sqrt(lam)) > 1e-5:
            return f"radius {t!r} for lambda {lam}, passed={res.passed}"
        return None
    return Task("ladder-sampled", lam, {"lambda": lam, "C": C.halfspace_b.tolist(), "seed": seed},
                lambda: ladder.build_ladder(P, [lam], rng=np.random.default_rng(seed), n_pairs=500),
                _lib(check))


def _sampled_oracle(rng, work_dir):
    tasks = []
    seeds = iter(rng.integers(2 ** 31, size=64).tolist())
    # (a) mixed_box slices: one or two probes next to a seeded base parameter.  With
    # budget 256 the sampled D_H of two slices 0.005 apart can reach eps = 0.1, and
    # the probe then finds no delta (its documented inconclusive outcome); at 512
    # that takes a gap of 0.18 among some 200 accepted points, under 1e-6 a task.
    entry = instances.build("mixed_box")
    for i in range(6):
        s0 = float(rng.uniform(-0.6, 0.6))
        probes = [[s0 + float(v)] for v in rng.uniform(-0.04, 0.04, 1 + i % 2)]
        tasks.append(_mixed_task(entry, s0, probes, 512, next(seeds)))
    # (b) restricted inverse with a halfspace S_Y (the sampled eta loop)
    for _ in range(2):
        tasks.append(_egi_task(rng, next(seeds), 20_000))
    # (c) sup, inf and D_H over implicit sampled disks
    for _ in range(6):
        tasks.extend(_disk_tasks(rng, next(seeds)))
    # (d) clouds under an asymmetric halfspace gauge distance
    for i in range(4):
        n_a = 20 + 12 * i
        tasks.append(_gauge_cloud_task(rng, n_a, n_a + (10 if i % 2 else -6)))
    # (e) one ladder level on a constrained 2-D quartic, Hessian sup sampled
    for lam in (1.0, 2.0, 4.0):
        tasks.append(_ladder_task(rng, lam, next(seeds)))
    return tasks
