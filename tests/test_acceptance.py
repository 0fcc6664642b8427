"""Acceptance suite: the binding end-to-end criteria, one test each.

Each test prints one pass/fail line (to the real stdout, so it shows in
captured runs) and enforces its runtime budget.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from optstab.cli import main as cli_main
from optstab.distances import absolute, euclidean, gauge_distance
from optstab.extreal import INF
from optstab.gauges import GaugeSet, minkowski_gauge
from optstab.instances import (axis_segment_family,
                               disk_polygon_scheme, oscillating_blocks,
                               oscillating_objective, quartic_problem,
                               random_cloud, random_piecewise_objective,
                               random_rank_deficient_matrix,
                               segment_sine_objective)
from optstab.ladder import build_ladder
from optstab.linear import (affine_family, decompose, hoffman_check,
                            penrose_residuals, penrose_table,
                            penrose_tolerances, pseudo_inverse)
from optstab.optima import inf_over, sup_over
from optstab.scheme import run_scheme
from optstab.sets import hausdorff


def _criterion(num, desc, limit_s):
    """Time the body, enforce the budget, print exactly one verdict line."""
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.perf_counter() - self.t0
            status = "PASS" if exc_type is None and dt < limit_s else "FAIL"
            print(f"[criterion {num}] {desc}: {status} ({dt:.2f}s / limit {limit_s}s)",
                  file=sys.__stdout__, flush=True)
            if exc_type is None and dt >= limit_s:
                raise AssertionError(f"criterion {num} exceeded {limit_s}s: {dt:.2f}s")
            return False
    return _Ctx()


def _grid_hausdorff_1d(intervals_a, intervals_b, step):
    """Brute-force symmetric Hausdorff between 1-d interval unions on a
    grid, via sorted-array nearest lookups."""
    def grid(intervals):
        return np.sort(np.concatenate(
            [np.arange(lo, hi + step / 2, step) for lo, hi in intervals]))

    def asym(ga, gb):
        idx = np.clip(np.searchsorted(gb, ga), 1, len(gb) - 1)
        near = np.minimum(np.abs(ga - gb[idx - 1]), np.abs(ga - gb[idx]))
        return float(near.max())

    ga, gb = grid(intervals_a), grid(intervals_b)
    return max(asym(ga, gb), asym(gb, ga))


def test_criterion_1_oscillating_interval_instance():
    with _criterion(1, "interval-union counterexample reproduction", 10.0):
        K = 60
        f = oscillating_objective(K)
        d = absolute()
        A = oscillating_blocks(K)
        assert inf_over(f, A).value == 0.0
        assert sup_over(f, A).value == 0.0
        ints_a = [(2.0 * k, 2.0 * k + 1.0) for k in range(2, K + 1)]
        for j in range(2, 51):
            A_j = oscillating_blocks(K, extended_j=j)
            assert inf_over(f, A_j).value == -1.0
            assert sup_over(f, A_j).value == 1.0
            dh = hausdorff(d, A, A_j).value
            assert abs(dh - 1.0 / j) < 1e-12
            ints_b = [(iv.lo, iv.hi) for iv in A_j.intervals]
            brute = _grid_hausdorff_1d(ints_a, ints_b, 1e-4)
            assert abs(brute - 1.0 / j) < 1e-3


def test_criterion_2_axis_segment_instance():
    with _criterion(2, "axis-segment counterexample reproduction", 10.0):
        K = 60
        f = segment_sine_objective(K)
        d = euclidean(K)
        A = axis_segment_family(K)
        assert inf_over(f, A).value == 0.0
        assert sup_over(f, A).value == 0.0
        prev = INF
        for j in range(2, 51):
            A_j = axis_segment_family(K, extended_j=j)
            assert inf_over(f, A_j).value == -1.0
            assert sup_over(f, A_j).value == 1.0
            dh = hausdorff(d, A, A_j).value
            assert dh < prev  # monotone decrease to 0 on the grid
            prev = dh
        assert prev == pytest.approx(1.0 / 50.0, abs=1e-12)


def test_criterion_3_lipschitz_transfer_suite():
    with _criterion(3, "Lipschitz transfer on 500 random piecewise instances", 30.0):
        rng = np.random.default_rng(2024)
        d = absolute()
        for _ in range(500):
            f = random_piecewise_objective(rng)
            lam = f.regularity.lam
            A, Ap = random_cloud(rng), random_cloud(rng)
            dh = hausdorff(d, A, Ap).value
            assert abs(sup_over(f, A).value - sup_over(f, Ap).value) <= lam * dh + 1e-9
            assert abs(inf_over(f, A).value - inf_over(f, Ap).value) <= lam * dh + 1e-9


def test_criterion_4_penrose_egi_suite():
    with _criterion(4, "Penrose identities and inverse property on 200 matrices", 20.0):
        rng = np.random.default_rng(7)
        for _ in range(200):
            L = random_rank_deficient_matrix(rng, max_dim=8)
            lm = decompose(L)
            tol = 1e-9 * (1.0 + float(np.linalg.norm(L)))
            assert all(v < tol for v in penrose_residuals(lm).values())
            _, resid, norm_L, norm_P = penrose_table([L])
            assert np.all(resid <= penrose_tolerances([max(L.shape)], norm_L, norm_P))
            E = pseudo_inverse(lm)
            ts = (L @ rng.standard_normal((200, L.shape[1])).T).T
            for t in ts:
                assert np.linalg.norm(L @ E.apply(t) - t) < 1e-9 * (
                    1.0 + np.linalg.norm(t))


def test_criterion_5_hoffman_bound_suite():
    with _criterion(5, "Hoffman-type bound on 500 random triples", 60.0):
        rng = np.random.default_rng(11)
        norm = lambda y: float(np.linalg.norm(y))
        n_done = 0
        while n_done < 500:
            L = random_rank_deficient_matrix(rng, max_dim=6)
            lm = decompose(L)
            if lm.rank == 0:
                continue
            E = pseudo_inverse(lm)
            fam = affine_family(lm, E)
            s = L @ rng.standard_normal(L.shape[1])
            t = L @ rng.standard_normal(L.shape[1])
            rep = hoffman_check(fam, E, norm, [(s, t)], rng=rng)
            assert rep.passed, rep.rows
            n_done += 1
        # tightness on the coordinate-projection row
        lm = decompose([[1.0, 0.0]])
        E = pseudo_inverse(lm)
        rep = hoffman_check(affine_family(lm, E), E, norm, [([0.0], [1.0])])
        assert abs(rep.rows[0]["D_H"] - 1.0) < 1e-9
        assert abs(rep.rows[0]["bound"] - rep.rows[0]["D_H"]) < 2e-9


def test_criterion_6_quartic_ladder():
    with _criterion(6, "gradient-Lipschitz ladder on the quartic", 10.0):
        P = quartic_problem()
        result = build_ladder(P, list(range(1, 11)),
                              rng=np.random.default_rng(3), n_pairs=10_000)
        for k, t in enumerate(result.radii, start=1):
            assert abs(t - math.sqrt(k)) < 1e-6
        for k, v in enumerate(result.verification, start=1):
            assert v["worst_ratio"] <= k * (1 + 1e-6)
            assert v["verified"]


def test_criterion_7_disk_scheme():
    with _criterion(7, "polygon scheme brackets on the disk", 10.0):
        m_seq = list(range(3, 257))
        cert = run_scheme(disk_polygon_scheme(m_seq))
        for m, r in zip(m_seq, cert.rows):
            assert abs(r["sigma_k"] - (2.0 - math.cos(math.pi / m))) < 1e-12
            assert r["bracket_lo"] <= 1.0 <= r["bracket_hi"]
        assert cert.final_width < 7.6e-5
        assert cert.contains(1.0)


def test_criterion_8_gauge_goldens():
    with _criterion(8, "segment gauge goldens and gauge-close invariance", 5.0):
        C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
        assert abs(minkowski_gauge(C, [3.0, 0.0]) - 3.0) < 1e-10
        assert abs(minkowski_gauge(C, [-4.0, 0.0]) - 2.0) < 1e-10
        assert minkowski_gauge(C, [1.0, 1.0]) == INF
        # f(x) = x2 never moves along gauge-finite directions: pairs at small
        # gauge distance have exactly zero f-difference
        d = gauge_distance(C)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-10, 10, size=(10_000, 2))
        ts = rng.uniform(-0.2, 0.4, size=10_000)
        ys = xs + np.column_stack([ts, np.zeros_like(ts)])
        # gauge of (t, 0) on the segment is t for t >= 0 and |t| / 2 otherwise
        closed = np.where(ts >= 0.0, ts, np.abs(ts) / 2.0)
        assert np.all(closed < 0.5)
        assert np.all(ys[:, 1] - xs[:, 1] == 0.0)
        for i in range(0, 10_000, 100):  # spot-check the LP-backed distance
            assert abs(d.fn(xs[i], ys[i]) - closed[i]) < 1e-9


def test_criterion_9_cli_determinism(tmp_path):
    with _criterion(9, "byte-identical CLI re-runs with fixed seeds", 60.0):
        tables = {}
        for sub in ("first", "second"):
            for kind, fname in (("stability", "stability.csv"),
                                ("hoffman", "hoffman.csv"),
                                ("egi", "egi.csv")):
                cfg = tmp_path / f"{kind}_{sub}.json"
                cfg.write_text(json.dumps(
                    {"kind": kind, "seed": 123,
                     "out_dir": str(tmp_path / f"{kind}_{sub}")}))
                assert cli_main(["run", str(cfg)]) == 0
                tables.setdefault(kind, []).append(
                    (tmp_path / f"{kind}_{sub}" / fname).read_bytes())
        for kind, (a, b) in tables.items():
            assert a == b, f"{kind} tables differ between identical runs"
