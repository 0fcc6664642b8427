"""``optstab run`` against the per-row loops it replaced, byte for byte.

A run now does once what it did once per row: ``main`` builds its parser
once per process, a counterexample sweep builds its objective, A and the
goldens on A once (``instances._oscillating_steps``), the Hoffman kind
draws with the rank each matrix was built with and takes one stacked SVD
per shape, replaying the draws from the seed where an SVD rank differs, and
the egi kind reads its rows from column arrays.

The references below are the bodies as they stood before: one
``instances.build`` per j, one SVD per matrix inside the Hoffman draw loop
(through ``decompose``, then the table of those matrices), and one
reduction per egi row.  Both sides run on the same LAPACK and BLAS, so
equality pins the arithmetic without a build-dependent golden.

The properties run derandomized.  With ``OPTSTAB_RANDOMIZE=1`` they draw
at the ``--hypothesis-seed`` given to pytest instead, so a failure seen at
a fresh seed can be replayed with that seed.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optstab
from optstab import cli, instances, linear
from optstab.cli import main
from optstab.instances import _rank_deficient_draw, random_rank_deficient_matrix
from optstab.linear import (_hoffman_table_of_svds, _stacked_svds, _svd, decompose,
                            penrose_table, penrose_tolerances)
from optstab.optima import VerdictReport

SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
FORCED_TOL_RANK = 0.3   # cuts about a third of the drawn ranks below the built one


# ---------------------------------------------------------------------------
# the per-row bodies, as references
# ---------------------------------------------------------------------------

def _ref_exp_counterexample(cfg: dict, out_dir: str):
    """``optstab run counterexample`` with one ``instances.build`` per j."""
    name = cfg["instance"]
    K, j_min = cfg.get("K", 60), cfg.get("j_min", 2)
    j_max = cfg.get("j_max", 50)
    rows = []
    ok = True
    for j in range(j_min, j_max + 1):
        try:
            e = instances.build(name, K=K, j=j)
        except ValueError as exc:
            raise cli.ConfigError(f"{name} with K = {K}, j = {j}: {exc}") from exc
        g = dict((q, a) for q, _, a in e.goldens)
        verdict = (g["INF_f(A_j)"] == -1.0 and g["SUP_f(A_j)"] == 1.0
                   and g["INF_f(A)"] == 0.0 and g["SUP_f(A)"] == 0.0
                   and abs(g["D_H(A, A_j)"] - 1.0 / j) < 1e-12)
        ok = ok and verdict
        rows.append(dict(j=j, inf_Aj=g["INF_f(A_j)"], sup_Aj=g["SUP_f(A_j)"],
                         D_H=g["D_H(A, A_j)"], expected_D_H=1.0 / j,
                         verdict="pass" if verdict else "fail"))
    VerdictReport(["j", "inf_Aj", "sup_Aj", "D_H", "expected_D_H", "verdict"], rows).to_csv(
        os.path.join(out_dir, f"counterexample_{name}.csv"))
    return ok, {"instance": name, "rows": len(rows)}


def _ref_exp_hoffman(cfg: dict, out_dir: str):
    """``optstab run hoffman`` with one SVD per matrix inside the draw loop:
    each matrix's SVD rank decides the draws that follow."""
    rng = np.random.default_rng(cfg["seed"])
    n, max_dim = cfg.get("n_triples", 50), cfg.get("max_dim", 6)
    triples, maps, pairs, draws = [], [], [], []
    for i in range(n):
        L = random_rank_deficient_matrix(rng, max_dim)
        lm = decompose(L)
        if lm.rank == 0:
            continue
        cols = L.shape[1]
        s = L @ rng.standard_normal(cols)
        t = L @ rng.standard_normal(cols)
        triples.append(i)
        maps.append(lm)
        pairs.append((s, t))
        draws.append(rng.random((7, cols - lm.rank)))
    rep = _hoffman_table_of_svds(_stacked_svds([lm.matrix for lm in maps]), pairs, draws)
    rows = [dict(triple=i, D_H=r["D_H"], bound=r["bound"], slack=r["slack"],
                 verdict=r["verdict"]) for i, r in zip(triples, rep.rows)]
    VerdictReport(["triple", "D_H", "bound", "slack", "verdict"], rows).to_csv(
        os.path.join(out_dir, "hoffman.csv"))
    return rep.passed, {"n_triples": n, "rows": len(rows), "skipped_rank0": n - len(rows)}


def _ref_exp_egi(cfg: dict, out_dir: str):
    """``optstab run egi`` with one reduction and conversion per row."""
    rng = np.random.default_rng(cfg["seed"])
    n, max_dim = cfg.get("n_matrices", 50), cfg.get("max_dim", 8)
    mats = [random_rank_deficient_matrix(rng, max_dim) for _ in range(n)]
    rank, resid, norm_L, norm_P = penrose_table(mats)
    tol = penrose_tolerances([max(L.shape) for L in mats], norm_L, norm_P)
    good = np.all(resid <= tol, axis=1)
    rows = [dict(matrix=i, shape=f"{L.shape[0]}x{L.shape[1]}", rank=int(rank[i]),
                 worst_residual=float(resid[i].max()),
                 verdict="pass" if good[i] else "fail")
            for i, L in enumerate(mats)]
    VerdictReport(["matrix", "shape", "rank", "worst_residual", "verdict"], rows).to_csv(
        os.path.join(out_dir, "egi.csv"))
    return bool(good.all()), {"n_matrices": n}


def _ref_draw_ranks(seed: int, n: int, max_dim: int) -> list:
    """(built rank, SVD rank) of each matrix the per-matrix draw loop draws."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        L, built = _rank_deficient_draw(rng, max_dim)
        rank = int(_svd(L)[3])
        out.append((built, rank))
        if rank:
            cols = L.shape[1]
            rng.standard_normal(cols), rng.standard_normal(cols)
            rng.random((7, cols - rank))
    return out


# ---------------------------------------------------------------------------
# running a config both ways
# ---------------------------------------------------------------------------

def _run(cfg: dict, kind_body=None) -> tuple:
    """(exit code, stdout, stderr, {file: bytes}) of ``optstab run`` on cfg,
    with the kind's body replaced by ``kind_body`` if one is given."""
    with tempfile.TemporaryDirectory() as d:
        out_dir = os.path.join(d, "out")
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as fh:
            json.dump(dict(cfg, out_dir=out_dir), fh)
        patch = ({cfg["kind"]: kind_body} if kind_body is not None else {})
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(cli._KINDS, patch), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(["run", path])
        files = {}
        if os.path.isdir(out_dir):
            for f in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, f), "rb") as fh:
                    files[f] = fh.read()
    return code, out.getvalue(), err.getvalue(), files


class _CountDraws:
    """Wraps ``cli._hoffman_draws`` and counts its calls."""

    def __init__(self):
        self.calls = 0
        self._orig = cli._hoffman_draws

    def __call__(self, *args):
        self.calls += 1
        return self._orig(*args)


# ---------------------------------------------------------------------------
# counterexample sweeps
# ---------------------------------------------------------------------------

@SETTINGS
@given(name=st.sampled_from(["ce33", "ce34"]), K=st.integers(2, 24),
       j_min=st.integers(2, 30), width=st.integers(0, 10))
@example(name="ce33", K=9, j_min=2, width=10)    # runs out of range at j = 9
@example(name="ce34", K=9, j_min=2, width=10)    # at j = 10
@example(name="ce33", K=2, j_min=2, width=0)     # no j is in range
def test_counterexample_sweep_equals_one_build_per_j(name, K, j_min, width):
    cfg = {"kind": "counterexample", "instance": name, "K": K,
           "j_min": j_min, "j_max": j_min + width}
    new = _run(cfg)
    assert new == _run(cfg, _ref_exp_counterexample)
    last_ok = K - 1 if name == "ce33" else K
    if j_min + width > last_ok:    # a j out of range: exit 2 and no table
        assert new[0] == 2 and new[3] == {} and f"j = {max(j_min, last_ok + 1)}:" in new[2]
    else:
        assert new[0] == 0 and b'"verdict": "pass"' in new[3]["summary.json"]


def test_the_sweep_builds_the_objective_and_A_once(monkeypatch):
    built = []
    orig = instances.oscillating_objective
    monkeypatch.setitem(instances._OSCILLATING, "ce33",
                        (lambda K: built.append(K) or orig(K),
                         *instances._OSCILLATING["ce33"][1:]))
    entries = list(instances._oscillating_steps("ce33", 20, range(2, 12)))
    assert built == [20] and [e.objects["j"] for e in entries] == list(range(2, 12))
    assert all(e.objects["A"] is entries[0].objects["A"] for e in entries)


def test_the_one_step_case_is_the_catalog_entry():
    for name, K, j in (("ce33", 20, 7), ("ce34", 12, 12)):
        one = instances.build(name, K=K, j=j)
        step = next(instances._oscillating_steps(name, K, [j]))
        assert (one.name, one.description, one.goldens) == (step.name, step.description,
                                                             step.goldens)
    with pytest.raises(ValueError, match="need 2 <= j <= K-1"):
        instances.build("ce33", K=20, j=20)
    with pytest.raises(ValueError, match="need 2 <= j <= K"):
        instances.build("ce34", K=20, j=21)


# ---------------------------------------------------------------------------
# the Hoffman kind
# ---------------------------------------------------------------------------

@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60), max_dim=st.integers(1, 8))
@example(seed=0, n=1, max_dim=1)
@example(seed=3, n=60, max_dim=8)
def test_run_hoffman_equals_one_svd_per_matrix(seed, n, max_dim):
    cfg = {"kind": "hoffman", "seed": seed, "n_triples": n, "max_dim": max_dim}
    new = _run(cfg)
    assert new == _run(cfg, _ref_exp_hoffman)
    assert new[0] == 0 and b'"verdict": "pass"' in new[3]["summary.json"]


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60), max_dim=st.integers(1, 8))
@example(seed=3, n=40, max_dim=6)
def test_forced_rank_mismatches_replay_to_the_same_bytes(seed, n, max_dim):
    # with a coarse rank cut, about a third of the SVD ranks fall below the
    # built ones; each one is fixed by one replay of the draws from the seed
    cfg = {"kind": "hoffman", "seed": seed, "n_triples": n, "max_dim": max_dim}
    count = _CountDraws()
    with mock.patch.object(linear, "TOL_RANK", FORCED_TOL_RANK), \
            mock.patch.object(cli, "_hoffman_draws", count):
        new = _run(cfg)
        ref = _run(cfg, _ref_exp_hoffman)
        mismatches = sum(built != rank for built, rank in
                         _ref_draw_ranks(seed, n, max_dim))
    assert new == ref
    assert count.calls == 1 + mismatches


def test_a_forced_mismatch_replays_and_keeps_the_draws():
    seed, n, max_dim = 3, 40, 6
    count = _CountDraws()
    with mock.patch.object(linear, "TOL_RANK", FORCED_TOL_RANK), \
            mock.patch.object(cli, "_hoffman_draws", count):
        code, *_ = _run({"kind": "hoffman", "seed": seed, "n_triples": n, "max_dim": max_dim})
        ranks = _ref_draw_ranks(seed, n, max_dim)
    fixed = {i: rank for i, (built, rank) in enumerate(ranks) if built != rank}
    items = cli._hoffman_draws(seed, n, max_dim, fixed)
    assert len(fixed) >= 3 and count.calls == 1 + len(fixed)
    # the resolved draws are the per-matrix loop's: the same kept triples and ranks
    assert [(i, r) for i, _, r, *_ in items] == [(i, rank) for i, (_, rank) in enumerate(ranks)
                                                 if rank]
    # the slices of L x = s lose their points under the coarse cut: an internal error
    assert code == 3


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), max_dim=st.integers(1, 8))
def test_one_stacked_svd_per_shape_has_the_bits_of_one_per_matrix(seed, n, max_dim):
    rng = np.random.default_rng(seed)
    mats = [random_rank_deficient_matrix(rng, max_dim) for _ in range(n)]
    seen = []
    for idx, L, *factors in _stacked_svds(mats):
        for k, i in enumerate(idx):
            one = _svd(mats[i])
            assert all(np.asarray(f[k]).tobytes() == np.asarray(g).tobytes()
                       for f, g in zip(factors, one))
        seen.extend(idx)
    assert sorted(seen) == list(range(n))


# ---------------------------------------------------------------------------
# the egi kind
# ---------------------------------------------------------------------------

@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 80), max_dim=st.integers(1, 8))
@example(seed=0, n=1, max_dim=1)
def test_run_egi_equals_one_reduction_per_row(seed, n, max_dim):
    cfg = {"kind": "egi", "seed": seed, "n_matrices": n, "max_dim": max_dim}
    assert _run(cfg) == _run(cfg, _ref_exp_egi)


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def _fresh(args, cwd) -> tuple:
    """(exit code, stdout, stderr) of ``args`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(optstab.__file__)),
               COLUMNS="80")
    p = subprocess.run([sys.executable, "-m", "optstab.cli", *args], cwd=cwd, env=env,
                       capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def _in_process(args) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_many_calls_in_one_process_answer_as_fresh_ones(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"kind": "hoffman", "seed": 5, "n_triples": 20,
                               "out_dir": str(tmp_path / "out")}))
    calls = [["run", str(cfg)], ["list-instances"], ["describe", "nope"],
             ["frobnicate"], ["describe", "ce33"], ["run", str(cfg)], ["list-instances"]]
    got = [_in_process(args) for args in calls]
    assert [g[0] for g in got] == [0, 0, 2, 2, 0, 0, 0]
    assert "unknown instance 'nope'" in got[2][2] and "invalid choice" in got[3][2]
    assert got == [_fresh(args, tmp_path) for args in calls]
    assert cli._parser() is cli._parser()
