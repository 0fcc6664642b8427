"""The stacked Hoffman check: the table of ``optstab run hoffman``
(``_hoffman_table_of_svds`` of ``_stacked_svds``) and ``hoffman_check``
against the per-pair body they replaced, bit for bit, and ``optstab run
hoffman`` against the per-triple loop it replaced, byte for byte.

The reference bodies below are the per-pair code as it stood before the
pairs of one shape and rank were stacked: one ``AffineFamily.member`` call,
one ``hausdorff`` dispatch and one eight-point translation sample per pair.
Both sides run on the same LAPACK and BLAS, so equality pins the
arithmetic without a build-dependent golden.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import cli
from optstab.cli import main
from optstab.distances import euclidean
from optstab.instances import random_rank_deficient_matrix
from optstab.linear import (BOX_SCALE, EGI, HOFFMAN_COLUMNS, TOL_HOFFMAN,
                            _hoffman_table_of_svds, _stacked_svds,
                            affine_family, decompose, hoffman_check,
                            pseudo_inverse)
from optstab.optima import VerdictReport
from optstab.sets import AffineSlab, _asym_slabs, hausdorff

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _norm(y) -> float:
    return float(np.linalg.norm(y))


def _ref_member(F, t) -> AffineSlab:
    t = np.asarray(t, dtype=float).ravel()
    lm = F.linmap
    resid = lm.matrix @ (lm.pinv @ t) - t
    if not np.linalg.norm(resid) <= lm.tol_lin * max(1.0, np.linalg.norm(t)):
        raise ValueError("parameter is outside the range of the map")
    particular = F.egi.apply(t)
    half = BOX_SCALE * (1.0 + float(np.linalg.norm(particular)))
    return F.kernel_slab.translated(particular, box_halfwidth=half)


def _ref_hoffman_check(F, E, mag, pairs, nu=None, tol=TOL_HOFFMAN,
                       rng=None) -> VerdictReport:
    """``hoffman_check`` one pair at a time."""
    alpha = E.constant
    lm = F.linmap
    d = euclidean(lm.matrix.shape[1])
    rng = rng if rng is not None else np.random.default_rng(0)
    rows = []
    for i, (s, t) in enumerate(pairs):
        s = np.asarray(s, dtype=float).ravel()
        t = np.asarray(t, dtype=float).ravel()
        As, At = _ref_member(F, s), _ref_member(F, t)
        dh = hausdorff(d, As, At, rng=rng).value
        if nu is not None:
            bound = max(nu(s, t), nu(t, s)) + tol
        else:
            bound = alpha * max(mag(s - t), mag(t - s)) + tol
        X = At.sample(8, rng)
        resid = np.linalg.norm((X - E.apply(t)) @ lm.matrix.T, axis=1)
        ok = bool(np.all(resid <= lm.tol_lin * np.maximum(1.0, np.linalg.norm(X, axis=1))))
        slack = bound - dh
        rows.append(dict(pair_id=i, D_H=dh, bound=bound, slack=slack,
                         translation_ok=ok,
                         verdict="pass" if (slack >= 0 and ok) else "fail"))
    return VerdictReport(list(HOFFMAN_COLUMNS), rows)


def _ref_exp_hoffman(cfg: dict, out_dir: str):
    """The body of ``optstab run hoffman`` before the triples were grouped."""
    rng = np.random.default_rng(cfg["seed"])
    n = cfg.get("n_triples", 50)
    max_dim = cfg.get("max_dim", 6)
    rows = []
    ok = True
    for i in range(n):
        L = random_rank_deficient_matrix(rng, max_dim)
        lm = decompose(L)
        if lm.rank == 0:
            continue
        egi = pseudo_inverse(lm)
        fam = affine_family(lm, egi)
        s = lm.matrix @ rng.standard_normal(lm.matrix.shape[1])
        t = lm.matrix @ rng.standard_normal(lm.matrix.shape[1])
        rep = _ref_hoffman_check(fam, egi, _norm, [(s, t)], rng=rng)
        r = rep.rows[0]
        ok = ok and rep.passed
        rows.append(dict(triple=i, D_H=r["D_H"], bound=r["bound"],
                         slack=r["slack"], verdict=r["verdict"]))
    VerdictReport(["triple", "D_H", "bound", "slack", "verdict"], rows).to_csv(
        f"{out_dir}/hoffman.csv")
    return ok, {"n_triples": n, "rows": len(rows), "skipped_rank0": n - len(rows)}


def _table(mats, pairs, draws) -> VerdictReport:
    """The Hoffman table of the matrices ``mats``, from one stacked SVD per
    shape."""
    return _hoffman_table_of_svds(_stacked_svds(mats), pairs, draws)


def _hex_rows(rows) -> list:
    return [{k: (float(v).hex() if isinstance(v, float) else (type(v), v))
             for k, v in r.items()} for r in rows]


# ---------------------------------------------------------------------------
# optstab run hoffman
# ---------------------------------------------------------------------------

def _run(tmp_path, name, cfg) -> tuple:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(dict(cfg, out_dir=str(tmp_path / name))))
    code = main(["run", str(path)])
    return (code, (tmp_path / name / "hoffman.csv").read_bytes(),
            (tmp_path / name / "summary.json").read_bytes())


@pytest.mark.parametrize("max_dim", [1, 3, 6, 8])
@pytest.mark.parametrize("seed", [0, 7, 41])
def test_run_hoffman_equals_the_per_triple_loop(tmp_path, monkeypatch, seed, max_dim):
    # max_dim 1 and 3 draw many rank-0 skips and full column ranks (k = 0);
    # 6 and 8 draw wide and tall shapes of every rank
    cfg = {"kind": "hoffman", "seed": seed, "n_triples": 200, "max_dim": max_dim}
    new = _run(tmp_path, "new", cfg)
    monkeypatch.setitem(cli._KINDS, "hoffman", _ref_exp_hoffman)
    ref = _run(tmp_path, "ref", cfg)
    assert new == ref
    summary = json.loads(new[2])
    assert summary["verdict"] == "pass" and new[0] == 0
    if max_dim == 1:
        assert summary["skipped_rank0"] > 0


# ---------------------------------------------------------------------------
# the Hoffman table and hoffman_check against the per-pair body
# ---------------------------------------------------------------------------

@st.composite
def items(draw, shape=None):
    """(L, s, t, draw seed): a map of 1x1 to 6x6 of a drawn rank (0 to full),
    range points s and t (equal, or 0, now and then), and the seed of the
    generator that draws its translation sample."""
    m, n = shape if shape is not None else (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    r = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    L = rng.standard_normal((m, r)) @ rng.standard_normal((r, n)) if r else np.zeros((m, n))
    s = L @ rng.standard_normal(n)
    t = draw(st.sampled_from([s, L @ rng.standard_normal(n), np.zeros(m)]))
    return L, s, t, draw(st.integers(0, 2 ** 32 - 1))


# few shapes, so that most batches stack several items of one shape and rank
SHAPES = [(1, 1), (1, 3), (3, 1), (2, 5), (5, 2), (4, 4)]


@SETTINGS
@given(st.lists(st.one_of(st.sampled_from(SHAPES).flatmap(items), items()),
                min_size=1, max_size=16))
def test_hoffman_table_rows_equal_the_per_pair_rows_in_input_order(batch):
    maps = [decompose(L) for L, *_ in batch]
    draws = [np.random.default_rng(seed).random((7, L.shape[1] - lm.rank))
             for (L, *_, seed), lm in zip(batch, maps)]
    rep = _table([L for L, *_ in batch], [(s, t) for _, s, t, _ in batch], draws)
    assert rep.columns == HOFFMAN_COLUMNS and len(rep.rows) == len(batch)
    for i, ((L, s, t, seed), lm, row) in enumerate(zip(batch, maps, rep.rows)):
        E = pseudo_inverse(lm)
        F = affine_family(lm, E)
        ref = _ref_hoffman_check(F, E, _norm, [(s, t)], rng=np.random.default_rng(seed))
        one = hoffman_check(F, E, _norm, [(s, t)], rng=np.random.default_rng(seed))
        assert row["pair_id"] == i
        assert _hex_rows([dict(row, pair_id=0)]) == _hex_rows(ref.rows) == _hex_rows(one.rows)


@SETTINGS
@given(items(), st.integers(1, 6))
def test_hoffman_check_over_many_pairs_equals_the_per_pair_body(item, n_pairs):
    L, s, t, seed = item
    lm = decompose(L)
    rng = np.random.default_rng(seed)
    pairs = [(s, t)] + [(L @ rng.standard_normal(L.shape[1]), L @ rng.standard_normal(L.shape[1]))
                        for _ in range(n_pairs - 1)]
    E = pseudo_inverse(lm)
    F = affine_family(lm, E)
    nu = lambda a, b: 3.0 * _norm(a - b) + 0.5
    for kwargs in ({}, {"nu": nu}, {"tol": 0.0}):
        rep = hoffman_check(F, E, _norm, pairs, rng=np.random.default_rng(seed), **kwargs)
        ref = _ref_hoffman_check(F, E, _norm, pairs, rng=np.random.default_rng(seed), **kwargs)
        assert _hex_rows(rep.rows) == _hex_rows(ref.rows)


@SETTINGS
@given(items())
def test_restricted_inverse_family_equals_the_per_pair_body(item):
    # members at the restricted inverse's particular points, not at pinv t
    L, s, t, seed = item
    lm = decompose(L)
    if lm.rank == 0:
        return
    from optstab.gauges import GaugeSet
    from optstab.linear import restricted_inverse_egi
    E = restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, L.shape[1]),
                               GaugeSet.from_ball(1.0, L.shape[0]), n_eta_samples=100)
    F = affine_family(lm, E)
    rep = hoffman_check(F, E, _norm, [(s, t), (t, s)], rng=np.random.default_rng(seed))
    ref = _ref_hoffman_check(F, E, _norm, [(s, t), (t, s)], rng=np.random.default_rng(seed))
    assert _hex_rows(rep.rows) == _hex_rows(ref.rows)
    assert F.member(t).particular.tobytes() == _ref_member(F, t).particular.tobytes()


def test_out_of_range_parameters_still_raise():
    lm = decompose([[1.0, 0.0], [0.0, 0.0]])
    ok, bad = ([1.0, 0.0], [2.0, 0.0]), ([1.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="range"):
        _table([lm.matrix] * 2, [ok, bad], [np.zeros((7, 1))] * 2)
    with pytest.raises(ValueError, match="range"):
        _table([lm.matrix], [bad[::-1]], [np.zeros((7, 1))])
    E = pseudo_inverse(lm)
    with pytest.raises(ValueError, match="range"):
        hoffman_check(affine_family(lm, E), E, _norm, [ok, bad])
    assert _table([lm.matrix], [ok], [np.zeros((7, 1))]).passed


def test_a_wrong_shift_fails_its_row_on_the_batched_path():
    # the family's members sit at pinv t, the checked EGI claims 2 pinv t
    lm = decompose([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    fam = affine_family(lm)
    bad = EGI(kind="pseudo_inverse", linmap=lm, apply=lambda t: 2.0 * lm.pinv @ t,
              lipschitz_cert=dict(constant=1e6))
    pairs = [([0.0, 0.0], [1.0, -2.0]), ([0.0, 0.0], [0.0, 0.0]),
             ([3.0, 1.0], [0.0, 0.0]), ([1.0, 1.0], [0.5, 2.0])]
    rep = hoffman_check(fam, bad, _norm, pairs, rng=np.random.default_rng(3))
    ref = _ref_hoffman_check(fam, bad, _norm, pairs, rng=np.random.default_rng(3))
    assert _hex_rows(rep.rows) == _hex_rows(ref.rows)
    assert [r["translation_ok"] for r in rep.rows] == [False, True, True, False]
    assert [r["verdict"] for r in rep.rows] == ["fail", "pass", "pass", "fail"]


def test_hoffman_check_of_no_pairs_is_an_empty_pass():
    lm = decompose([[1.0, 0.0]])
    E = pseudo_inverse(lm)
    rep = hoffman_check(affine_family(lm, E), E, _norm, [])
    assert rep.rows == [] and rep.passed and rep.columns == HOFFMAN_COLUMNS
    assert _table([], [], []).rows == []


# ---------------------------------------------------------------------------
# the shared pieces the slab models use
# ---------------------------------------------------------------------------

@SETTINGS
@given(items(), st.integers(0, 2 ** 32 - 1))
def test_slab_basis_and_gap_equal_the_per_slab_forms(item, seed):
    L, *_ = item
    K = decompose(L).kernel_basis
    rng = np.random.default_rng(seed)
    p, q = rng.standard_normal((2, L.shape[1]))
    A = AffineSlab(p, K)
    if K.shape[1]:
        assert A.kernel_basis.tobytes() == np.linalg.qr(K)[0][:, :K.shape[1]].tobytes()
    B = A.translated(q, box_halfwidth=1.0)
    Kb = B.kernel_basis
    delta = p - q
    if Kb.shape[1] > 0:
        delta = delta - Kb @ (Kb.T @ delta)
    assert _asym_slabs(A, B) == float(np.linalg.norm(delta))
