"""The shape-batched pseudo-inverse: ``decompose``, ``penrose_residuals`` and
``penrose_table`` against the per-matrix bodies they replaced, bit for bit,
and ``optstab run egi`` against a per-matrix reference loop, byte for byte.

The reference bodies below are the single-matrix code as it stood before the
SVD, the pseudo-inverse and the Penrose check were shared with stacks.  Both
sides run on the same LAPACK and BLAS, so equality pins the arithmetic
without a build-dependent golden.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.cli import main
from optstab.instances import random_rank_deficient_matrix
from optstab.linear import (PENROSE_IDENTITIES, TOL_RANK, LinearMap, decompose,
                            penrose_residuals, penrose_table)
from optstab.optima import VerdictReport

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _ref_decompose(L) -> LinearMap:
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if not np.all(np.isfinite(L)):
        raise ValueError("matrix entries must be finite")
    m, n = L.shape
    U, s, Vt = np.linalg.svd(L, full_matrices=True)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > TOL_RANK * smax)) if smax > 0 else 0
    kernel = Vt[r:, :].T
    range_b = U[:, :r]
    s_inv = np.zeros((n, m))
    for i in range(r):
        s_inv[i, i] = 1.0 / s[i]
    pinv = Vt.T @ s_inv @ U.T
    preimages = pinv @ range_b
    return LinearMap(matrix=L, singular_values=s[:r], rank=r,
                     kernel_basis=kernel, range_basis=range_b,
                     preimages=preimages, pinv=pinv)


def _ref_penrose_residuals(lm: LinearMap) -> dict:
    L, P = lm.matrix, lm.pinv
    return {
        "LPL-L": float(np.linalg.norm(L @ P @ L - L)),
        "PLP-P": float(np.linalg.norm(P @ L @ P - P)),
        "LP-sym": float(np.linalg.norm(L @ P - (L @ P).T)),
        "PL-sym": float(np.linalg.norm(P @ L - (P @ L).T)),
    }


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _hex(values) -> list:
    return [float(v).hex() for v in values]


@st.composite
def matrices(draw, shape=None):
    """Matrices of 1x1 to 8x8: zero, of a drawn rank, with entries drawn
    directly, or (permuted) diagonal with singular values at the rank cut
    TOL_RANK * s_max, one ulp below it and one ulp above it."""
    m, n = shape if shape is not None else (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    kind = draw(st.sampled_from(["zero", "rank", "entries", "cut"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "zero":
        return np.zeros((m, n))
    if kind == "rank":
        r = draw(st.integers(0, min(m, n)))
        return rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    if kind == "entries":
        entries = draw(st.lists(st.floats(-1e6, 1e6), min_size=m * n, max_size=m * n))
        return np.array(entries).reshape(m, n)
    smax = draw(st.floats(1e-3, 1e3))
    cut = TOL_RANK * smax
    near = [cut, np.nextafter(cut, 0.0), np.nextafter(cut, math.inf)]
    diag = [smax] + [near[i] for i in draw(st.lists(st.integers(0, 2), max_size=min(m, n) - 1))]
    M = np.zeros((m, n))
    M[np.arange(len(diag)), np.arange(len(diag))] = diag
    return M[rng.permutation(m)][:, rng.permutation(n)]


@SETTINGS
@given(matrices())
def test_decompose_and_residuals_equal_the_per_matrix_bodies(L):
    new, ref = decompose(L), _ref_decompose(L)
    assert new.rank == ref.rank and type(new.rank) is int
    for name in ("matrix", "singular_values", "kernel_basis", "range_basis",
                 "preimages", "pinv"):
        assert _same_bits(getattr(new, name), getattr(ref, name)), name
    res, ref_res = penrose_residuals(new), _ref_penrose_residuals(ref)
    assert list(res) == list(ref_res) == list(PENROSE_IDENTITIES)
    assert _hex(res.values()) == _hex(ref_res.values())


def test_rank_cut_is_strict_at_the_threshold():
    cut = TOL_RANK * 3.0
    assert decompose(np.diag([3.0, cut])).rank == 1
    assert decompose(np.diag([3.0, np.nextafter(cut, math.inf)])).rank == 2
    assert decompose(np.zeros((2, 3))).rank == 0


SHAPES = [(1, 1), (3, 5), (5, 3), (4, 4), (8, 8)]


@SETTINGS
@given(st.lists(st.sampled_from(SHAPES).flatmap(matrices), min_size=1, max_size=12))
def test_penrose_table_equals_the_per_matrix_results_in_input_order(mats):
    rank, resid, fro = penrose_table(mats)
    assert rank.shape == fro.shape == (len(mats),)
    assert resid.shape == (len(mats), len(PENROSE_IDENTITIES))
    for i, L in enumerate(mats):
        ref = _ref_decompose(L)
        assert rank[i] == ref.rank
        assert _hex(resid[i]) == _hex(_ref_penrose_residuals(ref).values())
        assert _hex([fro[i]]) == _hex([np.linalg.norm(L)])


def test_penrose_table_of_one_matrix_and_of_nested_lists():
    rank, resid, fro = penrose_table([[[1.0, 2.0], [2.0, 4.0]]])
    ref = _ref_decompose([[1.0, 2.0], [2.0, 4.0]])
    assert rank.tolist() == [1]
    assert _hex(resid[0]) == _hex(_ref_penrose_residuals(ref).values())
    assert fro.tolist() == [5.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_penrose_table_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        penrose_table([np.eye(2), [[1.0, bad]]])


# ---------------------------------------------------------------------------
# optstab run egi
# ---------------------------------------------------------------------------

def _ref_egi_csv(path, seed: int, n: int, max_dim: int) -> None:
    """The table of ``optstab run egi``, one matrix at a time."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        L = random_rank_deficient_matrix(rng, max_dim)
        lm = _ref_decompose(L)
        res = _ref_penrose_residuals(lm)
        tol = 1e-9 * (1.0 + float(np.linalg.norm(L)))
        good = all(v < tol for v in res.values())
        rows.append(dict(matrix=i, shape=f"{L.shape[0]}x{L.shape[1]}",
                         rank=lm.rank, worst_residual=max(res.values()),
                         verdict="pass" if good else "fail"))
    VerdictReport(["matrix", "shape", "rank", "worst_residual", "verdict"], rows).to_csv(path)


@pytest.mark.parametrize("max_dim", [1, 3, 8])
@pytest.mark.parametrize("seed", [0, 7, 41])
def test_run_egi_table_equals_the_per_matrix_loop(tmp_path, seed, max_dim):
    cfg = tmp_path / "egi.json"
    cfg.write_text(json.dumps({"kind": "egi", "seed": seed, "n_matrices": 300,
                               "max_dim": max_dim, "out_dir": str(tmp_path / "out")}))
    assert main(["run", str(cfg)]) in (0, 1)
    _ref_egi_csv(tmp_path / "ref.csv", seed, 300, max_dim)
    table = (tmp_path / "out" / "egi.csv").read_bytes()
    assert table == (tmp_path / "ref.csv").read_bytes()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["verdict"] == ("fail" if b",fail\n" in table else "pass")
