"""``linear._witness_admits`` against the max-margin LP it stands in for.

``example_mixed_constraints`` proves an openness or midpoint probe t with a
witness: a point of a nearby slice moved onto {L x = t} and checked, before
any LP is solved.  Whenever the witness accepts t, the max-margin LP at t
(``_interior_point_in_slice``) must find a strictly interior point, with a
margin above 1e-12.  The property draws halfspace and vertex polytopes C in
dimensions 2 to 4 at scales 1e-3 to 1e3, maps L with one or two rows (rank
deficient ones included), and parameters near, far from and within 1e-9 of
the boundary of the admissible set, or off the range of L.

The property runs derandomized.  With ``OPTSTAB_RANDOMIZE=1`` it draws at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.
"""

import os

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optstab import linear
from optstab.extreal import linprog
from optstab.gauges import GaugeSet
from optstab.linear import _interior_point_in_slice, _witness_admits, decompose

SETTINGS = settings(max_examples=80, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
STYLES = ["near", "far", "midpoint", "boundary", "off-range"]


def _polytope(rng, dim, vertices, scale):
    """A compact polytope with 0 inside, as a GaugeSet."""
    if vertices:
        V = rng.standard_normal((dim + 1 + int(rng.integers(0, 6)), dim))
        return GaugeSet.from_vertices((V - V.mean(axis=0)) * scale)
    A = np.vstack([rng.standard_normal((int(rng.integers(1, 6)), dim)), np.eye(dim), -np.eye(dim)])
    return GaugeSet.from_halfspaces(A, rng.uniform(0.2, 2.0, len(A)) * scale)


def _map(rng, dim, rows, rank_deficient):
    L = rng.standard_normal((rows, dim))
    if rank_deficient:   # rank 0 for one row, rank 1 for two
        L = np.zeros((1, dim)) if rows == 1 else np.outer([1.0, rng.uniform(-2, 2)], L[0])
    return decompose(L)


def _inside(rng, C):
    """A point of C, at a random fraction of the way from 0 to its boundary."""
    A, b = C.halfspace_A, C.halfspace_b
    u = rng.standard_normal(C.dim)
    au = A @ u
    step = np.min(b[au > 0] / au[au > 0]) if np.any(au > 0) else 1.0
    return u * step * rng.uniform(0.0, 1.0)


def _start(A, b, lm, t, fallback):
    """The LP point of the slice at t, as the example stores it, else fallback."""
    x = _interior_point_in_slice(A, b, lm.matrix, t)[0]
    return fallback if x is None else x


def _scale(A, b):
    norms = np.linalg.norm(A, axis=1)
    return max(1.0, float(np.max(np.abs(b) / np.maximum(norms, 1e-30))))


@SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), rows=st.integers(1, 2),
       vertices=st.booleans(), rank_deficient=st.booleans(), scale_exp=st.integers(-3, 3),
       style=st.sampled_from(STYLES))
@example(seed=3, dim=3, rows=2, vertices=False, rank_deficient=True, scale_exp=0,
         style="off-range")
@example(seed=5, dim=2, rows=1, vertices=True, rank_deficient=True, scale_exp=1,
         style="off-range")
@example(seed=7, dim=2, rows=1, vertices=False, rank_deficient=False, scale_exp=0,
         style="boundary")
@example(seed=8, dim=4, rows=2, vertices=True, rank_deficient=False, scale_exp=-2,
         style="boundary")
def test_an_accepted_witness_means_the_lp_finds_an_interior_point(
        seed, dim, rows, vertices, rank_deficient, scale_exp, style):
    rng = np.random.default_rng(seed)
    C = _polytope(rng, dim, vertices, 10.0 ** scale_exp)
    A, b = C.halfspace_A, C.halfspace_b
    lm = _map(rng, dim, rows, rank_deficient)
    x_c = _inside(rng, C)
    t0 = lm.matrix @ x_c
    x = _start(A, b, lm, t0, x_c)
    refuse_below = None   # a margin bound of every point of the slice at t, if known
    if style == "near":
        t = t0 + lm.matrix @ (1e-4 * 10.0 ** scale_exp * rng.standard_normal(dim))
    elif style == "far":
        t = lm.matrix @ (rng.standard_normal(dim) * 10.0 ** scale_exp)
    elif style == "midpoint":
        x_d = _inside(rng, C)
        t1 = lm.matrix @ x_d
        t = 0.5 * (t0 + t1)
        x = 0.5 * (x + _start(A, b, lm, t1, x_d))
    elif style == "boundary":
        # t_b = L x_b maximizes w . t over L(C); t lies 1e-9 inside along w, so
        # a ball of radius m around a point of its slice needs m ||L^T w|| <= 1e-9
        w = lm.matrix @ rng.standard_normal(dim)
        w /= max(np.linalg.norm(w), 1e-300)
        res = linprog(-(lm.matrix.T @ w), A_ub=A, b_ub=b, bounds=[(None, None)] * dim,
                      method="highs")
        x, t = res.x, lm.matrix @ res.x - 1e-9 * w
        refuse_below = 1e-9 / max(np.linalg.norm(lm.matrix.T @ w), 1e-300)
    else:   # off the range of L by 1e-3, where there is room for it
        resid = np.eye(rows) - lm.range_basis @ lm.range_basis.T
        v = resid @ rng.standard_normal(rows)
        t = t0 + 1e-3 * v / max(np.linalg.norm(v), 1e-300)
        if np.linalg.norm(v) > 1e-6:
            assert not lm.in_range(t)
            refuse_below = 0.0
    accepted = _witness_admits(lm, A, b, t, x)
    x_lp, margin = _interior_point_in_slice(A, b, lm.matrix, t)
    if accepted:
        assert x_lp is not None and margin > 1e-12
    if refuse_below is not None and refuse_below < linear.WITNESS_MARGIN * _scale(A, b):
        # no point of the slice has the margin a witness needs: the LP decides
        assert not accepted
        assert margin < linear.WITNESS_MARGIN * _scale(A, b)


def test_a_witness_proves_the_mixed_box_probes():
    """On the `mixed_box` polytope a point of the slice at 0.5 proves its
    openness probes and the midpoint with the slice at -0.5."""
    C = GaugeSet.from_halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0] * 4)
    lm = decompose([[1.0, 0.0]])
    A, b = C.halfspace_A, C.halfspace_b
    x = _interior_point_in_slice(A, b, lm.matrix, np.array([0.5]))[0]
    y = _interior_point_in_slice(A, b, lm.matrix, np.array([-0.5]))[0]
    assert _witness_admits(lm, A, b, np.array([0.5 + 1e-4]), x)
    assert _witness_admits(lm, A, b, np.array([0.0]), 0.5 * (x + y))
    # outside [-1, 1] no point of the slice lies in C, and a t off the range is refused
    assert not _witness_admits(lm, A, b, np.array([1.5]), x)
    lm2 = decompose([[1.0, 0.0], [2.0, 0.0]])
    assert not _witness_admits(lm2, A, b, np.array([0.5, 1.0 + 1e-3]), x)
