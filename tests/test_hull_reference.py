"""Vertex gauges in facet form against the per-point linear programs that
they replaced.

``GaugeSet.from_vertices`` holds conv(V) as halfspace rows, and membership
and the gauge run the halfspace body.  Before, every membership test and
every gauge value of a vertex set solved its own ``linprog``; those bodies
are kept below as reference oracles (reading any HiGHS status but optimal or
infeasible as a failed reference, not as "outside").  The vertex sets are
drawn from numpy seeds: full-dimensional hulls around 0 in dimensions 2 to
5, hulls with 0 on a facet and with 0 at a vertex, segments in R^2 and R^3
and a triangle around 0 in R^3.  Points closer to the boundary than MARGIN,
where the LP's own tolerances decide, are left out.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from optstab.extreal import INF
from optstab.gauges import GaugeSet, InvalidGaugeError, minkowski_gauge

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
MARGIN = 1e-6


# ---------------------------------------------------------------------------
# the LP references
# ---------------------------------------------------------------------------

def _lp(c, **kw):
    res = linprog(c, method="highs", **kw)
    assert res.status in (0, 2), res.message  # optimal or infeasible
    return res


def _in_hull(V, x) -> bool:
    """x in conv(V): x = V^T c with c >= 0 and sum c = 1 is feasible."""
    nv = V.shape[0]
    A_eq = np.vstack([V.T, np.ones((1, nv))])
    b_eq = np.concatenate([x, [1.0]])
    return _lp(np.zeros(nv), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * nv).status == 0


def _hull_gauge(V, x) -> float:
    """M_C(x) on the unit direction u of x: u is in mu C iff u = V^T c with
    c >= 0 and sum c = mu."""
    n = float(np.linalg.norm(x))
    if n == 0.0:
        return 0.0
    nv = V.shape[0]
    res = _lp(np.ones(nv), A_eq=V.T, b_eq=x / n, bounds=[(0, None)] * nv)
    return n * float(res.fun) if res.status == 0 else INF


def _linf_distance(V, x, cone: bool = False) -> float:
    """min ||x - V^T c||_inf over c >= 0 with sum c = 1 (over conv(V)), or
    over all c >= 0 (over the cone that V spans)."""
    nv, d = V.shape
    ones = -np.ones((d, 1))
    kw = {} if cone else dict(A_eq=np.r_[np.ones(nv), 0.0][None], b_eq=[1.0])
    res = _lp(np.r_[np.zeros(nv), 1.0], A_ub=np.block([[V.T, ones], [-V.T, ones]]),
              b_ub=np.r_[x, -x], bounds=[(0, None)] * (nv + 1), **kw)
    return float(res.fun)


def _side(V, x):
    """True (False) when x lies at least MARGIN inside (outside) conv(V),
    by the reference LPs; None when it is closer to the boundary.  A
    cross-polytope of radius MARGIN sqrt(d) holds the ball of radius MARGIN."""
    step = MARGIN * math.sqrt(len(x))
    if all(_in_hull(V, x + s * e) for e in np.eye(len(x)) for s in (step, -step)):
        return True
    if _linf_distance(V, x) >= MARGIN:
        return False
    return None


def _ray_side(V, x):
    """Whether the ray through x meets mu C (finite gauge) at least MARGIN
    from the boundary of the cone of C; None when it is closer."""
    u = x / np.linalg.norm(x)
    step = MARGIN * math.sqrt(len(x))
    if all(_hull_gauge(V, u + s * e) < INF for e in np.eye(len(x)) for s in (step, -step)):
        return True
    if _linf_distance(V, u, cone=True) >= MARGIN:
        return False
    return None


# ---------------------------------------------------------------------------
# the vertex sets
# ---------------------------------------------------------------------------

def _rotation(rng, d):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return Q


def _half_space_points(rng, m, d, lift):
    """m points with first coordinate at least ``lift``."""
    P = rng.standard_normal((m, d))
    P[:, 0] = np.abs(P[:, 0]) + lift
    return P


def _vertices(kind, d, rng) -> np.ndarray:
    """A vertex set whose hull holds 0: in its interior ("interior"), in the
    relative interior of a facet ("facet"), at a vertex ("vertex"), or a
    lower-dimensional hull ("segment", "triangle")."""
    if kind == "interior":
        G = rng.standard_normal((int(rng.integers(d + 1, d + 9)), d))
        return G - rng.dirichlet(np.ones(len(G))) @ G
    if kind == "facet":  # a cross-polytope of the plane x_0 = 0, and points above it
        r = rng.uniform(0.2, 2.0, d - 1)[:, None]
        E = np.eye(d)[1:]
        V = np.vstack([r * E, -r * E, _half_space_points(rng, int(rng.integers(1, 8)), d, 0.1)])
        return V @ _rotation(rng, d).T
    if kind == "vertex":
        V = np.vstack([np.zeros(d), _half_space_points(rng, int(rng.integers(d, d + 8)), d, 0.2)])
        return V @ _rotation(rng, d).T
    if kind == "segment":  # 0 inside the segment or at one end
        u = _rotation(rng, d)[0]
        b = 0.0 if rng.random() < 0.3 else rng.uniform(0.2, 3.0)
        return np.array([rng.uniform(0.2, 3.0) * u, -b * u])
    # a triangle around 0 in a plane of R^3: three angles with gaps below pi
    gaps = rng.uniform(0.5, 1.0, 3)
    theta = rng.uniform(0, 2 * math.pi) + np.cumsum(2 * math.pi * gaps / gaps.sum())
    T = rng.uniform(0.3, 2.0, 3)[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    return T @ _rotation(rng, 3)[:2]


KINDS = st.sampled_from([("interior", d) for d in range(2, 6)]
                        + [("facet", d) for d in range(2, 6)]
                        + [("vertex", d) for d in range(2, 6)]
                        + [("segment", 2), ("segment", 3), ("triangle", 3)])
SEEDS = st.integers(0, 2 ** 32 - 1)


def _ray_points(V, rng, s_max, n=4) -> np.ndarray:
    """Points s (w . V) with weights w > 0 and s in [0.1, s_max]: relative
    interior points of conv(V) for s <= 1, and points on rays of C."""
    W = 0.05 + rng.dirichlet(np.ones(len(V)), size=n)
    W /= W.sum(axis=1, keepdims=True)
    return rng.uniform(0.1, s_max, (n, 1)) * (W @ V)


# ---------------------------------------------------------------------------
# the properties
# ---------------------------------------------------------------------------

@SETTINGS
@given(kind=KINDS, seed=SEEDS)
def test_gauges_equal_the_lp_reference(kind, seed):
    rng = np.random.default_rng(seed)
    V = _vertices(*kind, rng)
    C = GaugeSet.from_vertices(V)
    d = V.shape[1]
    X = np.vstack([_ray_points(V, rng, 3.0), rng.standard_normal((6, d)) * rng.uniform(1e-3, 10.0)])
    g = minkowski_gauge(C, X)
    checked = 0
    for i, x in enumerate(X):
        finite = True if i < 4 else _ray_side(V, x)  # the first four lie on rays of C
        if finite is None:
            continue
        ref = _hull_gauge(V, x)
        assert (ref < INF) == finite
        if finite:
            assert g[i] == pytest.approx(ref, rel=1e-12, abs=0.0)
        else:
            assert g[i] == INF
        assert minkowski_gauge(C, x) == pytest.approx(g[i], rel=1e-12, abs=0.0)
        checked += 1
    assert checked >= 4


@SETTINGS
@given(kind=KINDS, seed=SEEDS)
def test_membership_equals_the_lp_reference(kind, seed):
    rng = np.random.default_rng(seed)
    V = _vertices(*kind, rng)
    C = GaugeSet.from_vertices(V)
    d = V.shape[1]
    inner = _ray_points(V, rng, 1.0)  # relative interior points by construction
    assert C.contains(inner).tolist() == [True] * len(inner)
    assert all(_in_hull(V, x) for x in inner)
    X = np.vstack([_ray_points(V, rng, 3.0), rng.standard_normal((6, d)) * rng.uniform(0.1, 3.0)])
    inside = C.contains(X)
    for x, got in zip(X, inside.tolist()):
        side = _side(V, x)
        if side is not None:
            assert got == side == _in_hull(V, x)
            assert C.contains(x) == got


@SETTINGS
@given(kind=KINDS, seed=SEEDS, scale=st.floats(0.0, 2.0))
def test_invalid_exactly_where_the_lp_misses_the_origin(kind, seed, scale):
    rng = np.random.default_rng(seed)
    V = _vertices(*kind, rng)
    assert _in_hull(V, np.zeros(V.shape[1]))
    GaugeSet.from_vertices(V)
    # the same hull moved: 0 clearly inside, or clearly outside
    V = V + scale * rng.standard_normal(V.shape[1])
    side = _side(V, np.zeros(V.shape[1]))
    assume(side is not None)
    assert side == _in_hull(V, np.zeros(V.shape[1]))
    if side:
        GaugeSet.from_vertices(V)
    else:
        with pytest.raises(InvalidGaugeError):
            GaugeSet.from_vertices(V)


def _distinct_rows(C) -> bool:
    """No two halfspace rows (a_i, b_i) of C agree to 1e-12."""
    rows = np.column_stack([C.halfspace_A, C.halfspace_b])
    return len(np.unique(np.round(rows, 12), axis=0)) == len(rows)


@SETTINGS
@given(kind=KINDS, seed=SEEDS)
def test_one_row_per_facet(kind, seed):
    assert _distinct_rows(GaugeSet.from_vertices(_vertices(*kind, np.random.default_rng(seed))))


@pytest.mark.parametrize("d, facets", [(3, 6), (5, 10)])
@pytest.mark.parametrize("rotated", [False, True])
def test_cube_facets_are_merged(d, facets, rotated):
    # Qhull triangulates each square facet: before the merge, the 3-cube had
    # 12 rows and the 5-cube 276
    rng = np.random.default_rng(d)
    V = np.array(list(itertools.product([-1.0, 1.0], repeat=d)))
    if rotated:
        V = (V * rng.uniform(0.5, 2.0, d) + rng.uniform(-0.4, 0.4, d)) @ _rotation(rng, d).T
    C = GaugeSet.from_vertices(V)
    assert len(C.halfspace_b) == facets and _distinct_rows(C)
    X = np.vstack([_ray_points(V, rng, 3.0, n=8), rng.standard_normal((8, d)) * 1.5])
    g, inside = minkowski_gauge(C, X), C.contains(X)
    for x, gx, got in zip(X, g.tolist(), inside.tolist()):
        assert gx == pytest.approx(_hull_gauge(V, x), rel=1e-12, abs=0.0)
        side = _side(V, x)
        if side is not None:
            assert got == side


@pytest.mark.parametrize("V", [
    [[1.0, 1.0], [2.0, 1.0]],                          # a segment whose line misses 0
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]],  # a triangle above 0
    [[1.0, 0.0], [2.0, 0.0]],                          # on a line through 0, not over it
    [[1e-3, 1.0], [1e-3, -1.0], [2.0, 0.0]],           # a triangle with 0 just outside
    [[3.0, 4.0]],                                      # one point
], ids=["segment-off-line", "triangle-off-plane", "segment-on-line", "triangle", "point"])
def test_hulls_that_miss_the_origin_are_refused(V):
    V = np.array(V)
    assert not _in_hull(V, np.zeros(V.shape[1]))
    with pytest.raises(InvalidGaugeError):
        GaugeSet.from_vertices(V)


def test_the_origin_alone_and_no_vertices():
    with pytest.raises(InvalidGaugeError):  # before, linprog's ValueError on an empty c
        GaugeSet.from_vertices(np.zeros((0, 2)))
    C = GaugeSet.from_vertices([[0.0, 0.0, 0.0]])
    X = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -1e-6, 0.0]])
    assert minkowski_gauge(C, X).tolist() == [0.0, INF, INF]
    assert C.contains(X).tolist() == [True, False, False]
