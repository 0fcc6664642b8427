"""The row-form contract (``extreal.row_form``) and the paths that use it.

A marked callable takes (n, dim) arrays and returns n values; the library
calls it once per block of points instead of once per point.  The library's
own marked closures are checked against the one-point closures they
replaced, which are kept below as references, and every changed path is
checked against a brute-force numpy oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optstab import sets
from optstab.distances import PseudoDistance, eval_distance, gauge_distance
from optstab.extreal import call_rows, is_row_form, row_form
from optstab.gauges import GaugeSet, minkowski_gauge
from optstab.instances import build, quartic_problem, target_distance_objective
from optstab.ladder import SmoothProblem, build_ladder, hessian_sup
from optstab.linear import _slice_member, decompose
from optstab.optima import ObjectiveFn, inf_over, sup_over
from optstab.sets import FiniteCloud, ImplicitSampled, _pairwise_min, hausdorff

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# the one-point closures the marked ones replaced, as references
# ---------------------------------------------------------------------------

def _ref_slice_member(lm, t_arr, A_hs, b_hs):
    def member(x):
        x = np.asarray(x, float).ravel()
        ok_eq = np.linalg.norm(lm.matrix @ x - t_arr) <= lm.tol_lin * 10
        return bool(ok_eq and np.all(A_hs @ x <= b_hs + 1e-9))
    return member


def _ref_target_distance(target):
    target = np.asarray(target, dtype=float)
    return lambda x: float(np.linalg.norm(target - np.atleast_1d(x)))


def _ref_mixed_box(x):
    return float(x[1]) ** 2 + float(x[0])


def _ref_gauge_distance(C):
    return lambda x, y: minkowski_gauge(C, np.asarray(y, float) - np.asarray(x, float))


def _halfspace_gauge(A, b, V) -> np.ndarray:
    """Gauge of {x : A x <= b} (all b > 0) at each row of V, by its formula."""
    return np.maximum((V @ A.T / b).max(axis=1), 0.0)


coords = st.floats(-1e3, 1e3)


# ---------------------------------------------------------------------------
# the marked library closures against their references
# ---------------------------------------------------------------------------

@SETTINGS
@given(dim=st.integers(1, 4), data=st.data())
def test_target_distance_rows_equal_the_one_point_norm(dim, data):
    target = data.draw(st.lists(coords, min_size=dim, max_size=dim))
    X = np.array(data.draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                                    min_size=1, max_size=30)))
    f, ref = target_distance_objective(target), _ref_target_distance(target)
    assert is_row_form(f.fn)
    expected = [ref(x) for x in X]
    assert f.fn(X).tolist() == expected
    assert [f(x) for x in X] == expected


@SETTINGS
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=30))
def test_mixed_box_rows_match_the_one_point_form(pts):
    # x * x is rounded once; Python's float ** 2 goes through pow, which
    # may differ in the last bit, so the sum may differ by that much
    f = build("mixed_box").objects["objective"]
    X = np.array(pts)
    got = f.fn(X)
    for g, x in zip(got, X):
        ref = _ref_mixed_box(x)
        assert abs(g - ref) <= 4 * EPS * (x[1] * x[1] + abs(x[0]))
        assert f(x) == g


SLICE_L = np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0]])
SLICE_A = np.vstack([np.eye(3), -np.eye(3), [[1.0, 1.0, 1.0]]])
SLICE_b = np.array([2.0, 2.0, 1.5, 2.0, 2.5, 2.0, 3.0])


@SETTINGS
@given(t=st.tuples(st.floats(-1, 1), st.floats(-1, 1)),
       pts=st.lists(st.tuples(st.floats(-3, 3), st.sampled_from([0.0, 1e-12, 1e-6, 1e-3]),
                              st.floats(0, 2 * math.pi)), min_size=1, max_size=20))
def test_slice_member_rows_match_the_one_point_form(t, pts):
    lm = decompose(SLICE_L)
    t_arr = np.array(t)
    x0 = np.linalg.pinv(SLICE_L) @ t_arr
    K = lm.kernel_basis[:, 0]
    # points along the slice, some pushed off it in a direction normal to K
    normal = np.linalg.svd(np.column_stack([K, np.zeros(3)]))[0][:, 1:]
    X = np.array([x0 + z * K + off * (math.cos(a) * normal[:, 0] + math.sin(a) * normal[:, 1])
                  for z, off, a in pts])
    ref = _ref_slice_member(lm, t_arr, SLICE_A, SLICE_b)
    tol = lm.tol_lin * 10
    for x in X:
        # only points at least 1e-9 from where either test changes its answer
        assume(abs(np.linalg.norm(SLICE_L @ x - t_arr) - tol) >= 1e-9)
        assume(np.abs(SLICE_A @ x - SLICE_b - 1e-9).min() >= 1e-9)
    member = _slice_member(lm, t_arr, SLICE_A, SLICE_b)
    got = member(X)
    assert got.dtype == bool and got.tolist() == [ref(x) for x in X]


def test_slice_member_keeps_the_halfspace_slack():
    # x = (1 + 5e-10, 0) overshoots the face x1 <= 1 by less than 1e-9
    lm, A_hs, b_hs = decompose([[0.0, 1.0]]), np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
    X = np.array([[1.0 + 5e-10, 0.0], [1.0 + 5e-9, 0.0], [0.5, 1e-6]])
    ref = _ref_slice_member(lm, np.zeros(1), A_hs, b_hs)
    assert [ref(x) for x in X] == [True, False, False]
    assert _slice_member(lm, np.zeros(1), A_hs, b_hs)(X).tolist() == [True, False, False]


GAUGES = {
    "halfspaces": GaugeSet.from_halfspaces([[1.0, 0.0], [-1.0, 0.5], [0.0, 1.0], [0.3, -1.0]],
                                           [2.0, 1.0, 1.5, 0.7]),
    "ball": GaugeSet.from_ball(1.5, 2),
    "vertices": GaugeSet.from_vertices([[2.0, -1.0], [0.5, 2.0], [-1.5, -0.5]]),
}


@SETTINGS
@given(kind=st.sampled_from(sorted(GAUGES)),
       pairs=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5),
                                st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=10))
def test_gauge_distance_rows_match_the_one_point_form(kind, pairs):
    C = GAUGES[kind]
    d, ref = gauge_distance(C), _ref_gauge_distance(C)
    assert is_row_form(d.fn)
    P = np.array(pairs)
    X, Y = P[:, :2], P[:, 2:]
    got = d.fn(X, Y)
    assert got.shape == (len(P),)
    for g, x, y in zip(got, X, Y):
        # the vertex gauge runs the same code per row; the others sum in
        # another order
        assert g == pytest.approx(ref(x, y), rel=1e-12, abs=1e-12)
        assert eval_distance(d, x, y) == pytest.approx(g, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------

def _square_sampler(n, rg):
    return rg.uniform(-1.5, 1.5, size=(n, 2))


def test_wrong_shape_returns_raise():
    with pytest.raises(ValueError, match="shape"):
        ImplicitSampled(member=row_form(lambda X: True), sampler=_square_sampler,
                        dim=2, witness=[0.0, 0.0])
    # right for one row (the witness check), wrong for more
    A = ImplicitSampled(member=row_form(lambda X: np.abs(X[:2, 0]) <= 1.0),
                        sampler=_square_sampler, dim=2, witness=[0.0, 0.0])
    with pytest.raises(ValueError, match="shape"):
        A.sample(50, np.random.default_rng(0))
    cloud = FiniteCloud(np.arange(8.0).reshape(4, 2))
    f = ObjectiveFn(fn=row_form(lambda X: X.sum()))
    for op in (sup_over, inf_over):
        with pytest.raises(ValueError, match="shape"):
            op(f, cloud)
    with pytest.raises(ValueError, match="shape"):
        f([1.0, 2.0])
    d = PseudoDistance("rows-as-columns", row_form(lambda X, Y: (Y - X)[:, :1]))
    with pytest.raises(ValueError, match="shape"):
        hausdorff(d, cloud, FiniteCloud([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="shape"):
        eval_distance(d, [0.0, 0.0], [1.0, 1.0])


def test_nan_from_a_row_call_raises():
    cloud = FiniteCloud(np.arange(8.0).reshape(4, 2))
    f = ObjectiveFn(fn=row_form(lambda X: np.where(X[:, 0] > 3, np.nan, X[:, 0])))
    for op in (sup_over, inf_over):
        with pytest.raises(ValueError, match="NaN"):
            op(f, cloud)
    d = PseudoDistance("nan-far", row_form(
        lambda X, Y: np.where(np.abs(Y - X).sum(axis=1) > 5, np.nan, 0.0)))
    with pytest.raises(ValueError, match="NaN"):
        hausdorff(d, cloud, FiniteCloud([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="NaN"):
        eval_distance(d, [0.0, 0.0], [9.0, 9.0])


def test_negated_keeps_the_row_form():
    f = target_distance_objective([2.0, -1.0])
    g = f.negated()
    assert is_row_form(g.fn)
    X = np.random.default_rng(1).standard_normal((40, 2))
    assert g.fn(X).tolist() == (-f.fn(X)).tolist()
    assert g(X[3]) == -f(X[3])
    cloud = FiniteCloud(X)
    assert sup_over(g, cloud).value == -inf_over(f, cloud).value
    assert inf_over(g, cloud).value == -sup_over(f, cloud).value
    h = g.negated()
    assert is_row_form(h.fn) and h.fn(X).tolist() == f.fn(X).tolist()


def test_marked_and_unmarked_members_sample_alike():
    # a box test is exact in either form, so the two keep the same points
    def one(x):
        return bool(np.all(np.abs(x - [0.2, -0.1]) <= [1.0, 0.6]))

    rows = row_form(lambda X: np.all(np.abs(X - [0.2, -0.1]) <= [1.0, 0.6], axis=1))
    A = ImplicitSampled(member=one, sampler=_square_sampler, dim=2, witness=[0.0, 0.0])
    B = ImplicitSampled(member=rows, sampler=_square_sampler, dim=2, witness=[0.0, 0.0])
    for seed in range(5):
        a = A.sample(300, np.random.default_rng(seed))
        b = B.sample(300, np.random.default_rng(seed))
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all()
        assert 1 < len(a) < 300
        # the per-point loop: kept points in draw order, then the witness
        ref = [p for p in _square_sampler(300, np.random.default_rng(seed)) if one(p)]
        assert a.tolist() == [p.tolist() for p in ref] + [[0.0, 0.0]]


def test_one_dimensional_samplers_give_one_point_per_entry():
    # a sampler output of shape (n,) in dimension 1 is n points, not one of dim n
    for member in (lambda x: bool(abs(x[0]) <= 1.0),
                   row_form(lambda X: np.abs(X[:, 0]) <= 1.0)):
        A = ImplicitSampled(member=member, sampler=lambda n, rg: rg.uniform(-2, 2, n),
                            dim=1, witness=[0.25])
        pts = A.sample(200, np.random.default_rng(4))
        assert pts.shape[1] == 1 and 50 < len(pts) < 200
        assert np.all(np.abs(pts) <= 1.0) and pts[-1, 0] == 0.25
        top = sup_over(ObjectiveFn(fn=lambda x: float(x[0])), A, budget=200,
                       rng=np.random.default_rng(4))
        assert top.mode == "sampled" and 0.9 < top.value <= 1.0


def _asym_gauge(X, Y):
    # elementwise, so a row gives the same value in any block
    D = Y - X
    return np.maximum(D, 0.0).sum(axis=1) + 2.0 * np.maximum(-D, 0.0).sum(axis=1)


@SETTINGS
@given(dim=st.integers(1, 3), data=st.data(),
       orientation=st.sampled_from(["from_point", "to_point"]))
def test_blocked_pairwise_min_equals_the_per_pair_loop(dim, data, orientation):
    pts = st.lists(st.lists(st.floats(-10, 10), min_size=dim, max_size=dim),
                   min_size=1, max_size=12)
    P, Q = np.array(data.draw(pts)), np.array(data.draw(pts))
    d = PseudoDistance("asym", row_form(_asym_gauge))

    def one(p, q):
        return float(_asym_gauge(p[None], q[None])[0])

    fn = one if orientation == "from_point" else (lambda p, q: one(q, p))
    expected = [min(fn(p, q) for q in Q) for p in P]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CDIST_BLOCK", 25)
        assert _pairwise_min(d, P, Q, orientation).tolist() == expected
    assert _pairwise_min(d, P, Q, orientation).tolist() == expected


# ---------------------------------------------------------------------------
# oracles: sup/inf on probe lists and clouds, gauge Hausdorff on every path
# ---------------------------------------------------------------------------

OBJECTIVES = {
    "unmarked": ObjectiveFn(fn=lambda x: float(x[0]) - 2.0 * float(x[1]) * float(x[1])),
    "marked": ObjectiveFn(fn=row_form(lambda X: X[:, 0] - 2.0 * X[:, 1] * X[:, 1])),
}
# integer grid points, so that ties occur and the first one must win
grid = st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=25)


@SETTINGS
@given(kind=st.sampled_from(sorted(OBJECTIVES)), raw=grid,
       as_cloud=st.booleans(), want_max=st.booleans())
def test_sup_and_inf_over_points_match_brute_force(kind, raw, as_cloud, want_max):
    P = np.array(raw, dtype=float)
    f = OBJECTIVES[kind]
    A = FiniteCloud(P) if as_cloud else [p for p in P]
    out = (sup_over if want_max else inf_over)(f, A)
    vals = P[:, 0] - 2.0 * P[:, 1] * P[:, 1]
    i = int(np.argmax(vals) if want_max else np.argmin(vals))
    assert out.mode == "exact"
    assert type(out.value) is float and out.value == vals[i]
    assert np.array_equal(out.witness, P[i])


def test_one_dimensional_probe_lists_of_scalars():
    probes = [0.5, -1.25, 3.0, -1.25, 2.0]
    for f in (ObjectiveFn(fn=lambda x: abs(float(x) - 0.3)),
              ObjectiveFn(fn=row_form(lambda X: np.abs(X[:, 0] - 0.3)))):
        top = sup_over(f, probes)
        assert top.value == abs(3.0 - 0.3) and top.witness == 3.0
        low = inf_over(f, probes)
        assert low.value == abs(0.5 - 0.3) and low.witness == 0.5
        cloud = inf_over(f, FiniteCloud(probes))
        assert cloud.value == low.value and cloud.witness == 0.5


HS_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])


def _hausdorff_oracle(A_pts, B_pts, b):
    """max of D_asyH(A, B) and D_asyH(B, A) by difference matrices, with
    d(x, y) = M_C(y - x), over the points both directions saw."""
    fwd = _halfspace_gauge(HS_A, b, (B_pts[None] - A_pts[:, None]).reshape(-1, 2))
    bwd = _halfspace_gauge(HS_A, b, (A_pts[None] - B_pts[:, None]).reshape(-1, 2))
    return max(fwd.reshape(len(A_pts), -1).min(axis=1).max(),
               bwd.reshape(len(B_pts), -1).min(axis=1).max())


def _disk(center, radius):
    center = np.asarray(center, float)
    return ImplicitSampled(
        member=lambda x: bool(np.linalg.norm(x - center) <= radius),
        sampler=lambda n, rg: center + rg.uniform(-radius, radius, size=(n, 2)),
        dim=2, witness=center)


@SETTINGS
@given(seed=st.integers(0, 2 ** 31), b=st.lists(st.floats(0.3, 3.0), min_size=5, max_size=5),
       path=st.sampled_from(["cloud-cloud", "cloud-sampled", "sampled-sampled"]))
def test_halfspace_gauge_hausdorff_matches_difference_matrices(seed, b, path):
    b = np.array(b)
    d = gauge_distance(GaugeSet.from_halfspaces(HS_A, b))
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((int(rng.integers(1, 30)), 2))
    Q = rng.standard_normal((int(rng.integers(1, 30)), 2)) + rng.uniform(-1, 1, 2)
    budget = 64
    if path == "cloud-cloud":
        A, B = FiniteCloud(P), FiniteCloud(Q)
        expected = _hausdorff_oracle(P, Q, b)
    elif path == "cloud-sampled":
        A, B = FiniteCloud(P), _disk(Q[0], 0.8)
        b1 = B.sample(budget, np.random.default_rng(seed))   # B is sampled once
        expected = _hausdorff_oracle(P, b1, b)
    else:
        A, B = _disk(P[0], 0.6), _disk(Q[0], 0.8)
        draws = np.random.default_rng(seed)      # A, then B, each once
        a1, b1 = A.sample(budget, draws), B.sample(budget, draws)
        expected = _hausdorff_oracle(a1, b1, b)
    out = hausdorff(d, A, B, budget=budget, rng=np.random.default_rng(seed))
    assert out.mode == ("exact" if path == "cloud-cloud" else "sampled")
    assert out.value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    swapped = hausdorff(d, B, A, budget=budget, rng=np.random.default_rng(seed))
    if path == "cloud-cloud":
        assert swapped.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the ladder: a marked grad and hess_norm
# ---------------------------------------------------------------------------

def _ref_quartic_grad(x):
    return np.array([float(np.atleast_1d(x)[0]) ** 3 / 3.0])


def _ref_quartic_hess(x):
    return float(np.atleast_1d(x)[0]) ** 2


def _bits(a) -> list:
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def test_quartic_rows_equal_the_one_point_lambdas_bit_for_bit():
    rng = np.random.default_rng(11)
    n = 100_000
    # magnitudes from subnormal to 1e100 (x ** 3 stays finite), both signs
    x = rng.choice([-1.0, 1.0], n) * rng.uniform(1, 10, n) * 10.0 ** rng.integers(-320, 100, n)
    x[:6] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e100]
    assert (np.abs(x) < 2.2250738585072014e-308).sum() > 1000
    P = quartic_problem()
    X = x[:, None]
    grad, hess = call_rows(P.grad, n, X, width=1), call_rows(P.hess_norm, n, X)
    assert _bits(grad[:, 0]) == _bits([_ref_quartic_grad(v)[0] for v in x])
    assert _bits(hess) == _bits([_ref_quartic_hess(v) for v in x])


def _marked_and_unmarked(dim, **kw):
    # f(x) = ||x||^4 / 12 by elementwise products and sums, which round alike
    # on Python floats and on numpy arrays: the two copies agree bit for bit
    def sq(x):
        return sum(x[i] * x[i] for i in range(dim))

    unmarked = SmoothProblem(f=None, grad=lambda x: (sq(x) / 3.0) * np.asarray(x, float),
                             hess_norm=lambda x: float(sq(x)), dim=dim, **kw)
    marked = SmoothProblem(f=None, grad=row_form(lambda X: (sq(X.T) / 3.0)[:, None] * X),
                           hess_norm=row_form(lambda X: sq(X.T)), dim=dim, **kw)
    return marked, unmarked


@pytest.mark.parametrize("dim, kw", [
    (1, dict(y0=[0.2], U_box=(-1.5, 3.0))),
    (2, dict(y0=[0.0, 0.0], C=GaugeSet.from_ball(2.0, 2))),
], ids=["1d", "2d"])
def test_marked_and_unmarked_problems_give_the_same_ladder(dim, kw):
    marked, unmarked = _marked_and_unmarked(dim, **kw)
    a = build_ladder(marked, [0.5, 1.0, 3.0], rng=np.random.default_rng(4), n_pairs=600)
    b = build_ladder(unmarked, [0.5, 1.0, 3.0], rng=np.random.default_rng(4), n_pairs=600)
    assert a == b
    assert a.passed and a.verification[-1]["n_points"] == 1200


def test_marked_grad_or_hess_norm_of_a_wrong_shape_raises():
    base = dict(f=None, hess_norm=lambda x: 1.0, dim=1, y0=[0.0],
                hessian_sup_closed_form=lambda t: t * t)
    for grad in (row_form(lambda X: X[:, 0] ** 3),             # (n,)
                 row_form(lambda X: np.hstack([X, X])),        # (n, 2) in dim 1
                 row_form(lambda X: X[:1])):                   # one row
        with pytest.raises(ValueError, match="shape"):
            build_ladder(SmoothProblem(grad=grad, **base), [1.0], n_pairs=10)
    P = SmoothProblem(f=None, grad=lambda x: np.zeros(1), dim=1, y0=[0.0],
                      hess_norm=row_form(lambda X: X[:, 0] ** 2 + [[0.0]]))
    with pytest.raises(ValueError, match="shape"):
        hessian_sup(P, 1.0)


def test_nan_rows_from_a_marked_grad_or_hess_norm_raise():
    grad = row_form(lambda X: np.where(X > 0.5, np.nan, X))
    P = SmoothProblem(f=None, grad=grad, hess_norm=lambda x: 1.0, dim=1, y0=[0.0],
                      hessian_sup_closed_form=lambda t: t * t)
    with pytest.raises(ValueError, match="NaN"):
        build_ladder(P, [1.0], n_pairs=50)
    P = SmoothProblem(f=None, grad=lambda x: np.zeros(1), dim=1, y0=[0.0],
                      hess_norm=row_form(lambda X: np.where(X[:, 0] > 0.5, np.nan, 1.0)))
    with pytest.raises(ValueError, match="NaN"):
        hessian_sup(P, 1.0)
