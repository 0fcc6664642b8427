"""Row (batched) forms of the sampled layers against their one-point forms
and against the scalar loops they replaced.

``GaugeSet.contains``, ``minkowski_gauge`` and ``SmoothProblem.feasible``
answer per row for an (n, dim) array; the first two answer one point as a
row of one.  ``hessian_sup``, ``_verify_level`` and ``_eta_for_gauge`` use
those row forms; the one-point halfspace and ball code and the per-point
loops they replaced are kept below as references.  In 1-D the arithmetic
is the same and the values must be equal; at dim >= 2 sums of squares and
matrix products accumulate in another order, so values may differ by
rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optstab import ladder, linear
from optstab.extreal import INF, is_row_form
from optstab.gauges import GaugeSet, as_magnitude, minkowski_gauge
from optstab.instances import quartic_problem
from optstab.ladder import SmoothProblem, build_ladder, hessian_sup
from optstab.linear import decompose, restricted_inverse_egi

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
MARGIN = 1e-6

# a box with one zero offset (gauge +inf across it), an ellipse as an oracle
HS_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
HS_b = np.array([2.0, 1.0, 1.5, 0.0, 2.5])
GAUGES = {
    "halfspaces": GaugeSet.from_halfspaces(HS_A, HS_b),
    "ball": GaugeSet.from_ball(1.5, 2),
    "vertices": GaugeSet.from_vertices([[2.0, -1.0], [0.5, 2.0], [-1.5, -0.5]]),
    "oracle": GaugeSet.from_oracle(lambda x: x[0] ** 2 / 4.0 + x[1] ** 2 <= 1.0, 2, 2.0),
}


def _margin(C, x) -> float:
    """A lower bound on the distance of x from where the one-point and row
    forms may decide differently; inf where both run the same code."""
    if C.kind == "halfspaces":
        ax = HS_A @ x
        slack = np.abs(HS_b - ax) / np.linalg.norm(HS_A, axis=1)
        return float(min(slack.min(), np.abs(ax[HS_b == 0.0]).min()))
    if C.kind == "ball":
        return abs(float(np.linalg.norm(x)) - C.radius)
    return INF


points = st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=6)
# (angle, scale): the point at gauge value ``scale`` in direction ``angle``
near = st.lists(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.99, 1.01)), max_size=4)


def _rows(C, pts, rays) -> np.ndarray:
    """The points, and the ray points at gauge values near 1 (the boundary of C)."""
    X = [np.array(p, float) for p in pts]
    for angle, scale in rays:
        u = np.array([math.cos(angle), math.sin(angle)])
        g = minkowski_gauge(C, u)
        if 0.0 < g < INF:
            X.append(scale * u / g)
    return np.array(X)


def _ref_contains(C, x, tol=1e-9) -> bool:
    """The one-point halfspace and ball membership that the row form
    replaced; the vertex and oracle kinds had no separate one-point code."""
    x = np.asarray(x, dtype=float).ravel()
    if C.kind == "halfspaces":
        return bool(np.all(C.halfspace_A @ x <= C.halfspace_b + tol))
    if C.kind == "ball":
        return bool(np.linalg.norm(x) <= C.radius + tol)
    return C.contains(x, tol)


def _ref_gauge(C, x, tol=1e-10) -> float:
    """The one-point halfspace and ball gauges that the row form replaced."""
    x = np.asarray(x, dtype=float).ravel()
    if C.kind == "halfspaces":
        value = 0.0
        for axi, bi in zip((C.halfspace_A @ x).tolist(), C.halfspace_b.tolist()):
            if bi == 0.0:
                if axi > tol:
                    return INF
            else:
                value = max(value, axi / bi)
        return max(0.0, value)
    if C.kind == "ball":
        return float(np.linalg.norm(x)) / C.radius
    return minkowski_gauge(C, x, tol)


@SETTINGS
@given(kind=st.sampled_from(sorted(GAUGES)), pts=points, rays=near)
def test_gauge_rows_match_one_point_form(kind, pts, rays):
    C = GAUGES[kind]
    X = _rows(C, pts, rays)
    assume(all(_margin(C, x) >= MARGIN for x in X))
    inside = C.contains(X)
    assert inside.shape == (len(X),) and inside.dtype == bool
    assert inside.tolist() == [_ref_contains(C, x) for x in X] == [C.contains(x) for x in X]
    g = minkowski_gauge(C, X)
    assert g.shape == (len(X),)
    for gi, x in zip(g, X):
        assert minkowski_gauge(C, x) == pytest.approx(gi, rel=1e-12, abs=1e-15)
        one = _ref_gauge(C, x)
        assert (gi == INF) == (one == INF)
        if one != INF:
            assert gi == pytest.approx(one, rel=1e-12, abs=1e-15)


@SETTINGS
@given(kind=st.sampled_from(sorted(GAUGES) + [None]), pts=points, rays=near)
def test_feasible_rows_match_one_point_form(kind, pts, rays):
    lo, hi = np.array([-2.5, -1.0]), np.array([2.0, 2.5])
    P = SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.zeros(2), hess_norm=lambda x: 0.0,
                      dim=2, y0=[0.1, 0.1], C=GAUGES.get(kind), U_box=(lo, hi))
    X = _rows(GAUGES.get(kind, GAUGES["ball"]), pts, rays)
    box = np.minimum(np.abs(X - lo), np.abs(X - hi)).min(axis=1)
    assume((box >= MARGIN).all())
    if kind is not None:
        assume(all(_margin(P.C, x) >= MARGIN for x in X))
    ok = P.feasible(X)
    assert ok.shape == (len(X),) and ok.dtype == bool
    assert ok.tolist() == [P.feasible(x) for x in X]


def test_one_point_forms_keep_their_types():
    C = GAUGES["halfspaces"]
    assert isinstance(C.contains([0.1, 0.2]), bool)
    assert isinstance(minkowski_gauge(C, [0.1, 0.2]), float)
    assert minkowski_gauge(C, [0.0, -1.0]) == INF          # across the b = 0 face
    assert minkowski_gauge(C, np.array([[0.0, -1.0], [2.0, 0.0]])).tolist() == [INF, 1.0]
    with pytest.raises(ValueError, match="dim"):
        C.contains(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="dim"):
        minkowski_gauge(C, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# the scalar loops that the row forms replaced, as references
# ---------------------------------------------------------------------------

def _ref_feasible(P, x) -> bool:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if P.C is not None and not P.C.contains(x):
        return False
    if P.U_box is not None:
        lo, hi = P.U_box
        if not (np.all(x > np.asarray(lo, float)) and np.all(x < np.asarray(hi, float))):
            return False
    return True


def _ref_hessian_sup(P, t, rng=None):
    if t < 0:
        raise ValueError("radius must be nonnegative")
    if P.hessian_sup_closed_form is not None:
        return float(P.hessian_sup_closed_form(t)), "exact"
    if t == 0.0:
        return float(P.hess_norm(P.y0)), "exact"
    rng = rng if rng is not None else np.random.default_rng(0)
    best_x = P.y0.copy()
    best = float(P.hess_norm(P.y0))

    def consider(x):
        nonlocal best, best_x
        if np.linalg.norm(x - P.y0) <= t and _ref_feasible(P, x):
            v = float(P.hess_norm(x))
            if v > best:
                best, best_x = v, x

    n = ladder.HESSIAN_SAMPLES
    dirs = rng.standard_normal((n, P.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1)[:, None], 1e-30)
    for u in dirs:
        # the sphere point, pulled toward y0 until the ball filter keeps it
        s = t * u
        x = P.y0 + s
        r = np.linalg.norm(x - P.y0)
        while r > t:
            s = s * ((t / r) * (1.0 - np.finfo(float).eps))
            x = P.y0 + s
            r = np.linalg.norm(x - P.y0)
        consider(x)
    radii = t * rng.uniform(0, 1, size=n) ** (1.0 / P.dim)
    dirs = rng.standard_normal((n, P.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1)[:, None], 1e-30)
    for r, u in zip(radii, dirs):
        consider(P.y0 + r * u)
    step = t / 8.0
    for _ in range(ladder.REFINE_ROUNDS):
        for i in range(P.dim):
            for sgn in (-1.0, 1.0):
                e = np.zeros(P.dim)
                e[i] = sgn * step
                consider(best_x + e)
        step /= 4.0
    return best, "sampled"


def _ref_grad(P, x):
    # a marked grad takes rows: one point goes in as a row of one
    if is_row_form(P.grad):
        return np.asarray(P.grad(np.reshape(x, (1, -1))), float)[0]
    return np.atleast_1d(np.asarray(P.grad(x), float))


def _ref_verify_level(P, t, lam, rng, n_pairs, inflation):
    pts = []
    tries = 0
    while len(pts) < 2 * n_pairs and tries < 40 * n_pairs:
        tries += 1
        u = rng.standard_normal(P.dim)
        u /= max(np.linalg.norm(u), 1e-30)
        r = t * rng.uniform() ** (1.0 / P.dim)
        x = P.y0 + r * u
        if _ref_feasible(P, x):
            pts.append(x)
    worst = 0.0
    for i in range(0, len(pts) - 1, 2):
        x, y = pts[i], pts[i + 1]
        dx = float(np.linalg.norm(x - y))
        if dx == 0.0:
            continue
        dg = float(np.linalg.norm(_ref_grad(P, x) - _ref_grad(P, y)))
        worst = max(worst, dg / dx)
    return dict(t=t, **{"lambda": lam}, worst_ratio=worst,
                verified=bool(worst <= lam * inflation and len(pts) >= 2),
                n_points=len(pts))


def _ref_eta_for_gauge(lm, S_Y, rng, n_samples=linear.ETA_SAMPLES):
    if isinstance(S_Y, GaugeSet) and S_Y.kind == "ball":
        return float(S_Y.radius), "exact-ball"
    mag = as_magnitude(S_Y)
    worst = 0.0
    dirs = rng.standard_normal((n_samples, lm.rank))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 0] / norms[norms > 0, None]
    for beta in dirs:
        g = mag(lm.range_basis @ beta)
        if 0.0 < g < INF:
            worst = max(worst, float(np.max(np.abs(beta))) / g)
    return worst * linear.ETA_INFLATION, "sampled-inflated"


def _ladder_both(monkeypatch, P, lams, seed, **kw):
    """build_ladder with the row forms, then with the reference loops."""
    new = build_ladder(P, lams, rng=np.random.default_rng(seed), **kw)
    with monkeypatch.context() as m:
        m.setattr(ladder, "hessian_sup", _ref_hessian_sup)
        m.setattr(ladder, "_verify_level", _ref_verify_level)
        ref = build_ladder(P, lams, rng=np.random.default_rng(seed), **kw)
    return new, ref


def _quartic_1d():
    # x^4 / 12 with the Hessian sup sampled, on an open box
    return SmoothProblem(f=lambda x: float(x[0]) ** 4 / 12.0,
                         grad=lambda x: np.array([float(x[0]) ** 3 / 3.0]),
                         hess_norm=lambda x: float(x[0]) ** 2, dim=1, y0=[0.2],
                         U_box=(-1.5, 3.0))


@pytest.mark.parametrize("seed", [0, 5])
def test_1d_hessian_sup_equals_the_scalar_loop(seed):
    P = _quartic_1d()
    for t in (0.0, 0.3, 1.0, 2.5, 10.0):
        assert (hessian_sup(P, t, rng=np.random.default_rng(seed))
                == _ref_hessian_sup(P, t, rng=np.random.default_rng(seed)))


@pytest.mark.parametrize("P", [_quartic_1d(), quartic_problem()], ids=["sampled", "closed-form"])
def test_1d_ladder_equals_the_scalar_loop(monkeypatch, P):
    # at lambda 4 and 6 the ball leaves the box, so the level check draws
    # more than one chunk of points
    new, ref = _ladder_both(monkeypatch, P, [0.5, 1.0, 2.0, 4.0, 6.0], 3, n_pairs=700)
    assert new == ref
    assert new.verification[-1]["n_points"] == 1400


def test_first_strict_maximum_starts_the_refinement():
    # h ties at 1 on every sample with |x| > 0.2; refining from the first
    # one, a boundary sample at +-1, reaches the spike at |x| = 1 - 1/32
    def h(x):
        a = abs(float(x[0]))
        return 2.0 if abs(a - 0.96875) < 1e-9 else (1.0 if a > 0.2 else 0.0)

    P = SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.zeros(1), hess_norm=h,
                      dim=1, y0=[0.0])
    for seed in range(3):
        new = hessian_sup(P, 1.0, rng=np.random.default_rng(seed))
        assert new == _ref_hessian_sup(P, 1.0, rng=np.random.default_rng(seed)) == (2.0, "sampled")


class _ConstantDraws:
    """Every direction (1, ..., 1) and every uniform 0.5: all points coincide.
    Both the array draws of the reference loop and the scalar draws of
    ``_verify_level`` are served."""

    def standard_normal(self, size=None):
        return 1.0 if size is None else np.ones(size)

    def uniform(self):
        return 0.5

    random = uniform


def test_coincident_pairs_are_skipped():
    P = quartic_problem()
    new = build_ladder(P, [1.0], rng=_ConstantDraws(), n_pairs=20).verification[0]
    ref = _ref_verify_level(P, new["t"], 1.0, _ConstantDraws(), 20, 1 + 1e-6)
    assert new == ref
    assert new["worst_ratio"] == 0.0 and new["n_points"] == 40


def _radial_quartic_2d(C):
    # ||x||^4 / 12: Hessian norm ||x||^2, gradient ||x||^2 x / 3
    return SmoothProblem(f=lambda x: float(np.dot(x, x)) ** 2 / 12.0,
                         grad=lambda x: (float(np.dot(x, x)) / 3.0) * np.asarray(x, float),
                         hess_norm=lambda x: float(np.dot(x, x)), dim=2, y0=[0.0, 0.0],
                         C=C)


@pytest.mark.parametrize("C", [
    GaugeSet.from_halfspaces(np.vstack([np.eye(2), -np.eye(2)]), [2.0, 1.5, 2.5, 3.0]),
    GaugeSet.from_ball(2.0, 2),
    GaugeSet.from_vertices([[3.0, 0.0], [-1.5, 2.5], [-1.5, -2.5]]),
], ids=["halfspaces", "ball", "vertices"])
def test_2d_ladder_radii_match_the_scalar_loop(monkeypatch, C):
    P = _radial_quartic_2d(C)
    if C.kind == "vertices":  # one linprog per sampled point: keep the samples few
        monkeypatch.setattr(ladder, "HESSIAN_SAMPLES", 20)
        new, ref = _ladder_both(monkeypatch, P, [1.5], 2, n_pairs=40, tol=1e-3)
    else:  # at lambda 3 the ball of radius sqrt(3) leaves the box
        new, ref = _ladder_both(monkeypatch, P, [0.5, 1.0, 3.0], 2, n_pairs=500)
    assert new.radii == pytest.approx(ref.radii, rel=0, abs=1e-9)
    for a, b in zip(new.verification, ref.verification):
        assert a["n_points"] == b["n_points"] and a["verified"] == b["verified"]
        assert a["worst_ratio"] == pytest.approx(b["worst_ratio"], rel=1e-12)


def test_halfspace_eta_matches_the_scalar_loop(monkeypatch):
    rng = np.random.default_rng(8)
    L = rng.standard_normal((3, 4))
    A = np.vstack([np.eye(3), -np.eye(3), rng.standard_normal((2, 3))])
    S_Y = GaugeSet.from_halfspaces(A, rng.uniform(0.5, 2.0, len(A)))
    lm, S_X = decompose(L), GaugeSet.from_ball(1.0, 4)
    new = restricted_inverse_egi(lm, S_X, S_Y, rng=np.random.default_rng(1), n_eta_samples=5000)
    monkeypatch.setattr(linear, "_eta_for_gauge", _ref_eta_for_gauge)
    ref = restricted_inverse_egi(lm, S_X, S_Y, rng=np.random.default_rng(1), n_eta_samples=5000)
    assert new.lipschitz_cert["mode"] == ref.lipschitz_cert["mode"] == "sampled-inflated"
    assert new.constant == pytest.approx(ref.constant, rel=1e-12)


def test_zero_and_infinite_gauge_directions_are_dropped():
    # the first set has gauge 0 where y_0 + y_1 <= 0 and y_0 <= 0; the
    # second (one b = 0) has gauge +inf where y_0 > y_1
    lm = decompose(np.eye(2))
    for S_Y in (GaugeSet.from_halfspaces([[1.0, 1.0], [1.0, 0.0]], [1.0, 2.0]),
                GaugeSet.from_halfspaces([[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0])):
        new = linear._eta_for_gauge(lm, S_Y, np.random.default_rng(3), 3000)
        ref = _ref_eta_for_gauge(lm, S_Y, np.random.default_rng(3), 3000)
        assert math.isfinite(new[0])
        assert new[0] == pytest.approx(ref[0], rel=1e-12)


def test_callable_eta_matches_the_scalar_loop(monkeypatch):
    lm = decompose(np.eye(3))
    s_y = lambda y: float(np.abs(np.asarray(y)).sum() + math.sqrt(abs(y[0] * y[1])))  # noqa: E731
    new = restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, 3), s_y,
                                 rng=np.random.default_rng(2), n_eta_samples=2000)
    monkeypatch.setattr(linear, "_eta_for_gauge", _ref_eta_for_gauge)
    ref = restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, 3), s_y,
                                 rng=np.random.default_rng(2), n_eta_samples=2000)
    assert new.constant == pytest.approx(ref.constant, rel=1e-12)


@pytest.mark.parametrize("M", [np.zeros((2, 3)), np.eye(3) * 1e-3, [[3.0, 4.0], [1.0, -2.0]],
                               np.random.default_rng(4).standard_normal((5, 7)) * 50.0],
                         ids=["zero", "small", "2x2", "5x7"])
def test_tol_lin_reads_the_stored_spectral_norm(M):
    lm = decompose(M)
    assert lm.tol_lin == pytest.approx(1e-10 * max(1.0, np.linalg.norm(M, 2)), rel=1e-12)
