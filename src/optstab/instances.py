"""Catalog of exactly constructed named instances.

Each entry wires together a pseudo-distance, an objective, and set models,
and carries golden values that the library must reproduce on construction
(``self_test``).  The two oscillating instances demonstrate that optimal
values can jump under arbitrarily small Hausdorff perturbations when the
objective is merely continuous; the remaining entries are the worked gauge,
affine, polygon-scheme and ladder examples used across the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .distances import (absolute, binding_energy, energy_ladder, euclidean,
                        eval_distance, gauge_distance)
from .extreal import INF, NEG_INF, call_one, row_form
from .gauges import GaugeSet, minkowski_gauge
from .ladder import SmoothProblem
from .linear import decompose, pseudo_inverse
from .optima import (ContinuousOnly, LinearPiece, Lipschitz, ObjectiveFn,
                     inf_over, minimizer_set_instability_demo,
                     piecewise_linear_objective, sup_over)
from .scheme import SchemeInstance, build_inner_polygon_family
from .sets import (AffineSlab, AxisSegments, FiniteCloud, Interval,
                   IntervalUnion, hausdorff)


class CatalogError(KeyError):
    pass


@dataclass
class InstanceCatalogEntry:
    name: str
    description: str
    objects: Dict[str, object]
    goldens: List[Tuple[str, float, float]]  # (quantity, expected, actual)

    def self_test(self, tol: float = 1e-12) -> None:
        for quantity, expected, actual in self.goldens:
            if expected in (INF, NEG_INF) or expected in (-1.0, 0.0, 1.0):
                if actual != expected:
                    raise AssertionError(
                        f"{self.name}: {quantity} = {actual!r}, expected exactly {expected!r}")
            elif abs(actual - expected) > tol:
                raise AssertionError(
                    f"{self.name}: {quantity} = {actual!r}, expected {expected!r}")


# ---------------------------------------------------------------------------
# oscillating interval-union instance (one-dimensional)
# ---------------------------------------------------------------------------

def _block_pieces(k: int) -> List[LinearPiece]:
    """Pieces on [2k, 2k+2]: zero on the block, then a dip to -1 and a spike
    to +1 on the gap, with slopes -2k, 4k, k/(1-k).  Breakpoints are the
    same float expressions used by :func:`oscillating_blocks`, and endpoint
    values are anchored, so block optima come out exactly 0, -1, +1."""
    a = 2.0 * k + 1.0                 # block right endpoint
    p1 = (2.0 * k + 1.0) + 1.0 / (2.0 * k)   # dip bottom, f = -1
    p2 = (2.0 * k + 1.0) + 1.0 / k           # spike top, f = +1
    b = 2.0 * k + 2.0
    return [
        LinearPiece.from_anchors(2.0 * k, a, 0.0, 0.0),
        LinearPiece.from_anchors(a, p1, 0.0, -1.0),
        LinearPiece.from_anchors(p1, p2, -1.0, 1.0),
        LinearPiece.from_anchors(p2, b, 1.0, 0.0),
    ]


def oscillating_objective(K: int) -> ObjectiveFn:
    """Continuous piecewise-linear f: zero on every block [2k, 2k+1] and on
    the tail, with a -1 dip and +1 spike inside each gap; the slopes grow
    with k, so f is continuous but not uniformly continuous."""
    pieces: List[LinearPiece] = [LinearPiece(-1e9, 4.0, 0.0, 0.0)]
    for k in range(2, K + 1):
        pieces.extend(_block_pieces(k))
    pieces.append(LinearPiece(2.0 * K + 2, 1e9, 0.0, 0.0))
    return piecewise_linear_objective(pieces, regularity=ContinuousOnly(),
                                      name="oscillating")


def oscillating_blocks(K: int, extended_j: Optional[int] = None) -> IntervalUnion:
    """Union of blocks [2k, 2k+1] for k = 2..K; with ``extended_j`` the j-th
    block is stretched to [2j, 2j+1+1/j], covering that gap's dip and spike."""
    ivs = []
    for k in range(2, K + 1):
        if k == extended_j:
            hi = (2.0 * k + 1.0) + 1.0 / k  # same float expression as the spike top
        else:
            hi = 2.0 * k + 1.0
        ivs.append(Interval(2.0 * k, hi))
    return IntervalUnion(ivs)


def _build_ce33(K: int = 60, j: int = 10) -> InstanceCatalogEntry:
    if not 2 <= j <= K - 1:
        raise ValueError("need 2 <= j <= K-1")
    f = oscillating_objective(K)
    d = absolute()
    A = oscillating_blocks(K)
    A_j = oscillating_blocks(K, extended_j=j)
    goldens = [
        ("INF_f(A)", 0.0, inf_over(f, A).value),
        ("SUP_f(A)", 0.0, sup_over(f, A).value),
        ("INF_f(A_j)", -1.0, inf_over(f, A_j).value),
        ("SUP_f(A_j)", 1.0, sup_over(f, A_j).value),
        ("D_H(A, A_j)", 1.0 / j, hausdorff(d, A, A_j).value),
    ]
    return InstanceCatalogEntry(
        name="ce33",
        description=("1-d interval-union family: optimal values jump by 1 "
                     "while the Hausdorff distance is 1/j"),
        objects=dict(objective=f, distance=d, A=A, A_j=A_j, j=j, K=K),
        goldens=goldens)


# ---------------------------------------------------------------------------
# oscillating axis-segments instance (sequence space, truncated)
# ---------------------------------------------------------------------------

def _seg_sine_extremes(k: int, u: float) -> Tuple[float, float, float, float]:
    """Exact (inf, sup) of g(t) = sin(2*pi/(1 + 1/k - t)) over [1, u), u <=
    1 + 1/k, together with attaining arguments, via stationary points
    2*pi/(1 + 1/k - t) = pi/2 + pi*l.  Returns (inf, t_inf, sup, t_sup)."""
    c = 1.0 + 1.0 / k
    vals = [(0.0, 1.0)]  # endpoint t = 1, where f is 0
    # stationary arguments t_l = c - 4/(1 + 2l) with value (-1)^l
    l = max(0, math.ceil((4.0 / (c - 1.0) - 1.0) / 2.0) - 1)
    # t_l increases with l, so the scan stops at u or at a max and a min
    found_pos = found_neg = False
    while not (found_pos and found_neg):
        t_l = c - 4.0 / (1.0 + 2.0 * l)
        if t_l >= u:
            break
        if t_l >= 1.0:
            v = 1.0 if l % 2 == 0 else -1.0
            vals.append((v, t_l))
            found_pos = found_pos or v > 0
            found_neg = found_neg or v < 0
        l += 1
    lo = min(vals, key=lambda p: p[0])
    hi = max(vals, key=lambda p: p[0])
    return lo[0], lo[1], hi[0], hi[1]


def segment_sine_objective(K: int) -> ObjectiveFn:
    """f on the union of axis segments [0, u_k * e_k] in R^K: zero on
    [0, 1], then sin(2*pi/(1 + 1/k - t)) for t in [1, 1 + 1/k) on the k-th
    axis; oscillates with unbounded frequency near the open tip."""

    def coord_of(x) -> Tuple[int, float]:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        nz = np.nonzero(x)[0]
        if nz.size == 0:
            return 0, 0.0
        if nz.size > 1:
            raise ValueError("point is not on a coordinate axis")
        return int(nz[0]), float(x[nz[0]])

    def fn(x) -> float:
        k0, t = coord_of(x)
        k = k0 + 1
        if t <= 1.0:
            return 0.0
        c = 1.0 + 1.0 / k
        if t >= c:
            raise ValueError("point is outside the segment family domain")
        return math.sin(2.0 * math.pi / (c - t))

    def exact_opt(A, want_max: bool) -> Optional[float]:
        if not isinstance(A, AxisSegments):
            return None
        best = NEG_INF if want_max else INF
        for k0, (u, closed) in A.extents.items():
            k = k0 + 1
            cand = [0.0]
            if u > 1.0:
                u_eff = min(u, 1.0 + 1.0 / k)
                lo, _, hi, _ = _seg_sine_extremes(k, u_eff)
                cand.extend([lo, hi])
                if u < 1.0 + 1.0 / k:
                    # f is continuous up to u: an open end's limit bounds the extremes too
                    cand.append(math.sin(2.0 * math.pi / (1.0 + 1.0 / k - u)))
            v = max(cand) if want_max else min(cand)
            if (want_max and v > best) or (not want_max and v < best):
                best = v
        return best

    return ObjectiveFn(fn=fn, regularity=ContinuousOnly(),
                       exact_sup=lambda A: exact_opt(A, True),
                       exact_inf=lambda A: exact_opt(A, False),
                       name="segment-sine")


def axis_segment_family(K: int, extended_j: Optional[int] = None) -> AxisSegments:
    """Unit segments [0, e_k], k = 1..K; with ``extended_j`` the j-th grows
    to the half-open [0, ((j+1)/j) e_j)."""
    extents = {}
    for k in range(1, K + 1):
        if k == extended_j:
            extents[k - 1] = ((k + 1.0) / k, False)
        else:
            extents[k - 1] = (1.0, True)
    return AxisSegments(extents, dim=K)


def _build_ce34(K: int = 60, j: int = 7) -> InstanceCatalogEntry:
    if not 2 <= j <= K:
        raise ValueError("need 2 <= j <= K")
    f = segment_sine_objective(K)
    d = euclidean(K)
    A = axis_segment_family(K)
    A_j = axis_segment_family(K, extended_j=j)
    goldens = [
        ("INF_f(A)", 0.0, inf_over(f, A).value),
        ("SUP_f(A)", 0.0, sup_over(f, A).value),
        ("INF_f(A_j)", -1.0, inf_over(f, A_j).value),
        ("SUP_f(A_j)", 1.0, sup_over(f, A_j).value),
        ("D_H(A, A_j)", 1.0 / j, hausdorff(d, A, A_j).value),
    ]
    return InstanceCatalogEntry(
        name="ce34",
        description=("axis-segment family in a truncated sequence space: "
                     "half-open tip extensions flip the optimal values"),
        objects=dict(objective=f, distance=d, A=A, A_j=A_j, j=j, K=K),
        goldens=goldens)


# ---------------------------------------------------------------------------
# remaining catalog entries
# ---------------------------------------------------------------------------

def _build_minset_sin(eps: float = 0.1) -> InstanceCatalogEntry:
    rep = minimizer_set_instability_demo(eps)
    goldens = [
        ("D_H(argmin sets)", math.pi, rep["d_h_argmins"]),
        ("D_asyH(argmin', argmin)", 0.0, rep["d_asy_argmins"]),
        ("D_H(A', A)", eps, rep["d_h_sets"]),
    ]
    return InstanceCatalogEntry(
        name="minset_sin",
        description=("minimizer sets of |sin| under an eps-shift of [0, pi]: "
                     "optimal values are stable, minimizer sets are not"),
        objects=dict(report=rep, eps=eps),
        goldens=goldens)


def _build_gauge_segment() -> InstanceCatalogEntry:
    C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
    probes = [np.array([3.0, 0.0]), np.array([-4.0, 0.0]), np.array([1.0, 1.0])]
    vals = [minkowski_gauge(C, p) for p in probes]
    goldens = [
        ("M_C((3,0))", 3.0, vals[0]),
        ("M_C((-4,0))", 2.0, vals[1]),
        ("M_C((1,1))", INF, vals[2]),
    ]
    return InstanceCatalogEntry(
        name="gauge_segment",
        description="gauge of the segment [-2,1] x {0}: asymmetric and infinite off-axis",
        objects=dict(C=C, distance=gauge_distance(C), probes=probes),
        goldens=goldens)


def norm_objective(dim: int) -> ObjectiveFn:
    """f(x) = ||x||, 1-Lipschitz, with exact optima over affine slabs."""

    def exact_inf(A):
        if isinstance(A, AffineSlab):
            K = A.kernel_basis
            resid = A.particular - K @ (K.T @ A.particular)
            return float(np.linalg.norm(resid))
        return None

    def exact_sup(A):
        if isinstance(A, AffineSlab):
            return INF if A.kernel_basis.shape[1] > 0 else float(
                np.linalg.norm(A.particular))
        return None

    return ObjectiveFn(fn=lambda x: float(np.linalg.norm(np.atleast_1d(x))),
                       regularity=Lipschitz(1.0), exact_inf=exact_inf,
                       exact_sup=exact_sup, bounded_below=True, name="norm")


def _build_affine_whole() -> InstanceCatalogEntry:
    L = np.array([[1.0, 0.0]])
    lm = decompose(L)
    egi = pseudo_inverse(lm)
    f = norm_objective(2)
    from .linear import affine_family
    fam = affine_family(lm, egi)

    def phi(t: float) -> float:
        return inf_over(f, fam.member([t])).value

    goldens = [
        ("phi(1)", 1.0, phi(1.0)),
        ("phi(-2)", 2.0, phi(-2.0)),
        ("phi(0)", 0.0, phi(0.0)),
        ("alpha (EGI constant)", 1.0, egi.constant),
    ]
    return InstanceCatalogEntry(
        name="affine_whole",
        description="phi(t) = inf{||x|| : x1 = t} = |t|: 1-Lipschitz value function",
        objects=dict(L=lm, egi=egi, objective=f, family=fam),
        goldens=goldens)


def _build_mixed_box() -> InstanceCatalogEntry:
    C = GaugeSet.from_halfspaces(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [1.0, 1.0, 1.0, 1.0])
    L = np.array([[1.0, 0.0]])
    f = ObjectiveFn(fn=row_form(lambda X: X[:, 1] ** 2 + X[:, 0]),
                    regularity=Lipschitz(3.0), bounded_below=True,
                    name="x2^2 + x1")
    # phi(t) = inf over the vertical segment {t} x [-1,1]: attained at x2 = 0
    goldens = [
        ("phi(0.5)", 0.5, f(np.array([0.5, 0.0]))),
        ("phi(-0.25)", -0.25, f(np.array([-0.25, 0.0]))),
        ("phi(0)", 0.0, f(np.array([0.0, 0.0]))),
    ]
    return InstanceCatalogEntry(
        name="mixed_box",
        description="box-constrained slice family: phi(t) = t on the open slab (-1, 1)",
        objects=dict(C=C, L=decompose(L), objective=f),
        goldens=goldens)


def target_distance_objective(target) -> ObjectiveFn:
    """f(x) = ||target - x||, 1-Lipschitz, in row form."""
    target = np.asarray(target, dtype=float)

    @row_form
    def fn(X):
        # the stacked row products round as np.linalg.norm of one point
        # does; norm(axis=1) and einsum sum in another order
        D = target - X
        return np.sqrt(D[:, None, :] @ D[:, :, None]).reshape(len(D))

    return ObjectiveFn(
        fn=fn,
        regularity=Lipschitz(1.0), bounded_below=True,
        name="distance-to-target")


def disk_polygon_scheme(m_seq, orientation: str = "midpoint") -> SchemeInstance:
    levels, hs = build_inner_polygon_family(m_seq, orientation=orientation)
    return SchemeInstance(objective=target_distance_objective([2.0, 0.0]),
                          levels=levels, h_bounds=hs, solver_tol=0.0,
                          inner=True)


def _build_disk_polygon(m_seq=(3, 4, 8, 16)) -> InstanceCatalogEntry:
    S = disk_polygon_scheme(m_seq)
    sig = [inf_over(S.objective, A).value for A in S.levels]
    goldens = []
    for m, s in zip(m_seq, sig):
        goldens.append((f"sigma_{m}", 2.0 - math.cos(math.pi / m), s))
    return InstanceCatalogEntry(
        name="disk_polygon",
        description=("inscribed polygon surrogates of the unit disk under a "
                     "distance objective: the transfer bound is tight"),
        objects=dict(scheme=S, m_seq=tuple(m_seq)),
        goldens=goldens)


def quartic_problem() -> SmoothProblem:
    # The row forms raise Python floats to their powers: numpy's power
    # rounds x ** 3 differently at some points, and the ladder table would
    # change.
    return SmoothProblem(
        f=lambda x: float(np.atleast_1d(x)[0]) ** 4 / 12.0,
        grad=row_form(lambda X: np.array([v ** 3 / 3.0 for v in X[:, 0].tolist()])[:, None]),
        hess_norm=row_form(lambda X: [v ** 2 for v in X[:, 0].tolist()]),
        dim=1, y0=[0.0],
        hessian_sup_closed_form=lambda t: t * t)


def exp_problem() -> SmoothProblem:
    """h(x) = e^{|x|}: gradient sign(x)(e^{|x|} - 1) is continuous at 0 and
    the radial Hessian-norm sup is exactly e^t."""
    def g(x):
        t = float(np.atleast_1d(x)[0])
        return np.array([math.copysign(math.expm1(abs(t)), t)])

    return SmoothProblem(
        f=lambda x: math.exp(abs(float(np.atleast_1d(x)[0]))) - abs(float(np.atleast_1d(x)[0])),
        grad=g,
        hess_norm=lambda x: math.exp(abs(float(np.atleast_1d(x)[0]))),
        dim=1, y0=[0.0],
        hessian_sup_closed_form=lambda t: math.exp(t))


def _build_quartic_ladder() -> InstanceCatalogEntry:
    P = quartic_problem()
    goldens = [
        ("hessian_sup(2)", 4.0, P.hessian_sup_closed_form(2.0)),
        ("hessian_sup(0)", 0.0, P.hessian_sup_closed_form(0.0)),
        ("h(1.5)", 2.25, float(call_one(P.hess_norm, [1.5]))),
    ]
    return InstanceCatalogEntry(
        name="quartic_ladder",
        description="quartic objective: radial Hessian sup t^2, ladder radii sqrt(lambda)",
        objects=dict(problem=P),
        goldens=goldens)


def _build_energy_ladder() -> InstanceCatalogEntry:
    d = energy_ladder()
    A = FiniteCloud([2.0])
    B = FiniteCloud([1.0])
    goldens = [
        ("d(1, 2)", binding_energy(2) - binding_energy(1), eval_distance(d, 1, 2)),
        ("d(2, 1)", binding_energy(1) - binding_energy(2), eval_distance(d, 2, 1)),
        ("D_H({2}, {1})", 10.2, hausdorff(d, A, B).value),
    ]
    return InstanceCatalogEntry(
        name="energy_ladder",
        description=("signed level-transition pseudo-distance: negative and "
                     "asymmetric values, Hausdorff still well defined"),
        objects=dict(distance=d, A=A, B=B),
        goldens=goldens)


# ---------------------------------------------------------------------------
# random-suite generators (property tests and batch experiments)
# ---------------------------------------------------------------------------

def random_piecewise_objective(rng: np.random.Generator, lo: float = 0.0,
                               hi: float = 100.0, lam_lo: float = 0.1,
                               lam_hi: float = 10.0,
                               n_breaks: int = 12) -> ObjectiveFn:
    """Random continuous piecewise-linear objective on [lo, hi] with slope
    bound drawn from [lam_lo, lam_hi]; declared Lipschitz with the realized
    maximal |slope|."""
    lam = float(rng.uniform(lam_lo, lam_hi))
    breaks = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, size=n_breaks)]))
    vals = [0.0]
    for a, b in zip(breaks, breaks[1:]):
        slope = float(rng.uniform(-lam, lam))
        vals.append(vals[-1] + slope * (b - a))
    pieces = [LinearPiece.from_anchors(float(a), float(b), va, vb)
              for a, b, va, vb in zip(breaks, breaks[1:], vals, vals[1:])]
    realized = max(abs(p.slope) for p in pieces)
    return piecewise_linear_objective(pieces, regularity=Lipschitz(realized),
                                      name="random-piecewise")


def random_cloud(rng: np.random.Generator, lo: float = 0.0, hi: float = 100.0,
                 max_points: int = 30) -> FiniteCloud:
    n = int(rng.integers(1, max_points + 1))
    return FiniteCloud(rng.uniform(lo, hi, size=n))


def random_rank_deficient_matrix(rng: np.random.Generator,
                                 max_dim: int = 8) -> np.ndarray:
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    r = int(rng.integers(0, min(m, n) + 1))
    return (rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
            if r > 0 else np.zeros((m, n)))


_BUILDERS: Dict[str, Callable[..., InstanceCatalogEntry]] = {
    "ce33": _build_ce33,
    "ce34": _build_ce34,
    "minset_sin": _build_minset_sin,
    "gauge_segment": _build_gauge_segment,
    "affine_whole": _build_affine_whole,
    "mixed_box": _build_mixed_box,
    "disk_polygon": _build_disk_polygon,
    "quartic_ladder": _build_quartic_ladder,
    "energy_ladder": _build_energy_ladder,
}

_DESCRIPTIONS = {
    "ce33": "interval-union blocks with oscillating piecewise-linear objective",
    "ce34": "axis segments with high-frequency sine objective near open tips",
    "minset_sin": "minimizer-set instability of |sin| under interval shifts",
    "gauge_segment": "asymmetric/infinite gauge of a planar segment",
    "affine_whole": "affine solution family phi(t) = |t| over the whole plane",
    "mixed_box": "box-constrained slice family with phi(t) = t",
    "disk_polygon": "inner polygon scheme for the unit disk",
    "quartic_ladder": "gradient-Lipschitz ladder for the quartic objective",
    "energy_ladder": "signed level-transition pseudo-distance",
}


def catalog_names() -> tuple:
    return tuple(_BUILDERS)


def describe(name: str) -> str:
    if name not in _DESCRIPTIONS:
        raise CatalogError(f"unknown instance {name!r}")
    return _DESCRIPTIONS[name]


def build(name: str, **params) -> InstanceCatalogEntry:
    if name not in _BUILDERS:
        raise CatalogError(f"unknown instance {name!r}")
    entry = _BUILDERS[name](**params)
    entry.self_test()
    return entry
