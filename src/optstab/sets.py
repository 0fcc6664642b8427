"""Computable set models and the point/set distance notions.

Five set representations are supported:

* :class:`FiniteCloud` -- an explicit point list (exact under any distance);
* :class:`IntervalUnion` -- a sorted disjoint union of 1-D intervals, with
  closed-form distances under the absolute-value metric;
* :class:`AxisSegments` -- a union of segments [0, u_k] (or [0, u_k)) along
  coordinate axes e_k of a truncated sequence space; any two points share at
  most two nonzero coordinates, so Euclidean distances are closed-form;
* :class:`ImplicitSampled` -- a membership oracle plus a sampler;
* :class:`AffineSlab` -- a particular point plus an orthonormal kernel basis
  with a box truncation (an affine solution set {x : Lx = t}).

Suprema over half-open pieces are computed through the closure: the point-set
distance functions involved are continuous, so infima and suprema over a set
and over its closure coincide, and no sampling near an unattained endpoint
is ever needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .distances import PseudoDistance, _absolute, _check_dim, _euclidean
from .extreal import INF, call_one, call_rows

DEFAULT_BUDGET = 2048


@dataclass(frozen=True)
class DistanceReport:
    """A distance value plus the honesty metadata of how it was computed."""
    value: float
    mode: str  # "exact" | "sampled"
    sample_budget: int = 0
    certified_error: float = 0.0

    def __post_init__(self):
        if self.mode == "exact" and self.certified_error != 0.0:
            raise ValueError("exact reports must carry certified_error 0")


class SetModel:
    """Base class; every concrete model certifies at least one member point."""

    dim: int

    def witness(self) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteCloud(SetModel):
    points: np.ndarray  # shape (n,) for scalars or (n, d)

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            raise ValueError("a SetModel must be nonempty")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return 1 if self.points.ndim == 1 else self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def witness(self):
        return self.points[0]

    def sample(self, n, rng):
        if n >= len(self):
            return self.points
        idx = rng.choice(len(self), size=n, replace=False)
        return self.points[idx]

    def to_dict(self) -> dict:
        return {"kind": "finite_cloud", "points": self.points.tolist()}

    @staticmethod
    def from_dict(doc: dict) -> "FiniteCloud":
        return FiniteCloud(doc["points"])


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"interval [{self.lo}, {self.hi}] is empty")


@dataclass(frozen=True)
class IntervalUnion(SetModel):
    intervals: Tuple[Interval, ...]

    def __init__(self, intervals: Sequence):
        ivs = [iv if isinstance(iv, Interval) else Interval(*iv) for iv in intervals]
        if not ivs:
            raise ValueError("a SetModel must be nonempty")
        ivs.sort(key=lambda iv: (iv.lo, iv.hi))
        for a, b in zip(ivs, ivs[1:]):
            if b.lo < a.hi:
                raise ValueError("intervals must be pairwise disjoint")
        object.__setattr__(self, "intervals", tuple(ivs))
        ends = np.array([[iv.lo for iv in ivs], [iv.hi for iv in ivs]])
        ends.setflags(write=False)
        object.__setattr__(self, "_ends", ends)

    dim = 1

    def witness(self):
        return np.float64(self.intervals[0].lo)

    def sample(self, n, rng):
        lengths = np.array([iv.hi - iv.lo for iv in self.intervals])
        total = lengths.sum()
        pts = [iv.lo for iv in self.intervals] + [iv.hi for iv in self.intervals]
        m = max(0, n - len(pts))
        if total > 0 and m > 0:
            weights = lengths / total
            ks = rng.choice(len(self.intervals), size=m, p=weights)
            us = rng.uniform(size=m)
            for k, u in zip(ks, us):
                iv = self.intervals[k]
                pts.append(iv.lo + u * (iv.hi - iv.lo))
        return np.asarray(pts[: max(n, len(self.intervals) * 2)])

    def to_dict(self) -> dict:
        return {"kind": "interval_union",
                "intervals": [[iv.lo, iv.hi, iv.closed_lo, iv.closed_hi]
                              for iv in self.intervals]}

    @staticmethod
    def from_dict(doc: dict) -> "IntervalUnion":
        return IntervalUnion([Interval(lo, hi, bool(cl), bool(ch))
                              for lo, hi, cl, ch in doc["intervals"]])


@dataclass(frozen=True)
class AxisSegments(SetModel):
    """Union over k of the segment {t e_k : 0 <= t <= u_k} (or < u_k if open).

    ``extents`` maps the axis index k to (u_k, closed_end).  The origin
    belongs to every segment, so the model is always nonempty.
    """
    extents: Dict[int, Tuple[float, bool]]
    dim: int

    def __init__(self, extents: Dict[int, Tuple[float, bool]], dim: Optional[int] = None):
        ext = {int(k): (float(u), bool(c)) for k, (u, c) in extents.items()}
        if not ext:
            raise ValueError("a SetModel must be nonempty")
        for k, (u, _) in ext.items():
            if k < 0 or u < 0:
                raise ValueError("axis indices and extents must be nonnegative")
        object.__setattr__(self, "extents", ext)
        object.__setattr__(self, "dim", dim if dim is not None else max(ext) + 1)

    def witness(self):
        return np.zeros(self.dim)

    def extent_of(self, k: int) -> float:
        return self.extents.get(k, (0.0, True))[0]

    def point(self, k: int, t: float) -> np.ndarray:
        p = np.zeros(self.dim)
        p[k] = t
        return p

    def sample(self, n, rng):
        axes = sorted(self.extents)
        pts = [self.witness()]
        for k in axes:
            u, _ = self.extents[k]
            pts.append(self.point(k, u))
        m = max(0, n - len(pts))
        if m > 0:
            ks = rng.choice(axes, size=m)
            us = rng.uniform(size=m)
            for k, u01 in zip(ks, us):
                pts.append(self.point(int(k), u01 * self.extents[int(k)][0]))
        return np.asarray(pts[: max(n, len(axes) + 1)])

    def to_dict(self) -> dict:
        return {"kind": "axis_segments", "dim": self.dim,
                "extents": {str(k): [u, c] for k, (u, c) in sorted(self.extents.items())}}

    @staticmethod
    def from_dict(doc: dict) -> "AxisSegments":
        return AxisSegments({int(k): (u, bool(c)) for k, (u, c) in doc["extents"].items()},
                            dim=doc["dim"])


@dataclass(frozen=True)
class ImplicitSampled(SetModel):
    member: Callable[[np.ndarray], bool] = field(repr=False)
    sampler: Callable[[int, np.random.Generator], np.ndarray] = field(repr=False)
    dim: int = 1
    budget: int = DEFAULT_BUDGET
    _witness: Optional[np.ndarray] = None

    def __init__(self, member, sampler, dim, witness, budget=DEFAULT_BUDGET):
        witness = np.asarray(witness, dtype=float)
        if not call_one(member, witness, dtype=bool):
            raise ValueError("witness point fails the membership oracle")
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "sampler", sampler)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "budget", int(budget))
        object.__setattr__(self, "_witness", witness)

    def witness(self):
        return self._witness

    def sample(self, n, rng):
        """The sampled points that pass the membership oracle, then the
        witness, one point per row; a 1-D sampler output in dimension 1
        holds one point per entry."""
        pts = np.asarray(self.sampler(n, rng), dtype=float)
        pts = pts[:, None] if pts.ndim == 1 and self.dim == 1 else np.atleast_2d(pts)
        keep = call_rows(self.member, len(pts), pts, dtype=bool)
        return np.concatenate([pts[keep], self._witness.reshape(1, -1)])


@dataclass(frozen=True)
class AffineSlab(SetModel):
    """{particular + K u : u in R^k}, box-truncated for sampling.

    ``kernel_basis`` columns are orthonormalized at construction.  The box
    truncation only affects sampling; closed-form distances treat the slab
    as the full affine subspace (generous truncation changes nothing for
    parallel-slab distances, which are realized at every point).
    """
    particular: np.ndarray
    kernel_basis: np.ndarray  # (d, k), orthonormal columns; k may be 0
    box_halfwidth: float = 1e3

    def __init__(self, particular, kernel_basis, box_halfwidth=1e3):
        particular = np.asarray(particular, dtype=float).ravel()
        K = np.asarray(kernel_basis, dtype=float)
        if K.ndim > 2:
            raise ValueError(f"kernel_basis must be a matrix, not an array of {K.ndim} dimensions")
        if K.size == 0:
            K = np.zeros((particular.shape[0], 0))
        if K.ndim == 1:
            K = K[:, None]
        if K.shape[0] != particular.shape[0]:
            raise ValueError(f"kernel_basis has {K.shape[0]} rows but particular "
                             f"has dim {particular.shape[0]}")
        object.__setattr__(self, "particular", particular)
        object.__setattr__(self, "kernel_basis", _orthonormal(K))
        object.__setattr__(self, "box_halfwidth", float(box_halfwidth))

    @property
    def dim(self) -> int:
        return self.particular.shape[0]

    def translated(self, particular, box_halfwidth: float) -> "AffineSlab":
        """The parallel slab through ``particular``.  It carries this slab's
        kernel basis array as it is, without a second orthonormalization."""
        particular = np.asarray(particular, dtype=float).ravel()
        if particular.shape != self.particular.shape:
            raise ValueError(f"a point of dim {particular.shape[0]} cannot "
                             f"translate a slab of dim {self.dim}")
        slab = object.__new__(AffineSlab)
        object.__setattr__(slab, "particular", particular)
        object.__setattr__(slab, "kernel_basis", self.kernel_basis)
        object.__setattr__(slab, "box_halfwidth", float(box_halfwidth))
        return slab

    def witness(self):
        return self.particular

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of x onto the (untruncated) slab."""
        x = np.asarray(x, dtype=float).ravel()
        K = self.kernel_basis
        delta = x - self.particular
        return self.particular + K @ (K.T @ delta)

    def sample(self, n, rng):
        K = self.kernel_basis
        pts = [self.particular]
        if K.shape[1] > 0 and n > 1:
            coeffs = rng.uniform(-self.box_halfwidth, self.box_halfwidth,
                                 size=(n - 1, K.shape[1]))
            pts.extend(self.particular + coeffs @ K.T)
        return np.asarray(pts)

    def to_dict(self) -> dict:
        return {"kind": "affine_slab", "particular": self.particular.tolist(),
                "kernel_basis": self.kernel_basis.tolist(),
                "box_halfwidth": self.box_halfwidth}

    @staticmethod
    def from_dict(doc: dict) -> "AffineSlab":
        return AffineSlab(doc["particular"], doc["kernel_basis"], doc["box_halfwidth"])


_SERIALIZABLE = {"finite_cloud": FiniteCloud, "interval_union": IntervalUnion,
                 "axis_segments": AxisSegments, "affine_slab": AffineSlab}


def set_from_dict(doc: dict) -> SetModel:
    """The set model a document describes; ValueError if it describes none."""
    if not isinstance(doc, dict):
        raise ValueError("a set document must be a JSON object")
    kind = doc.get("kind")
    if kind not in _SERIALIZABLE:
        raise ValueError(f"unknown set model kind {kind!r}")
    try:
        return _SERIALIZABLE[kind].from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"{kind} set lacks the field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{kind} set has a field of the wrong type: {exc}") from exc


def save_set(model: SetModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh, indent=2, sort_keys=True)


def load_set(path) -> SetModel:
    with open(path) as fh:
        return set_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# closed-form pieces
# ---------------------------------------------------------------------------

def _endpoints(A: IntervalUnion) -> Tuple[np.ndarray, np.ndarray]:
    """A's lower and upper endpoints, read-only arrays stored when A was built;
    both are nondecreasing, as the intervals are sorted and pairwise disjoint."""
    return A._ends[0], A._ends[1]


def _union_distances(xs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """|x - A| for each x of the 1-D array xs (NaN for NaN), A given by its
    endpoint arrays (see ``_endpoints``).

    The first interval with hi >= x either holds x (distance 0) or is the
    first interval right of x; the one before it ends last left of x.  A
    point inside A gets 0 before any subtraction, so inf - inf never occurs.
    """
    j = np.searchsorted(hi, xs, "left")
    right = j < len(lo)
    inside = right & (lo[np.minimum(j, len(lo) - 1)] <= xs)
    left, right = ~inside & (j > 0), ~inside & right
    out = np.where(inside, 0.0, INF)
    out[left] = xs[left] - hi[j[left] - 1]
    out[right] = np.minimum(out[right], lo[j[right]] - xs[right])
    return out


def _abs_dist_to_union(P, A: IntervalUnion) -> np.ndarray:
    return _union_distances(np.reshape(P, len(P)), *_endpoints(A))


def _asym_interval_union(A: IntervalUnion, B: IntervalUnion) -> float:
    # sup over a in A of dist(a, B): the distance profile is piecewise linear
    # with local maxima only at the endpoints of A's intervals and at the
    # midpoints of B's gaps that lie in A; suprema over half-open pieces go
    # through the closure (the profile is continuous).
    a_lo, a_hi = _endpoints(A)
    b_lo, b_hi = _endpoints(B)
    mids = 0.5 * (b_hi[:-1] + b_lo[1:])
    mids = mids[_union_distances(mids, a_lo, a_hi) == 0.0]
    return float(_union_distances(np.concatenate([a_lo, a_hi, mids]), b_lo, b_hi).max())


def _euclid_dist_to_axis_segments(P, A: AxisSegments) -> np.ndarray:
    # The nearest point of segment k to x is s e_k, s = x_k clipped to
    # [0, u_k]; only coordinate k of x moves, so the squared distance is
    # ||x||^2 - x_k^2 + (x_k - s)^2.  Axes beyond the points' dim read x_k = 0.
    X = np.reshape(P, (len(P), -1))
    sq = (X[:, None, :] @ X[:, :, None]).ravel()  # x @ x, one dot product per row
    best = np.full(len(X), INF)
    for k, (u, _) in A.extents.items():
        xk = X[:, k] if k < X.shape[1] else np.zeros(len(X))
        best = np.minimum(best, np.sqrt(sq - xk * xk + (xk - np.clip(xk, 0.0, u)) ** 2))
    return best


def _asym_axis_segments(A: AxisSegments, B: AxisSegments) -> float:
    # The origin is in every axis-segments set, so the distance from t*e_k
    # to B is max(0, t - v_k) with v_k the extent of axis k in B; the sup
    # over the segment is attained at t = u_k (closure of half-open ends).
    best = 0.0
    for k, (u, _) in A.extents.items():
        best = max(best, max(0.0, u - B.extent_of(k)))
    return best


def _euclid_dist_to_slab(P, A: AffineSlab) -> np.ndarray:
    D = np.reshape(P, (len(P), -1)) - A.particular
    K = A.kernel_basis
    return np.linalg.norm(D - (D @ K) @ K.T, axis=1)


def _norms(X) -> np.ndarray:
    """||x|| of each vector x along the last axis of X, with the bits of
    ``np.linalg.norm(x)``: one dot product of x with itself."""
    return np.sqrt(np.vecdot(X, X))


def _orthonormal(K) -> np.ndarray:
    """The Q factor of the reduced QR of each basis K (..., d, k): the
    orthonormal basis that ``AffineSlab`` stores."""
    return np.linalg.qr(K)[0] if K.shape[-1] > 0 else K


def _slab_gaps(D, K) -> np.ndarray:
    """||d - K K^T d|| for each row d of D (..., d) and orthonormal basis K
    (..., d, k): the distance between parallel slabs of basis K whose
    particular points differ by d."""
    if K.shape[-1] > 0:
        D = D - (K @ (np.swapaxes(K, -1, -2) @ D[..., None]))[..., 0]
    return _norms(D)


def _asym_slabs(A: AffineSlab, B: AffineSlab) -> Optional[float]:
    # Parallel affine subspaces are a constant distance apart: the normal
    # component of the particular-point difference.  None if not parallel.
    Ka, Kb = A.kernel_basis, B.kernel_basis
    if Ka.shape != Kb.shape:
        return None
    if Ka.shape[1] > 0 and Ka is not Kb:  # a shared basis is parallel to itself
        ra = Ka - Kb @ (Kb.T @ Ka)
        rb = Kb - Ka @ (Ka.T @ Kb)
        if float(np.abs(ra).max()) >= 1e-9 or float(np.abs(rb).max()) >= 1e-9:
            return None
    return float(_slab_gaps(A.particular - B.particular, Kb))


# Closed forms keyed by (set type, distance kernel).  "point" gives d(p, A)
# for each point p of an array P; "asym" gives D_asyH(A, B) for A and B of
# that same type, or None where the closed form does not apply.  Only the
# distances built by euclidean() and absolute() carry these kernels.
# absolute() is pinned to dimension 1, where |x - y| = ||x - y||, so it
# shares the Euclidean forms of axis segments and slabs.
_AXIS_SEGMENT_FORMS = dict(point=_euclid_dist_to_axis_segments, asym=_asym_axis_segments)
_SLAB_FORMS = dict(point=_euclid_dist_to_slab, asym=_asym_slabs)
_CLOSED_FORMS = {
    (IntervalUnion, _absolute): dict(point=_abs_dist_to_union, asym=_asym_interval_union),
    (AxisSegments, _euclidean): _AXIS_SEGMENT_FORMS,
    (AxisSegments, _absolute): _AXIS_SEGMENT_FORMS,
    (AffineSlab, _euclidean): _SLAB_FORMS,
    (AffineSlab, _absolute): _SLAB_FORMS,
}
_CDIST_METRICS = {_euclidean: "euclidean", _absolute: "cityblock"}
_CDIST_BLOCK = 1 << 22      # matrix entries per cdist call: 32 MB of float64


def _closed_form(d: PseudoDistance, A: SetModel, what: str):
    entry = _CLOSED_FORMS.get((type(A), d.fn))
    if entry is None:
        return None
    _check_dim(d, A.dim)
    return entry[what]


def _pairwise_min(d: PseudoDistance, P, Q, orientation: str, cols: bool = False):
    """min over q in Q of d(p, q) (of d(q, p) if "to_point"), for each p in P.

    P and Q hold one point per row, or one scalar per entry in dimension 1.
    The kernels of euclidean() and absolute() go to ``cdist``, and any other
    d to ``call_rows`` on blocks of pairs (p, q) in order of p, then q, each
    block with at most _CDIST_BLOCK entries.  With ``cols`` (the cdist
    kernels only, whose matrices are bitwise symmetric) the pair (row minima,
    column minima) of the same blocks is returned, the column minima being
    min over p in P of d(q, p) for each q in Q.  NaN raises ValueError.
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    rows_p, rows_q = P.reshape(len(P), -1), Q.reshape(len(Q), -1)
    _check_dim(d, rows_p.shape[1])
    _check_dim(d, rows_q.shape[1])
    metric = _CDIST_METRICS.get(d.fn)
    if metric is not None:
        from scipy.spatial.distance import cdist
        step = max(1, _CDIST_BLOCK // max(1, len(rows_q)))

        def block(i):
            return cdist(rows_p[i:i + step], rows_q, metric)
    else:
        step = max(1, _CDIST_BLOCK // max(1, Q.size))

        def block(i):
            p = P[i:i + step]
            X, Y = np.repeat(p, len(Q), axis=0), np.tile(Q, (len(p),) + (1,) * (Q.ndim - 1))
            if orientation == "to_point":
                X, Y = Y, X
            return call_rows(d.fn, len(X), X, Y).reshape(len(p), len(Q))
    out, col = [], INF
    for i in range(0, max(1, len(rows_p)), step):
        D = block(i)
        out.append(D.min(axis=1))
        if cols:
            col = np.minimum(col, D.min(axis=0))
    out = np.concatenate(out)
    if np.isnan(out).any():   # a NaN entry makes its row's minimum NaN
        raise ValueError("NaN is not an extended real")
    return (out, col) if cols else out


def _draws(budget: int, rng: Optional[np.random.Generator]) -> Callable:
    """S -> (points of S, whether they are all of S): a finite cloud's own
    points, else ``budget`` sampled points, drawn at the first request for S
    and reused after, so that one distance call samples each set at most
    once."""
    drawn = {}

    def points(S: SetModel) -> Tuple[np.ndarray, bool]:
        nonlocal rng
        if isinstance(S, FiniteCloud):
            return S.points, True
        if id(S) not in drawn:
            rng = rng if rng is not None else np.random.default_rng(0)
            drawn[id(S)] = S.sample(budget, rng)
        return drawn[id(S)], False
    return points


def _point_distances(d: PseudoDistance, P, B: SetModel, points: Callable,
                     orientation: str) -> Tuple[np.ndarray, bool]:
    """d(p, B) for each point p of P, and whether the values are exact: the
    closed form for B if one applies, else the min over ``points(B)``."""
    if orientation not in ("from_point", "to_point"):
        raise ValueError(f"unknown orientation {orientation!r}")
    if np.isnan(P).any():
        raise ValueError("NaN is not an extended real")
    point = _closed_form(d, B, "point")
    if point is not None:
        return point(P, B), True
    Q, exact = points(B)
    return _pairwise_min(d, P, Q, orientation), exact


def _asym(d: PseudoDistance, A: SetModel, B: SetModel, points: Callable) -> Tuple[float, bool]:
    """D_asyH(A, B) and whether it is exact: the closed form for A and B if
    one applies, else the max of d(a, B) over ``points(A)``."""
    if type(A) is type(B):
        closed = _closed_form(d, A, "asym")
        value = closed(A, B) if closed is not None else None
        if value is not None:
            return value, True
    P, exact_a = points(A)
    values, exact_b = _point_distances(d, P, B, points, "from_point")
    return float(values.max()), exact_a and exact_b


def _report(value, exact: bool, budget: int) -> DistanceReport:
    if exact:
        return DistanceReport(value, "exact")
    return DistanceReport(value, "sampled", sample_budget=budget, certified_error=INF)


# ---------------------------------------------------------------------------
# the three distance notions
# ---------------------------------------------------------------------------

def point_set_distance(d: PseudoDistance, x, A: SetModel,
                       budget: int = DEFAULT_BUDGET,
                       rng: Optional[np.random.Generator] = None,
                       orientation: str = "from_point") -> DistanceReport:
    """d(x, A) = inf { d(x, a) : a in A }.

    ``orientation`` selects the argument order for asymmetric d:
    "from_point" evaluates d(x, a) (the default convention) and
    "to_point" evaluates d(a, x).
    """
    values, exact = _point_distances(d, np.asarray([x], dtype=float), A,
                                     _draws(budget, rng), orientation)
    return _report(float(values.min()), exact, budget)


def asym_hausdorff(d: PseudoDistance, A: SetModel, B: SetModel,
                   budget: int = DEFAULT_BUDGET,
                   rng: Optional[np.random.Generator] = None) -> DistanceReport:
    """D_asyH(A, B) = sup { d(a, B) : a in A }.

    The closed form for A and B if one applies; otherwise the max of d(a, B)
    over the points of A, sampled if A is not a finite cloud.
    """
    return _report(*_asym(d, A, B, _draws(budget, rng)), budget)


def hausdorff(d: PseudoDistance, A: SetModel, B: SetModel,
              budget: int = DEFAULT_BUDGET,
              rng: Optional[np.random.Generator] = None) -> DistanceReport:
    """D_H(A, B) = max(D_asyH(A, B), D_asyH(B, A)).

    Each set that is not a finite cloud is sampled at most once, and both
    directions use that draw.  Under euclidean() and absolute(), when no
    closed form applies to either set, both directions read one distance
    matrix: d(a, B) from its row minima and d(b, A) from its column minima.
    """
    points = _draws(budget, rng)
    if (d.fn in _CDIST_METRICS and _closed_form(d, A, "point") is None
            and _closed_form(d, B, "point") is None):
        (P, exact_a), (Q, exact_b) = points(A), points(B)   # a NaN point gives NaN minima
        to_b, to_a = _pairwise_min(d, P, Q, "from_point", cols=True)
        return _report(max(float(to_b.max()), float(to_a.max())), exact_a and exact_b, budget)
    (v1, e1), (v2, e2) = _asym(d, A, B, points), _asym(d, B, A, points)
    return _report(max(v1, v2), e1 and e2, budget)


def ball_around_set(d: PseudoDistance, A: SetModel, r: float, probe,
                    budget: int = DEFAULT_BUDGET,
                    rng: Optional[np.random.Generator] = None) -> list:
    """Members of ``probe`` lying in B[A, r] = {x : d(x, A) <= r}; may be
    empty.  A is drawn once, and every probe is measured against that draw
    in one distance call."""
    if r <= 0:
        raise ValueError("radius must be positive")
    pts = probe.points if isinstance(probe, FiniteCloud) else list(probe)
    if not len(pts):
        return []
    values, _ = _point_distances(d, np.asarray(pts, dtype=float), A, _draws(budget, rng),
                                 "from_point")
    return [p for p, v in zip(pts, values.tolist()) if v <= r]
