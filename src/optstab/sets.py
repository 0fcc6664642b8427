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

from .distances import PseudoDistance
from .extreal import INF, call_one, call_rows, check_extended_real, finite_array

DEFAULT_BUDGET = 2048


@dataclass(frozen=True)
class DistanceReport:
    """A distance value plus the honesty metadata of how it was computed."""
    value: float
    mode: str  # "exact" | "sampled"
    sample_budget: int = 0
    certified_error: float = 0.0

    def __post_init__(self):
        check_extended_real(self.value)   # the last guard: no distance is NaN
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
        pts = finite_array(points, "cloud points", allow_inf=True)   # +-inf coordinates are legal
        if pts.size == 0:
            raise ValueError("a SetModel must be nonempty")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def _of_checked(points: np.ndarray) -> "FiniteCloud":
        """The cloud of ``points``, a nonempty float array its caller has
        checked free of NaN, held as it is, without a second scan."""
        cloud = object.__new__(FiniteCloud)
        object.__setattr__(cloud, "points", points)
        return cloud

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
        # a point needs both ends closed: (a, a], [a, a) and (a, a) are empty
        if not (self.lo < self.hi or self.lo == self.hi and self.closed_lo and self.closed_hi):
            lo, hi = "[" if self.closed_lo else "(", "]" if self.closed_hi else ")"
            raise ValueError(f"interval {lo}{self.lo}, {self.hi}{hi} is empty")


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

    ``extents`` maps the axis index k to (u_k, closed_end).  The segment
    [0, 0) is empty; every other one holds the origin.  A model whose every
    segment is [0, 0) is refused, so the model is always nonempty.
    """
    extents: Dict[int, Tuple[float, bool]]
    dim: int

    def __init__(self, extents: Dict[int, Tuple[float, bool]], dim: Optional[int] = None):
        ext = {int(k): (float(u), bool(c)) for k, (u, c) in extents.items()}
        if not ext:
            raise ValueError("a SetModel must be nonempty")
        for k, (u, _) in ext.items():
            if k < 0 or not u >= 0:   # NaN fails u >= 0
                raise ValueError("axis indices and extents must be nonnegative")
        if all(e == (0.0, False) for e in ext.values()):
            raise ValueError("every axis segment is the empty [0, 0)")
        if dim is not None and not max(ext) < dim:   # NaN fails too
            raise ValueError(f"axis {max(ext)} lies outside dimension {dim}")
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
    _witness: Optional[np.ndarray] = None

    def __init__(self, member, sampler, dim, witness):
        witness = finite_array(witness, "witness point").ravel()   # a (dim,) point, as sampled ones are
        if witness.size != dim:
            raise ValueError(f"a witness of {witness.size} coordinates for a set of dim {dim}")
        if not call_one(member, witness, dtype=bool):
            raise ValueError("witness point fails the membership oracle")
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "sampler", sampler)
        object.__setattr__(self, "dim", int(dim))
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
        particular = finite_array(particular, "slab particular point").ravel()
        K = finite_array(kernel_basis, "slab kernel basis")
        box_halfwidth = float(box_halfwidth)
        if box_halfwidth != box_halfwidth:
            raise ValueError("slab box half-width must not be NaN")
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
        object.__setattr__(self, "box_halfwidth", box_halfwidth)

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


@dataclass(frozen=True)
class SlabStack:
    """The slabs parallel to ``base`` through the rows of ``particulars``
    (n, d), the i-th box-truncated at ``box_halfwidths[i]``: the members of
    a family of translates, held as arrays.  Item i is that AffineSlab,
    built when it is read."""
    base: AffineSlab
    particulars: np.ndarray
    box_halfwidths: np.ndarray

    def __len__(self) -> int:
        return len(self.particulars)

    def __getitem__(self, i) -> AffineSlab:
        return self.base.translated(self.particulars[i], self.box_halfwidths[i])


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


def _asym_interval_union(A: IntervalUnion, B: SetModel) -> Optional[float]:
    # sup over a in A of dist(a, B), B an interval union or a 1-D cloud (a
    # union of one-point intervals); None for any other B.  The distance
    # profile is piecewise linear with local maxima only at the endpoints of
    # A's intervals and at the midpoints of B's gaps that lie in A; suprema
    # over half-open pieces go through the closure (the profile is
    # continuous).  An infinite cloud point is infinitely far from every
    # finite a, so a bounded A reads only the finite points (and is
    # infinitely far from a cloud of none); an unbounded A and an infinite
    # cloud point get no closed form.
    a_lo, a_hi = _endpoints(A)
    if type(B) is IntervalUnion:
        b_lo, b_hi = _endpoints(B)
    elif type(B) is FiniteCloud and B.dim == 1:
        b_lo = b_hi = np.unique(B.points)   # sorted, repeats once
        if not (np.isfinite(b_lo[0]) and np.isfinite(b_lo[-1])):
            if not (np.isfinite(a_lo[0]) and np.isfinite(a_hi[-1])):
                return None
            b_lo = b_hi = b_lo[np.isfinite(b_lo)]
            if not b_lo.size:
                return INF
    else:
        return None
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


def _asym_axis_segments(A: AxisSegments, B: SetModel) -> Optional[float]:
    # None unless B is axis segments too.  The origin is in every
    # axis-segments set, so the distance from t*e_k to B is max(0, t - v_k)
    # with v_k the extent of axis k in B; the sup over the segment is
    # attained at t = u_k (closure of half-open ends).
    if type(B) is not AxisSegments:
        return None
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


def _asym_slabs(A: AffineSlab, B: SetModel) -> Optional[float]:
    # Parallel affine subspaces are a constant distance apart: the normal
    # component of the particular-point difference.  None if B is not a
    # parallel slab.
    if type(B) is not AffineSlab:
        return None
    Ka, Kb = A.kernel_basis, B.kernel_basis
    if Ka.shape != Kb.shape:
        return None
    if Ka.shape[1] > 0 and Ka is not Kb:  # a shared basis is parallel to itself
        ra = Ka - Kb @ (Kb.T @ Ka)
        rb = Kb - Ka @ (Ka.T @ Kb)
        if float(np.abs(ra).max()) >= 1e-9 or float(np.abs(rb).max()) >= 1e-9:
            return None
    return float(_slab_gaps(A.particular - B.particular, Kb))


# Closed forms keyed by (set type, the ``metric`` a kernel marks; see
# distances).  "point" gives d(p, A) for each point p of an array P; "asym"
# gives D_asyH(A, B) for A of that type and any B, None where the closed form
# does not apply (a B of another type, but for an interval union's 1-D
# clouds).  absolute() is pinned to dimension 1, where |x - y| = ||x - y||,
# so "cityblock" shares the Euclidean forms of axis segments and slabs.
_AXIS_SEGMENT_FORMS = dict(point=_euclid_dist_to_axis_segments, asym=_asym_axis_segments)
_SLAB_FORMS = dict(point=_euclid_dist_to_slab, asym=_asym_slabs)
_CLOSED_FORMS = {
    (IntervalUnion, "cityblock"): dict(point=_abs_dist_to_union, asym=_asym_interval_union),
    (AxisSegments, "euclidean"): _AXIS_SEGMENT_FORMS,
    (AxisSegments, "cityblock"): _AXIS_SEGMENT_FORMS,
    (AffineSlab, "euclidean"): _SLAB_FORMS,
    (AffineSlab, "cityblock"): _SLAB_FORMS,
}
# the one tile budget of the package, in float64 entries: 512 KB, inside a
# core's L2.  It bounds each cdist call and each block of custom-distance
# pairs, the rows _finish completes at a time, the directions
# linear._eta_for_gauge gauges at a time and the clouds optima._extremes
# passes to one objective call.
_CDIST_BLOCK = 1 << 16
_CROSS = 256                # rows and columns of the exact cross of hausdorff's sweep


def _tile_rows(width: int) -> int:
    """Rows of ``width`` entries in one tile of _CDIST_BLOCK entries (read at
    call time), at least one."""
    return max(1, _CDIST_BLOCK // max(1, width))


def _closed_form(d: PseudoDistance, A: SetModel, what: str):
    entry = _CLOSED_FORMS.get((type(A), getattr(d.fn, "metric", None)))
    if entry is None:
        return None
    d.check_dim(A.dim)
    return entry[what]


def _as_rows(d: PseudoDistance, X) -> np.ndarray:
    """X as float rows (n, dim), a scalar per row in dimension 1, its
    dimension checked against d."""
    X = np.asarray(X, dtype=float)
    X = X.reshape(len(X), -1)
    d.check_dim(X.shape[1])
    return X


def _pairwise_min(d: PseudoDistance, P, Q, orientation: str) -> np.ndarray:
    """min over q in Q of d(p, q) (of d(q, p) if "to_point"), for each p in P.

    P and Q hold one point per row, or one scalar per entry in dimension 1.
    A ``metric`` mark sends d to ``_cdist_mins``; a ``potential`` E gives
    min E(Q) - E(p) (E(p) - max E(Q) if "to_point"), the pairs' min bit for
    bit as rounding is monotone; else ``call_rows`` takes blocks of pairs
    (p, q), p then q, of at most _CDIST_BLOCK entries.  NaN raises ValueError.
    """
    P, Q = np.asarray(P, dtype=float), np.asarray(Q, dtype=float)
    rows_p, rows_q = _as_rows(d, P), _as_rows(d, Q)
    if (metric := getattr(d.fn, "metric", None)) is not None:
        return _cdist_mins(rows_p, rows_q, metric)[0]
    if (E := getattr(d.fn, "potential", None)) is not None:
        e_p, e_q = E(rows_p), E(rows_q)
        out = e_q.min() - e_p if orientation == "from_point" else e_p - e_q.max()
    else:
        step = _tile_rows(Q.size)
        out = []
        for i in range(0, len(P), step):
            p = P[i:i + step]
            X, Y = np.repeat(p, len(Q), axis=0), np.tile(Q, (len(p),) + (1,) * (Q.ndim - 1))
            if orientation == "to_point":
                X, Y = Y, X
            out.append(call_rows(d.fn, len(X), X, Y).reshape(len(p), len(Q)).min(axis=1))
        out = np.concatenate(out)
    if np.isnan(out).any():   # a NaN entry makes its row's minimum NaN
        raise ValueError("NaN is not an extended real")
    return out


def _cdist_mins(P: np.ndarray, Q: np.ndarray, metric: str,
                cols: bool = False) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Row minima of cdist(P, Q, metric), and column minima if ``cols`` (else
    None), one tile of at most _CDIST_BLOCK entries at a time.  A NaN entry
    (a NaN coordinate, or inf - inf) makes its row's minimum NaN: ValueError."""
    from scipy.spatial.distance import cdist
    if len(P) * len(Q) <= _CDIST_BLOCK:   # one tile
        D = cdist(P, Q, metric)
        row_min, col_min = D.min(axis=1), D.min(axis=0) if cols else None
    else:
        row_min, col_min = np.full(len(P), INF), np.full(len(Q), INF) if cols else None
        width = min(len(Q), _CDIST_BLOCK)
        step = _tile_rows(width)
        for i in range(0, len(P), step):
            for j in range(0, len(Q), width):
                D = cdist(P[i:i + step], Q[j:j + width], metric)
                np.minimum(row_min[i:i + step], D.min(axis=1), out=row_min[i:i + step])
                if cols:
                    np.minimum(col_min[j:j + width], D.min(axis=0), out=col_min[j:j + width])
    if np.isnan(row_min).any():
        raise ValueError("NaN is not an extended real")
    return row_min, col_min


def _finish(best: float, part: np.ndarray, X: np.ndarray, Y: np.ndarray, metric: str) -> float:
    """max(best, min(part_i, min over y in Y of cdist(X_i, y)) over the rows
    i that can raise it), one tile of candidate rows against all of Y at a
    time.  A row with part_i <= best cannot raise it, so before each tile the
    rows left are filtered against the running best (the early break at tile
    granularity); a row whose part_i is inf is always finished, since a NaN
    pair (inf - inf) may hide there."""
    idx = np.flatnonzero((part > best) | (part == INF))
    step = _tile_rows(len(Y))
    while len(idx):
        tile, idx = idx[:step], idx[step:]
        best = max(best, float(np.minimum(part[tile], _cdist_mins(X[tile], Y, metric)[0]).max()))
        idx = idx[(part[idx] > best) | (part[idx] == INF)]
    return best


def _cdist_sweep(P: np.ndarray, Q: np.ndarray, metric: str,
                 cols: bool = True) -> Tuple[float, Optional[float]]:
    """The max over rows of the row minima of cdist(P, Q, metric) and, if
    ``cols`` (else None), the max over columns of the column minima, each
    without the whole matrix (the exact early break of Taha and Hanbury,
    IEEE TPAMI 37(11), 2015).

    The first _CROSS rows against all of Q (where a NaN coordinate of Q
    shows) and, if ``cols``, the first _CROSS columns against all of P give
    exact minima there and partial minima elsewhere; then only the rows and
    columns whose partial minimum still exceeds the largest exact one of
    their side so far are finished, a tile at a time (``_finish``).  ``min``
    and ``max`` are exact, cdist computes each pair on its own, and its
    kernels are symmetric bit for bit (x - y is exactly -(y - x)), so each
    value is that of the whole matrix, bit for bit.  When either set has at
    most _CROSS points the cross is the whole matrix.
    """
    t = _CROSS
    if len(P) <= t or len(Q) <= t:
        row_min, col_min = _cdist_mins(P, Q, metric, cols)
        return float(row_min.max()), float(col_min.max()) if cols else None
    row_min, col_min = _cdist_mins(P[:t], Q, metric, cols)  # exact rows, partial columns
    part_rows, head_cols = _cdist_mins(P[t:], Q[:t], metric, cols)
    rows = _finish(float(row_min.max()), part_rows, P[t:], Q[t:], metric)
    if not cols:
        return rows, None
    np.minimum(col_min[:t], head_cols, out=col_min[:t])    # exact columns
    return rows, _finish(float(col_min[:t].max()), col_min[t:], Q[t:], P[t:], metric)


def _draws(budget: int, rng: Optional[np.random.Generator]) -> Callable:
    """S -> (points of S, whether they are all of S): a cloud's own points,
    else ``budget`` points drawn at the first request for S (from ``rng``, or
    one ``default_rng(0)``) and reused: the only draw of sets and optima."""
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
    one applies, else the max of d(a, B) over ``points(A)``, by the one-sided
    sweep under euclidean() and absolute() when B has no closed form."""
    closed = _closed_form(d, A, "asym")
    value = closed(A, B) if closed is not None else None
    if value is not None:
        return value, True
    P, exact_a = points(A)
    metric = getattr(d.fn, "metric", None)
    if metric is not None and _closed_form(d, B, "point") is None:
        Q, exact_b = points(B)
        rows, _ = _cdist_sweep(_as_rows(d, P), _as_rows(d, Q), metric, cols=False)
        return rows, exact_a and exact_b
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
    closed form applies to either set, both directions come from one sweep
    over the pairs (a, b) that computes only the pairs that can move the
    max of minima (Taha and Hanbury's exact early break): the value is that
    of the whole distance matrix, bit for bit.
    """
    d_ab, d_ba, exact = _hausdorff(d, A, B, _draws(budget, rng))
    return _report(max(d_ab, d_ba), exact, budget)


def _hausdorff(d: PseudoDistance, A: SetModel, B: SetModel,
               points: Callable) -> Tuple[float, float, bool]:
    """D_asyH(A, B), D_asyH(B, A) and whether both are exact, over ``points``
    (see ``hausdorff``)."""
    metric = getattr(d.fn, "metric", None)
    if (metric is not None and _closed_form(d, A, "point") is None
            and _closed_form(d, B, "point") is None):
        (P, exact_a), (Q, exact_b) = points(A), points(B)   # a NaN point gives NaN minima
        return (*_cdist_sweep(_as_rows(d, P), _as_rows(d, Q), metric), exact_a and exact_b)
    (v1, e1), (v2, e2) = _asym(d, A, B, points), _asym(d, B, A, points)
    return v1, v2, e1 and e2
