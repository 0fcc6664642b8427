"""Convex gauge sets and their Minkowski functionals.

A :class:`GaugeSet` describes a convex set C containing the origin, in one
of four computable forms: a halfspace list {a_i . x <= b_i}, a vertex list
(polytope hull, also held as the halfspace list of its facets, which Qhull
computes once), a Euclidean norm ball, or a membership oracle with a
declared bounding radius.  The gauge of C at x is

    inf { mu : mu >= 0 and x in mu * C },

which may be asymmetric and may attain +inf.  A row with b_i = 0 compares
a_i . x with tol ||x||, so the gauge stays positively homogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.optimize import linprog  # noqa: F401  (traced by name by the benchmark)
from scipy.spatial import ConvexHull

from .extreal import INF

DEFAULT_GAUGE_TOL = 1e-10
VERTEX_RTOL = 1e-12  # times ||V||_2: rank cut of V, facet offsets snapped to 0


class InvalidGaugeError(ValueError):
    """The described set is not a valid gauge set (e.g. 0 is not in C)."""


@dataclass(frozen=True)
class GaugeSet:
    kind: str  # "halfspaces" | "vertices" | "ball" | "oracle"
    dim: int
    halfspace_A: Optional[np.ndarray] = None
    halfspace_b: Optional[np.ndarray] = None
    vertices: Optional[np.ndarray] = None
    radius: Optional[float] = None
    member: Optional[Callable[[np.ndarray], bool]] = field(default=None, repr=False)
    bounding_radius: Optional[float] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_halfspaces(A, b) -> "GaugeSet":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError("halfspace row/offset count mismatch")
        if np.any(b < 0):
            # 0 in C requires a_i . 0 = 0 <= b_i for every row.
            raise InvalidGaugeError("0 is not in C: some b_i < 0")
        return GaugeSet(kind="halfspaces", dim=A.shape[1], halfspace_A=A, halfspace_b=b)

    @staticmethod
    def from_vertices(V) -> "GaugeSet":
        """The hull of the rows of V, held in facet form as well."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        A, b = _hull_facets(V)
        return GaugeSet(kind="vertices", dim=V.shape[1], halfspace_A=A,
                        halfspace_b=b, vertices=V)

    @staticmethod
    def from_ball(radius: float, dim: int) -> "GaugeSet":
        if radius <= 0:
            raise InvalidGaugeError("ball radius must be positive")
        return GaugeSet(kind="ball", dim=dim, radius=float(radius))

    @staticmethod
    def from_oracle(member: Callable[[np.ndarray], bool], dim: int,
                    bounding_radius: float) -> "GaugeSet":
        """Membership-oracle gauge set.

        Restricted to bounded C (the declared ``bounding_radius`` must
        dominate sup{||c|| : c in C}); the behaviour of the gauge for
        unbounded oracle sets is not defined here.
        """
        if bounding_radius <= 0:
            raise InvalidGaugeError("bounding radius must be positive")
        if not member(np.zeros(dim)):
            raise InvalidGaugeError("0 is not in C according to the oracle")
        return GaugeSet(kind="oracle", dim=dim, member=member,
                        bounding_radius=float(bounding_radius))

    # -- membership --------------------------------------------------------

    def contains(self, x, tol: float = 1e-9):
        """Membership of one point, or a boolean array over the rows of an
        (n, dim) array.  A NaN coordinate raises ValueError."""
        X, one = _as_rows(x, self.dim)
        if self.halfspace_A is not None:
            inside = np.all(X @ self.halfspace_A.T <= self.halfspace_b + tol, axis=1)
        elif self.kind == "ball":
            inside = np.linalg.norm(X, axis=1) <= self.radius + tol
        else:
            inside = np.array([bool(self.member(p)) for p in X], dtype=bool)
        return bool(inside[0]) if one else inside


def _hull_facets(V: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(A, b) with conv(V) = {x : A x <= b} and b >= 0: one row per facet of
    the hull in coordinates of span(V), and +-n . x <= 0 for each normal n of
    that span.  InvalidGaugeError when 0 is not in the hull."""
    _, s, Wt = np.linalg.svd(V)
    tol = VERTEX_RTOL * s.max(initial=0.0)
    k = int(np.count_nonzero(s > tol))
    # 0 is in the affine hull iff the affine hull is span(V); no rows, no hull
    if len(V) == 0 or k != np.linalg.matrix_rank(V - V[0], tol=tol):
        raise InvalidGaugeError("0 is not in the affine hull of the vertices")
    B, N = Wt[:k], Wt[k:]
    Y = V @ B.T
    if k >= 2:
        eq = ConvexHull(Y).equations  # n . y + c <= 0 inside, ||n|| = 1
        # Qhull triangulates each facet, and every simplex repeats the facet's
        # row bit for bit: keep the first of each, in Qhull's order
        eq = eq[np.sort(np.unique(eq, axis=0, return_index=True)[1])]
        F, c = eq[:, :-1], -eq[:, -1]
    else:  # an interval, or the origin alone
        F, c = np.vstack([np.eye(k), -np.eye(k)]), np.concatenate([Y.max(0), -Y.min(0)])
    c[np.abs(c) <= tol] = 0.0
    if np.any(c < 0.0):
        raise InvalidGaugeError("0 is not in the hull of the vertices")
    return np.vstack([F @ B, N, -N]), np.concatenate([c, np.zeros(2 * len(N))])


def _as_rows(x, dim: int) -> Tuple[np.ndarray, bool]:
    """x as an (n, dim) float array, and whether x is one point: anything
    but a 2-D array is raveled to a row of one.  A NaN coordinate or a
    wrong dim raises ValueError."""
    X = np.asarray(x, dtype=float)
    one = X.ndim != 2
    if one:
        X = X.reshape(1, -1)
    if np.isnan(X).any():
        raise ValueError("NaN is not a coordinate of a point")
    if X.shape[1] != dim:
        raise ValueError(f"point has dim {X.shape[1]}, gauge set has dim {dim}")
    return X, one


def minkowski_gauge(C: GaugeSet, x, tol: float = DEFAULT_GAUGE_TOL):
    """Gauge value M_C(x) in [0, inf] of one point, or an array of the
    gauges of the rows of an (n, dim) array.  A NaN coordinate raises
    ValueError."""
    X, one = _as_rows(x, C.dim)
    if C.halfspace_A is not None:
        # For C = {x : a_i . x <= b_i} with all b_i >= 0:
        # rows with b_i > 0 contribute a_i.x / b_i; rows with b_i = 0 force
        # +inf when a_i.x > tol ||x|| and are ignored otherwise.
        ax, b = X @ C.halfspace_A.T, C.halfspace_b
        slack = tol if b.all() else tol * np.linalg.norm(X, axis=1, keepdims=True)
        ratio = np.divide(ax, b, out=np.where(ax > slack, INF, 0.0), where=b > 0.0)
        g = ratio.max(axis=1, initial=0.0)
    elif C.kind == "ball":
        g = np.linalg.norm(X, axis=1) / C.radius
    else:
        # per row, on the unit direction: M_C(x) = ||x|| M_C(x / ||x||), so
        # the absolute tolerance of the bisection is relative to ||x||, and
        # a small x is not rounded to the origin
        norms = np.linalg.norm(X, axis=1)
        g = np.array([n * _ray_gauge(C, p / n, tol) if n > 0.0 else 0.0
                      for p, n in zip(X, norms.tolist())])
    return float(g[0]) if one else g


def _ray_gauge(C: GaugeSet, u, tol: float) -> float:
    # Membership along the ray is monotone in mu (convexity plus 0 in C),
    # so bracket and bisect.
    mu_max = max(1.0, C.bounding_radius) * 1e6
    if not C.member(u / mu_max):
        return INF
    lo, hi = 0.0, mu_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if C.member(u / mid):
            hi = mid
        else:
            lo = mid
    return hi


def conjugate_gauge(S, x) -> float:
    """S(-x), for S a GaugeSet or any pseudo-magnitude callable."""
    x = np.asarray(x, dtype=float)
    if isinstance(S, GaugeSet):
        return minkowski_gauge(S, -x)
    return float(S(-x))


def as_magnitude(S) -> Callable[[np.ndarray], float]:
    """Normalize a GaugeSet or callable to a plain x -> [0, inf] callable."""
    if isinstance(S, GaugeSet):
        return lambda x: minkowski_gauge(S, x)
    return S
