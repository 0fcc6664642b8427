"""Convex gauge sets and their Minkowski functionals.

A :class:`GaugeSet` describes a convex set C containing the origin, in one
of four computable forms: a halfspace list {a_i . x <= b_i}, a vertex list
(polytope hull), a Euclidean norm ball, or a membership oracle with a
declared bounding radius.  The gauge of C at x is

    inf { mu : mu >= 0 and x in mu * C },

which may be asymmetric and may attain +inf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from .extreal import INF

DEFAULT_GAUGE_TOL = 1e-10


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
        V = np.atleast_2d(np.asarray(V, dtype=float))
        g = GaugeSet(kind="vertices", dim=V.shape[1], vertices=V)
        if not g.contains(np.zeros(V.shape[1])):
            raise InvalidGaugeError("0 is not in the hull of the vertices")
        return g

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
        if self.kind == "halfspaces":
            inside = np.all(X @ self.halfspace_A.T <= self.halfspace_b + tol, axis=1)
        elif self.kind == "ball":
            inside = np.linalg.norm(X, axis=1) <= self.radius + tol
        else:
            member = self.member if self.kind == "oracle" else self._in_hull
            inside = np.array([bool(member(p)) for p in X], dtype=bool)
        return bool(inside[0]) if one else inside

    def _in_hull(self, x) -> bool:
        nv = self.vertices.shape[0]
        A_eq = np.vstack([self.vertices.T, np.ones((1, nv))])
        b_eq = np.concatenate([x, [1.0]])
        res = linprog(np.zeros(nv), A_eq=A_eq, b_eq=b_eq,
                      bounds=[(0, None)] * nv, method="highs")
        return res.status == 0


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
    if C.kind == "halfspaces":
        # For C = {x : a_i . x <= b_i} with all b_i >= 0:
        # rows with b_i > 0 contribute a_i.x / b_i; rows with b_i = 0 force
        # +inf when a_i.x > 0 and are ignored otherwise.
        ax, b = X @ C.halfspace_A.T, C.halfspace_b
        ratio = np.divide(ax, b, out=np.where(ax > tol, INF, 0.0), where=b > 0.0)
        g = ratio.max(axis=1, initial=0.0)
    elif C.kind == "ball":
        g = np.linalg.norm(X, axis=1) / C.radius
    else:
        # per row, on the unit direction: M_C(x) = ||x|| M_C(x / ||x||), so
        # the absolute tolerances of the LP and the bisection are relative
        # to ||x||, and a small x is not rounded to the origin
        unit = _hull_gauge if C.kind == "vertices" else _ray_gauge
        norms = np.linalg.norm(X, axis=1)
        g = np.array([n * unit(C, p / n, tol) if n > 0.0 else 0.0
                      for p, n in zip(X, norms.tolist())])
    return float(g[0]) if one else g


def _hull_gauge(C: GaugeSet, u, tol: float) -> float:
    # u in mu*C  iff  u = sum c_i v_i with c >= 0, sum c_i = mu.
    nv = C.vertices.shape[0]
    res = linprog(np.ones(nv), A_eq=C.vertices.T, b_eq=u,
                  bounds=[(0, None)] * nv, method="highs")
    return float(res.fun) if res.status == 0 else INF


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
