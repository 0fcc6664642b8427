"""Convex gauge sets and their Minkowski functionals.

A :class:`GaugeSet` describes a convex set C containing the origin, in one
of four computable forms: a halfspace list {a_i . x <= b_i}, a vertex list
(polytope hull), a Euclidean norm ball, or a membership oracle with a
declared bounding radius.  The gauge of C at x is

    inf { mu : mu >= 0 and x in mu * C },

which may be asymmetric and may attain +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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
        x = _as_points(x)
        if x.ndim == 2:
            _check_dim(x.shape[1], self.dim)
            if self.kind == "halfspaces":
                return np.all(x @ self.halfspace_A.T <= self.halfspace_b + tol, axis=1)
            if self.kind == "ball":
                return np.linalg.norm(x, axis=1) <= self.radius + tol
            return np.array([self.contains(p, tol) for p in x], dtype=bool)
        x = x.ravel()
        _check_dim(x.shape[0], self.dim)
        if self.kind == "halfspaces":
            return bool(np.all(self.halfspace_A @ x <= self.halfspace_b + tol))
        if self.kind == "ball":
            return bool(np.linalg.norm(x) <= self.radius + tol)
        if self.kind == "vertices":
            nv = self.vertices.shape[0]
            A_eq = np.vstack([self.vertices.T, np.ones((1, nv))])
            b_eq = np.concatenate([x, [1.0]])
            res = linprog(np.zeros(nv), A_eq=A_eq, b_eq=b_eq,
                          bounds=[(0, None)] * nv, method="highs")
            return bool(res.status == 0)
        return bool(self.member(x))


def _as_points(x) -> np.ndarray:
    """x as a float array; a NaN coordinate raises ValueError.

    One point is tested by its sum of squares, which is NaN exactly when a
    coordinate is (no term is negative, so inf - inf cannot occur): one dot
    product, the cheapest test for a form that the vertex and oracle row
    forms call per row.  Rows are tested elementwise, which starts no BLAS
    threads.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        has_nan = bool(np.isnan(x).any())
    else:
        flat = x.ravel()
        has_nan = math.isnan(flat.dot(flat))
    if has_nan:
        raise ValueError("NaN is not a coordinate of a point")
    return x


def _check_dim(got: int, dim: int) -> None:
    if got != dim:
        raise ValueError(f"point has dim {got}, gauge set has dim {dim}")


def minkowski_gauge(C: GaugeSet, x, tol: float = DEFAULT_GAUGE_TOL):
    """Gauge value M_C(x) in [0, inf] of one point, or an array of the
    gauges of the rows of an (n, dim) array.  A NaN coordinate raises
    ValueError."""
    x = _as_points(x)
    if x.ndim == 2:
        _check_dim(x.shape[1], C.dim)
        if C.kind == "halfspaces":
            # the rule below, row-wise: rows with b_i = 0 give 0 or +inf
            ax, b = x @ C.halfspace_A.T, C.halfspace_b
            ratio = np.divide(ax, b, out=np.where(ax > tol, INF, 0.0), where=b > 0.0)
            return ratio.max(axis=1, initial=0.0)
        if C.kind == "ball":
            return np.linalg.norm(x, axis=1) / C.radius
        return np.array([minkowski_gauge(C, p, tol) for p in x])
    x = x.ravel()
    _check_dim(x.shape[0], C.dim)

    if C.kind == "halfspaces":
        # For C = {x : a_i . x <= b_i} with all b_i >= 0:
        # rows with b_i > 0 contribute a_i.x / b_i; rows with b_i = 0 force
        # +inf when a_i.x > 0 and are ignored otherwise.
        # (Python floats: the one-point gauges of the linear layer run it)
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

    if C.kind == "vertices":
        # x in mu*C  iff  x = sum c_i v_i with c >= 0, sum c_i = mu.
        if np.allclose(x, 0.0):
            return 0.0
        nv = C.vertices.shape[0]
        res = linprog(np.ones(nv), A_eq=C.vertices.T, b_eq=x,
                      bounds=[(0, None)] * nv, method="highs")
        if res.status != 0:
            return INF
        return float(res.fun)

    # Oracle representation: membership along the ray is monotone in mu
    # (convexity plus 0 in C), so bracket and bisect.
    if np.allclose(x, 0.0):
        return 0.0
    norm_x = float(np.linalg.norm(x))
    mu_max = max(1.0, norm_x) * max(1.0, C.bounding_radius) * 1e6
    if not C.member(x / mu_max):
        return INF
    lo, hi = 0.0, mu_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if C.member(x / mid):
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
