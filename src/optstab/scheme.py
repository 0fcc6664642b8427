"""Convergence scheme for optimal values over approximating sets.

Given an expensive or implicit target set A, a sequence of surrogate sets
A_k with instance-certified Hausdorff bounds h_k >= D_H(A, A_k), and the
surrogate optima sigma_k = INF_f(A_k) (one ``optima._extremes`` pass over
the levels), known to a declared tolerance tau_k, the Lipschitz transfer gives

    |sigma_k - INF_f(A)| <= tau_k + Lambda * h_k   per level,

so each level yields a bracket for the true optimal value and the brackets
must all mutually intersect.  h_k must be certified analytically by the
instance: a sampled Hausdorff distance is only a lower bound and would
invalidate the budget (it is still logged for diagnostics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .extreal import finite_array, scale
from .optima import ContinuousOnly, Lipschitz, ObjectiveFn, UniformModulus, _extremes
from .sets import DEFAULT_BUDGET, FiniteCloud


@dataclass(frozen=True)
class SchemeInstance:
    objective: ObjectiveFn
    levels: tuple                       # surrogate sets A_k
    h_bounds: tuple                     # certified h_k >= D_H(A, A_k)
    solver_tol: float = 0.0             # tau_k (uniform across levels)
    inner: bool = False                 # A_k certified to lie inside A

    def __post_init__(self):
        if len(self.levels) != len(self.h_bounds):
            raise ValueError("levels and h_bounds must have equal length")
        hs = [float(h) for h in self.h_bounds]
        if any(hs[i + 1] > hs[i] + 1e-15 for i in range(len(hs) - 1)):
            raise ValueError("h_k must be nonincreasing")


@dataclass(frozen=True)
class ConvergenceCertificate:
    rows: tuple            # dicts: k, h_k, sigma_k, tau_k, budget_k, bracket_lo, bracket_hi
    final_bracket: tuple   # intersection of all level brackets

    @property
    def final_width(self) -> float:
        return self.final_bracket[1] - self.final_bracket[0]

    def contains(self, value: float) -> bool:
        return self.final_bracket[0] <= value <= self.final_bracket[1]


_EPS = math.ulp(1.0)   # np.finfo(float).eps as a Python float, so the brackets are floats


def run_scheme(S: SchemeInstance, K: Optional[int] = None) -> ConvergenceCertificate:
    """Compute sigma_k = INF_f(A_k) on the first K levels and assemble brackets.

    The generic level bracket is [sigma - tau - Lambda*h, sigma + tau +
    Lambda*h].  For a certified inner approximation (A_k inside A), the
    surrogate infimum can only overshoot the true one, so the upper side
    sharpens to sigma + tau; the final bracket is the intersection across
    levels and must be nonempty.  A sampled sigma_k is only an estimate, so
    it is refused unless the instance declares a tolerance ``solver_tol``.
    All K sigma_k come from one ``optima._extremes`` pass, each as
    ``inf_over`` gives it (a sampled level draws from its own
    ``default_rng(0)``), before any level is checked.
    """
    reg = S.objective.regularity
    if isinstance(reg, ContinuousOnly):
        raise ValueError(
            "scheme requires declared uniform or Lipschitz regularity")
    K = len(S.levels) if K is None else min(max(K, 0), len(S.levels))
    tau = float(S.solver_tol)

    rows = []
    lo_best, hi_best = -math.inf, math.inf
    sigmas, read = _extremes(S.objective, S.levels[:K], False, DEFAULT_BUDGET, None)
    for k, sigma in enumerate(sigmas.tolist()):
        h_k = float(S.h_bounds[k])
        if not math.isfinite(h_k):
            raise ValueError(f"level {k}: h_k must be finite")
        if k in read and read[k].mode == "sampled" and tau == 0.0:
            raise ValueError(
                f"level {k}: sigma_k is sampled; declare its tolerance solver_tol")
        if not math.isfinite(sigma):
            raise ValueError(f"level {k}: sigma_k = {sigma} is not finite")
        if isinstance(reg, Lipschitz):
            transfer = scale(reg.lam, h_k)   # 0 * inf = 0
        else:
            transfer = _modulus_transfer(reg, h_k)
        budget = tau + transfer
        # a few ulps of slack: the transfer bound can be mathematically
        # tight, so rounding must not push the true value off the bracket;
        # with an infinite budget only the inner side sigma + tau is finite
        fp = 8 * _EPS * max(1.0, abs(sigma) + (budget if budget < math.inf else tau))
        lo = sigma - budget - fp
        hi = (sigma + tau if S.inner else sigma + budget) + fp
        lo_best, hi_best = max(lo_best, lo), min(hi_best, hi)
        if lo_best > hi_best + 1e-15:
            raise ValueError(
                f"level {k}: brackets do not intersect (bad h_k or solver tolerance)")
        rows.append(dict(k=k, h_k=h_k, sigma_k=sigma, tau_k=tau,
                         budget_k=budget, bracket_lo=lo, bracket_hi=hi))
    return ConvergenceCertificate(rows=tuple(rows),
                                  final_bracket=(lo_best, hi_best))


def _modulus_transfer(reg: UniformModulus, h: float) -> float:
    """The smallest eps = 2^j, |j| <= 60, with delta(eps) > h, so that points
    within h have values within eps; +inf (no lower bound from this level)
    when there is none."""
    grid = (2.0 ** j for j in range(-60, 61))
    return next((eps for eps in grid if reg.delta(eps) > h), math.inf)


# ---------------------------------------------------------------------------
# approximation families
# ---------------------------------------------------------------------------

def build_inner_polygon_family(m_seq: Sequence[int],
                               orientation: str = "midpoint") -> tuple:
    """Filled regular m-gon surrogates for the closed unit disk.

    Certified h_m = 1 - cos(pi/m): the sagitta of one edge, which is the
    farthest any disk point lies from the inscribed filled polygon.  Each
    cloud holds the vertices and edge midpoints (the candidate extreme
    points of distance-type objectives over the filled polygon).

    orientation='midpoint' places an edge midpoint on the +x axis;
    'vertex' places a vertex there.  The certified bound is valid for both.
    All levels are built in one pass: one angle array, offset + 2 pi k / m,
    worked in place, and one cos and one sin call, each written into its
    column of one array through boolean masks of the vertex and midpoint
    rows; that array is checked once, and each cloud is a slice of it.
    """
    ms = np.array([int(m) for m in m_seq], dtype=np.int64)
    if (ms < 3).any():
        raise ValueError("polygon needs at least 3 vertices")
    # level i is m_i vertex rows (kind 1), m_i midpoint rows (kind 2) and the origin (kind 0)
    kind = np.repeat(np.tile(np.array([1, 2, 0], dtype=np.int8), len(ms)),
                     np.stack([ms, ms, np.ones_like(ms)], axis=1).ravel())
    first = np.cumsum(ms) - ms                    # each level's first vertex, in vertex order
    m = np.repeat(ms, ms)
    angles = np.arange(len(m), dtype=float)
    angles -= np.repeat(first, ms)                # a vertex's index k in its level
    angles *= 2 * math.pi
    angles /= m
    if orientation == "midpoint":
        angles += np.pi / m   # offset + 2 pi k / m: a sum rounds the same in either order
    del m
    pts, mid = np.zeros((len(kind), 2)), np.empty_like(angles)
    for j, v in enumerate((np.cos(angles), np.sin(angles, out=angles))):   # one coordinate at a time
        col = pts[:, j]
        col[kind == 1] = v
        mid[:-1], mid[first + ms - 1] = v[1:], v[first]   # vertex k + 1 mod m, then the midpoint
        mid += v
        mid *= 0.5
        col[kind == 2] = mid
    finite_array(pts, "cloud points", allow_inf=True)
    ends, ms = np.cumsum(2 * ms + 1).tolist(), ms.tolist()
    levels = tuple(FiniteCloud._of_checked(pts[e - 2 * n - 1:e]) for e, n in zip(ends, ms))
    return levels, tuple(1.0 - math.cos(math.pi / n) for n in ms)
