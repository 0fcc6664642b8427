"""Convergence scheme for optimal values over approximating sets.

Given an expensive or implicit target set A, a sequence of surrogate sets
A_k with instance-certified Hausdorff bounds h_k >= D_H(A, A_k), and the
surrogate optima sigma_k = INF_f(A_k) from ``inf_over``, known to a
declared tolerance tau_k, the Lipschitz transfer gives

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

from .optima import ContinuousOnly, Lipschitz, ObjectiveFn, UniformModulus, inf_over
from .sets import FiniteCloud


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


def run_scheme(S: SchemeInstance, K: Optional[int] = None) -> ConvergenceCertificate:
    """Compute sigma_k = INF_f(A_k) on the first K levels and assemble brackets.

    The generic level bracket is [sigma - tau - Lambda*h, sigma + tau +
    Lambda*h].  For a certified inner approximation (A_k inside A), the
    surrogate infimum can only overshoot the true one, so the upper side
    sharpens to sigma + tau; the final bracket is the intersection across
    levels and must be nonempty.  A sampled sigma_k is only an estimate, so
    it is refused unless the instance declares a tolerance ``solver_tol``.
    """
    reg = S.objective.regularity
    if isinstance(reg, ContinuousOnly):
        raise ValueError(
            "scheme requires declared uniform or Lipschitz regularity")
    K = len(S.levels) if K is None else min(K, len(S.levels))
    tau = float(S.solver_tol)

    rows = []
    lo_best, hi_best = -math.inf, math.inf
    for k in range(K):
        A_k = S.levels[k]
        h_k = float(S.h_bounds[k])
        if not math.isfinite(h_k):
            raise ValueError(f"level {k}: h_k must be finite")
        opt = inf_over(S.objective, A_k)
        if opt.mode == "sampled" and tau == 0.0:
            raise ValueError(
                f"level {k}: sigma_k is sampled; declare its tolerance solver_tol")
        sigma = float(opt.value)
        if isinstance(reg, Lipschitz):
            transfer = reg.lam * h_k
        else:
            # modulus transfer: smallest grid eps with delta(eps) > h_k
            transfer = _modulus_transfer(reg, h_k)
        budget = tau + transfer
        # a few ulps of slack: the transfer bound can be mathematically
        # tight, so rounding must not push the true value off the bracket
        fp = 8 * np.finfo(float).eps * max(1.0, abs(sigma) + budget)
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
    eps = 1.0
    for _ in range(60):
        if reg.delta(eps / 2) > h:
            eps /= 2
        else:
            return eps
    return eps


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
    """
    levels, hs = [], []
    for m in m_seq:
        m = int(m)
        if m < 3:
            raise ValueError("polygon needs at least 3 vertices")
        offset = math.pi / m if orientation == "midpoint" else 0.0
        angles = offset + 2 * math.pi * np.arange(m) / m
        verts = np.column_stack([np.cos(angles), np.sin(angles)])
        mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
        levels.append(FiniteCloud(np.vstack([verts, mids, [[0.0, 0.0]]])))
        hs.append(1.0 - math.cos(math.pi / m))
    return tuple(levels), tuple(hs)


def build_inner_grid_family(A_hs, b_hs, ball_radius: float,
                            mesh_seq: Sequence[float],
                            interior_point) -> tuple:
    """Inner grid-cloud surrogates for {x : A x <= b, ||x|| <= R}.

    Per mesh, the cloud holds the grid points feasible with margin equal to
    the covering radius mesh*sqrt(n)/2.  The certified Hausdorff bound is

        h = (mesh*sqrt(n)/2) * (1 + 2R/rho),

    where rho is the feasibility margin of the supplied interior point:
    shrinking the region toward the ball B(x0, rho) by the covering radius
    moves no point farther than that factor, and every shrunk point has a
    grid neighbor within mesh*sqrt(n)/2.
    """
    A_hs = np.atleast_2d(np.asarray(A_hs, dtype=float))
    b_hs = np.asarray(b_hs, dtype=float).ravel()
    x0 = np.asarray(interior_point, dtype=float).ravel()
    n = A_hs.shape[1]
    row_norms = np.maximum(np.linalg.norm(A_hs, axis=1), 1e-30)
    rho = min(float(np.min((b_hs - A_hs @ x0) / row_norms)),
              ball_radius - float(np.linalg.norm(x0)))
    if rho <= 0:
        raise ValueError("supplied point is not strictly interior")

    levels, hs = [], []
    for mesh in mesh_seq:
        mesh = float(mesh)
        margin = mesh * math.sqrt(n) / 2.0
        if margin >= rho:
            raise ValueError(
                "no strictly feasible grid point guaranteed at this mesh; refine first")
        ticks = np.arange(-ball_radius, ball_radius + mesh / 2, mesh)
        grids = np.meshgrid(*([ticks] * n), indexing="ij")
        pts = np.column_stack([g.ravel() for g in grids])
        feas = (np.all(A_hs @ pts.T <= (b_hs - margin * row_norms)[:, None], axis=0)
                & (np.linalg.norm(pts, axis=1) <= ball_radius - margin))
        cloud = pts[feas]
        if cloud.shape[0] == 0:
            raise ValueError("empty inner cloud; refine first")
        levels.append(FiniteCloud(cloud))
        hs.append(margin * (1.0 + 2.0 * ball_radius / rho))
    return tuple(levels), tuple(hs)
