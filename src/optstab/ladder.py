"""Lipschitz ladders: increasing convex sets S_k on which the gradient of a
smooth objective is lambda_k-Lipschitz.

The radii t_k are found by inverting the nondecreasing radial function
phi(t) = sup of the Hessian norm over (ball of radius t around y0) within
the feasible region, via bracket expansion and ITP root finding.  When that
radial function is bounded (the Hessian norm has a finite sup s over the
whole feasible region), the ladder short-circuits to the single constant s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .extreal import INF, call_rows
from .gauges import GaugeSet

TOL_LADDER = 1e-6
MAX_BRACKET_DOUBLINGS = 60
HESSIAN_SAMPLES = 1000      # boundary and interior samples of the sampled sup
REFINE_ROUNDS = 5           # coordinate refinement rounds around the best sample
ITP_K1, ITP_K2, ITP_N0 = 0.2, 2, 1   # ITP truncation k1 (hi - lo)^k2 and slack n0


@dataclass(frozen=True)
class SmoothProblem:
    """Twice-differentiable objective with feasible region C (a gauge-set
    body) intersected with an open box U, and a base point y0 in both.

    ``grad`` and ``hess_norm`` are called once per point unless marked with
    ``extreal.row_form``; then each takes an (n, dim) array and returns an
    (n, dim) array of gradients or n Hessian norms."""
    f: Callable = field(repr=False)
    grad: Callable = field(repr=False)
    hess_norm: Callable = field(repr=False)      # h(x) = ||f''(x)||
    dim: int = 1
    y0: np.ndarray = None
    C: Optional[GaugeSet] = None                 # None = whole space
    U_box: Optional[tuple] = None                # (lo, hi) open box, None = whole space
    hessian_sup_closed_form: Optional[Callable[[float], float]] = field(
        default=None, repr=False)                # t -> sup h over ball(y0,t) cap C cap U
    hessian_sup_bound: Optional[float] = None    # finite s if sup over C cap U is finite

    def __post_init__(self):
        y0 = np.atleast_1d(np.asarray(self.y0, dtype=float))
        object.__setattr__(self, "y0", y0)
        if not self.feasible(y0):
            raise ValueError("base point y0 is not in C intersect U")

    def feasible(self, x):
        """Whether x is in C intersect U; for an (n, dim) array, a boolean
        array over the rows."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        ok = np.full(x.shape[:-1], True) if self.C is None else self.C.contains(x)
        if self.U_box is not None:
            lo, hi = self.U_box
            ok = ok & np.all((x > np.asarray(lo, float))
                             & (x < np.asarray(hi, float)), axis=-1)
        return ok if x.ndim == 2 else bool(ok)


def _hess_values(P: SmoothProblem, X) -> np.ndarray:
    """hess_norm at each row of X, in order; a NaN value raises ValueError."""
    v = call_rows(P.hess_norm, len(X), X)
    if np.isnan(v).any():
        raise ValueError("hess_norm is NaN at a point of the feasible region")
    return v


def _directions(rng: np.random.Generator, k: int, dim: int) -> np.ndarray:
    """k unit rows from one (k, dim) standard normal block."""
    U = rng.standard_normal((k, dim))
    return U / np.maximum(np.linalg.norm(U, axis=1)[:, None], 1e-30)


def _ball_points(y0: np.ndarray, t: float, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """k points y0 + r u drawn uniformly from the ball of radius t around
    y0: first the k radii t U^(1/dim), then the k directions u."""
    radii = t * rng.uniform(0, 1, size=k) ** (1.0 / len(y0))
    return y0 + radii[:, None] * _directions(rng, k, len(y0))


def _on_sphere(y0: np.ndarray, t: float, dirs: np.ndarray) -> np.ndarray:
    """y0 + t u for each unit row u of dirs, each pulled toward y0 until its
    rounded distance from y0 is at most t: rounding would otherwise put
    some of the sphere outside the closed ball."""
    S = t * dirs
    X = y0 + S
    r = np.linalg.norm(X - y0, axis=1)
    while (out := r > t).any():
        S[out] *= ((t / r[out]) * (1.0 - np.finfo(float).eps))[:, None]
        X[out] = y0 + S[out]
        r[out] = np.linalg.norm(X[out] - y0, axis=1)
    return X


def hessian_sup(P: SmoothProblem, t: float,
                rng: Optional[np.random.Generator] = None) -> tuple:
    """sup of the Hessian norm over (ball of radius t around y0) within the
    feasible region.  The exact path returns the closed form, which is
    nondecreasing in t only if the closed form is; the sampled path draws
    fresh points on every call, so its values need not be monotone in t.

    Returns (value, mode).  The sampled fallback yields a lower bound on
    the true sup and is flagged mode='sampled'.  A NaN Hessian norm raises
    ValueError.  A sampled call is one sweep of 2 HESSIAN_SAMPLES points and
    2 dim REFINE_ROUNDS refinements; ``solve_radius`` makes about 8 a level.
    """
    if t < 0:
        raise ValueError("radius must be nonnegative")
    if P.hessian_sup_closed_form is not None:
        return float(P.hessian_sup_closed_form(t)), "exact"
    best_x = P.y0
    best = _hess_values(P, [P.y0])[0]
    if t == 0.0:
        return float(best), "exact"
    rng = rng if rng is not None else np.random.default_rng(0)

    def consider(X):
        # the first strict maximum over the rows in the ball and the region
        nonlocal best, best_x
        X = X[np.linalg.norm(X - P.y0, axis=1) <= t]
        X = X[P.feasible(X)]
        if len(X):
            v = _hess_values(P, X)
            i = int(np.argmax(v))
            if v[i] > best:
                best, best_x = v[i], X[i]

    # boundary then interior samples, then local coordinate refinement
    consider(_on_sphere(P.y0, t, _directions(rng, HESSIAN_SAMPLES, P.dim)))
    consider(_ball_points(P.y0, t, HESSIAN_SAMPLES, rng))
    step = t / 8.0
    for _ in range(REFINE_ROUNDS):
        for i in range(P.dim):
            for sgn in (-1.0, 1.0):
                e = np.zeros(P.dim)
                e[i] = sgn * step
                consider((best_x + e)[None])
        step /= 4.0
    return float(best), "sampled"


def solve_radius(P: SmoothProblem, lam: float, t_hint: float = 1.0,
                 tol: float = TOL_LADDER,
                 rng: Optional[np.random.Generator] = None) -> float:
    """t > 0 with |hessian_sup(t) - lam| <= tol, or the last point tried
    once the bracket is narrower than tol 1e-3 or holds no float strictly
    inside, whichever comes first: bracket expansion (doubling
    from max(t_hint, 1)), then ITP (Oliveira and Takahashi, ACM TOMS 47(1),
    2020) on v_lo < lam <= v_hi.  A step tries the regula-falsi point,
    moved toward the midpoint by k1 (hi - lo)^k2, k1 = ITP_K1 / w0, and held
    within w0 2^(n0 - 1 - j) - (hi - lo) / 2 of it at step j, w0 the
    expanded bracket's width.  So the bracket before step j is at most 2^n0
    times bisection's, and the search makes at most n0 sweeps more than
    bisection's worst case of J + 1, J the least j with w0 / 2^j < tol 1e-3:
    about 8 per level, expansion included, on a sampled 2-D quartic, where
    bisection made 25.  A sampled sup need not be nondecreasing in t, as
    each call draws fresh points, so its radius is one estimate."""
    s0, _ = hessian_sup(P, 0.0, rng=rng)
    if not lam > s0:
        raise ValueError(f"lambda = {lam} must exceed the base value {s0}")
    hi = max(t_hint, 1.0)
    lo = 0.0
    val_hi, _ = hessian_sup(P, hi, rng=rng)
    val_lo, doublings = s0, 0
    while val_hi < lam:
        lo, hi, val_lo = hi, 2.0 * hi, val_hi
        val_hi, _ = hessian_sup(P, hi, rng=rng)
        doublings += 1
        if doublings > MAX_BRACKET_DOUBLINGS:
            raise ValueError(
                "bracket expansion exhausted: unboundedness certificate violated")
    w0, k1 = hi - lo, ITP_K1 / (hi - lo)
    for j in itertools.count():
        mid = 0.5 * (lo + hi)
        # interpolate, truncate toward the midpoint, project into the radius
        x = lo + (hi - lo) * ((lam - val_lo) / (val_hi - val_lo))
        sigma = math.copysign(1.0, mid - x)
        delta = k1 * (hi - lo) ** ITP_K2
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        r = w0 * 2.0 ** (ITP_N0 - 1 - j) - 0.5 * (hi - lo)
        if not abs(x - mid) <= r:
            x = mid - sigma * r
        if not lo < x < hi:
            x = mid
        v, _ = hessian_sup(P, x, rng=rng)
        done = abs(v - lam) <= tol or hi - lo < tol * 1e-3
        if v < lam:
            lo, val_lo = x, v
        else:
            hi, val_hi = x, v
        if done or math.nextafter(lo, hi) == hi:   # or no float is left inside
            if x <= 0.0:
                raise ValueError("solved radius is not positive")
            return x


@dataclass(frozen=True)
class LadderResult:
    radii: tuple                 # t_k
    constants: tuple             # lambda_k
    short_circuit: Optional[float]   # finite global sup s, if detected
    verification: tuple          # per-level dicts

    @property
    def passed(self) -> bool:
        return all(v["verified"] for v in self.verification)


def _verify_level(P: SmoothProblem, t: float, lam: float,
                  rng: np.random.Generator, n_pairs: int,
                  inflation: float) -> dict:
    """Sampled gradient-difference check: ||g(x)-g(y)|| <= lam ||x-y|| for
    x, y in (ball of radius t) within the feasible region.  Points are drawn
    in chunks of the number still needed, each chunk as one ``_ball_points``
    block (k radii, then a (k, dim) block of directions), until 2 n_pairs
    are feasible or 40 n_pairs have been drawn; consecutive feasible points
    make the pairs.  A NaN ratio raises ValueError."""
    need, tries_left = 2 * n_pairs, 40 * n_pairs
    chunks, n_pts = [np.empty((0, P.dim))], 0
    while n_pts < need and tries_left > 0:
        k = min(need - n_pts, tries_left)
        tries_left -= k
        X = _ball_points(P.y0, t, k, rng)
        chunks.append(X[P.feasible(X)])
        n_pts += len(chunks[-1])
    pts = np.concatenate(chunks)
    pairs = pts[:n_pts - n_pts % 2].reshape(-1, 2, P.dim)
    dx = np.linalg.norm(pairs[:, 0] - pairs[:, 1], axis=1)
    pairs, dx = pairs[dx != 0.0], dx[dx != 0.0]
    X = pairs.reshape(-1, P.dim)
    g = call_rows(P.grad, len(X), X, width=P.dim)
    ratios = np.linalg.norm(g[0::2] - g[1::2], axis=-1) / dx
    if np.isnan(ratios).any():
        raise ValueError("gradient difference ratio is NaN at a sampled pair")
    worst = float(np.max(ratios, initial=0.0))
    return dict(t=t, **{"lambda": lam}, worst_ratio=worst,
                verified=bool(worst <= lam * inflation and n_pts >= 2),
                n_points=n_pts)


def build_ladder(P: SmoothProblem, lam_seq: Sequence[float],
                 rng: Optional[np.random.Generator] = None,
                 n_pairs: int = 10_000, tol: float = TOL_LADDER) -> LadderResult:
    """Radii t_k with hessian_sup(t_k) = lambda_k, plus per-level sampled
    Lipschitz verification of the gradient on the ball of radius t_k."""
    lam_seq = [float(l) for l in lam_seq]
    if any(b <= a for a, b in zip(lam_seq, lam_seq[1:])):
        raise ValueError("lambda sequence must be strictly increasing")
    rng = rng if rng is not None else np.random.default_rng(0)

    s0, mode0 = hessian_sup(P, 0.0, rng=rng)
    inflation = 1 + 1e-6 if mode0 == "exact" and P.hessian_sup_closed_form else 1 + 1e-3

    if P.hessian_sup_bound is not None and math.isfinite(P.hessian_sup_bound):
        s = float(P.hessian_sup_bound)
        big_t = 10.0 * max(1.0, float(np.linalg.norm(P.y0)) + 10.0)
        v = _verify_level(P, big_t, s, rng, n_pairs, 1 + 1e-6)
        return LadderResult(radii=(INF,), constants=(s,), short_circuit=s,
                            verification=(v,))

    radii, verifs = [], []
    t_hint = 1.0
    for lam in lam_seq:
        t = solve_radius(P, lam, t_hint=t_hint, tol=tol, rng=rng)
        t_hint = t
        if radii and t < radii[-1]:
            t = radii[-1]  # radial sup is nondecreasing; keep radii monotone
        radii.append(t)
        verifs.append(_verify_level(P, t, lam, rng, n_pairs, inflation))
    return LadderResult(radii=tuple(radii), constants=tuple(lam_seq),
                        short_circuit=None, verification=tuple(verifs))
