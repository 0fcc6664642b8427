"""Dense linear maps, generalized inverses with Lipschitz certificates,
affine solution families, and the Hoffman-type distance bound.

A :class:`LinearMap` stores an SVD-based decomposition (kernel/range bases,
minimum-norm preimages of the range basis).  Two generalized-inverse kinds
are provided: the Moore-Penrose pseudo-inverse and the restricted inverse
built from the stored preimage basis, the latter carrying a certified
(kappa, tau, eta, sigma) Lipschitz bound with respect to user gauges.
The Hoffman check bounds the Hausdorff distance between the solution slabs
of L x = s and L x = t by that certificate applied to the gauge of s - t.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .distances import PseudoDistance, euclidean
from .extreal import INF, row_form
from .gauges import GaugeSet, as_magnitude, minkowski_gauge
from .optima import Lipschitz, ObjectiveFn, VerdictReport
from .parametric import (ParamFamily, ValueFunction, _delta_search,
                         certify_value_lipschitz, empirical_value_continuity)
from .sets import DEFAULT_BUDGET, AffineSlab, ImplicitSampled, hausdorff

TOL_RANK = 1e-12  # relative singular-value cutoff
TOL_HOFFMAN = 1e-9
ETA_INFLATION = 1.1
ETA_SAMPLES = 100_000
BOX_SCALE = 1e3  # sampling box half-width of A_t per unit of 1 + ||apply(t)||


@dataclass(frozen=True)
class LinearMap:
    matrix: np.ndarray                 # (m, n)
    singular_values: np.ndarray
    rank: int
    kernel_basis: np.ndarray           # (n, n - r), orthonormal columns
    range_basis: np.ndarray            # (m, r), orthonormal columns
    preimages: np.ndarray              # (n, r): minimum-norm v_j with L v_j = w_j
    pinv: np.ndarray                   # (n, m)

    @property
    def tol_lin(self) -> float:
        # the spectral norm is the largest stored singular value (0 at rank 0)
        smax = float(self.singular_values[0]) if self.rank else 0.0
        return 1e-10 * max(1.0, smax)

    def in_range(self, t, tol: Optional[float] = None) -> bool:
        t = np.asarray(t, dtype=float).ravel()
        tol = self.tol_lin if tol is None else tol
        resid = self.matrix @ (self.pinv @ t) - t
        return bool(np.linalg.norm(resid) <= tol * max(1.0, np.linalg.norm(t)))


def _svd_pinv(L: np.ndarray) -> tuple:
    """(U, s, Vt, rank, pinv) of a matrix (m, n) or of each matrix of a
    stack (k, m, n): the full SVD, the rank cut at sigma_i > TOL_RANK *
    sigma_max (0 when sigma_max = 0) and the Moore-Penrose inverse
    Vt^T S^+ U^T.  S^+ keeps the zero-padded (n, m) shape of the
    per-matrix code, so that the products add their terms in the same order
    for a stack and for each of its matrices alone."""
    U, s, Vt = np.linalg.svd(L, full_matrices=True)
    keep = s > TOL_RANK * s[..., :1]
    *stack, m, n = L.shape
    s_inv = np.zeros((*stack, n, m))
    diag = np.arange(s.shape[-1])
    s_inv[..., diag, diag] = 1.0 / np.where(keep, s, INF)
    pinv = np.swapaxes(Vt, -1, -2) @ s_inv @ np.swapaxes(U, -1, -2)
    return U, s, Vt, keep.sum(-1), pinv


def _finite_matrix(L) -> np.ndarray:
    L = np.atleast_2d(np.asarray(L, dtype=float))
    if not np.all(np.isfinite(L)):
        raise ValueError("matrix entries must be finite")
    return L


def decompose(L) -> LinearMap:
    """SVD decomposition with rank cut at sigma_i > TOL_RANK * sigma_max."""
    L = _finite_matrix(L)
    U, s, Vt, r, pinv = _svd_pinv(L)
    r = int(r)
    range_b = U[:, :r]
    return LinearMap(matrix=L, singular_values=s[:r], rank=r,
                     kernel_basis=Vt[r:, :].T, range_basis=range_b,
                     preimages=pinv @ range_b, pinv=pinv)


def load_matrix_txt(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))


def save_matrix_txt(M, path) -> None:
    np.savetxt(path, np.atleast_2d(np.asarray(M, float)), delimiter=",")


PENROSE_IDENTITIES = ("LPL-L", "PLP-P", "LP-sym", "PL-sym")


def _frobenius(X: np.ndarray) -> np.ndarray:
    """||X_i||_F of each matrix of a stack (k, m, n), with the bits of
    ``np.linalg.norm``: one dot product of the flattened matrix with itself."""
    flat = X.reshape(len(X), 1, -1)
    return np.sqrt(flat @ np.swapaxes(flat, -1, -2)).ravel()


def _penrose_norms(L: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Residual norms of the four defining identities (columns in the order
    of PENROSE_IDENTITIES) for each pair (L_i, P_i) of two stacks."""
    LP, PL = L @ P, P @ L
    return np.stack([_frobenius(LP @ L - L), _frobenius(PL @ P - P),
                     _frobenius(LP - np.swapaxes(LP, -1, -2)),
                     _frobenius(PL - np.swapaxes(PL, -1, -2))], axis=1)


def penrose_residuals(lm: LinearMap) -> dict:
    """Residual norms of the four defining identities of the pseudo-inverse."""
    norms = _penrose_norms(lm.matrix[None], lm.pinv[None])[0]
    return dict(zip(PENROSE_IDENTITIES, norms.tolist()))


def penrose_table(mats: Sequence) -> tuple:
    """(rank, residuals, ||L||_F) of each matrix of ``mats``, in input order:
    integer ranks (k,), the Penrose residual norms (k, 4) in the order of
    PENROSE_IDENTITIES, and Frobenius norms (k,).  The matrices of one
    shape share one stacked SVD and residual computation.  Each rank and
    residual has the bits that ``decompose`` and ``penrose_residuals`` give
    for that matrix alone, and each norm those of ``np.linalg.norm`` on the
    matrix in C order (which sums a Fortran-ordered matrix in its own
    order)."""
    mats = [np.atleast_2d(np.asarray(L, dtype=float)) for L in mats]
    rank = np.zeros(len(mats), dtype=int)
    resid = np.zeros((len(mats), len(PENROSE_IDENTITIES)))
    fro = np.zeros(len(mats))
    groups = {}
    for i, L in enumerate(mats):
        groups.setdefault(L.shape, []).append(i)
    for idx in groups.values():
        L = _finite_matrix(np.stack([mats[i] for i in idx]))
        *_, rank[idx], P = _svd_pinv(L)
        resid[idx] = _penrose_norms(L, P)
        fro[idx] = _frobenius(L)
    return rank, resid, fro


def kernel_projector_identity_residual(lm: LinearMap) -> float:
    """|| pinv L - (id - P_ker) ||: the pseudo-inverse inverts L exactly
    off the kernel."""
    n = lm.matrix.shape[1]
    P_ker = lm.kernel_basis @ lm.kernel_basis.T
    return float(np.linalg.norm(lm.pinv @ lm.matrix - (np.eye(n) - P_ker)))


# ---------------------------------------------------------------------------
# generalized inverses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EGI:
    """A right inverse of L modulo its kernel: L(apply(t)) = t on the range.

    ``apply`` is defined only on range(L); the certificate is an upper bound
    on the Lipschitz constant of apply with respect to the declared gauges.
    """
    kind: str  # "pseudo_inverse" | "restricted_inverse"
    linmap: LinearMap
    apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    lipschitz_cert: dict = field(default_factory=dict)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float).ravel()
        if not self.linmap.in_range(t):
            raise ValueError("parameter is outside the range of the map")
        return self.apply(t)

    @property
    def constant(self) -> float:
        return self.lipschitz_cert["constant"]

    def cert_to_json(self, path) -> None:
        doc = {k: v for k, v in self.lipschitz_cert.items()}
        doc["kind"] = self.kind
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=float)


def pseudo_inverse(lm: LinearMap) -> EGI:
    """Moore-Penrose inverse as an EGI; its apply() is the minimum-norm
    preimage selector, so the constant is the operator norm of pinv."""
    const = float(np.linalg.norm(lm.pinv, 2))
    cert = dict(constant=const, mode="operator-norm", kappa=1.0)
    return EGI(kind="pseudo_inverse", linmap=lm,
               apply=lambda t: lm.pinv @ np.asarray(t, float).ravel(),
               lipschitz_cert=cert)


def _eta_for_gauge(lm: LinearMap, S_Y, rng: np.random.Generator,
                   n_samples: int = ETA_SAMPLES) -> tuple:
    """eta = sup of max-abs range coordinate over the S_Y unit sphere in
    range(L).  Exact for Euclidean-ball gauges; sampled with a fixed
    inflation factor otherwise (eta is a supremum with no general recipe).
    """
    if isinstance(S_Y, GaugeSet) and S_Y.kind == "ball":
        return float(S_Y.radius), "exact-ball"
    dirs = rng.standard_normal((n_samples, lm.rank))
    norms = np.linalg.norm(dirs, axis=1)
    dirs = dirs[norms > 0] / norms[norms > 0, None]
    S = dirs @ lm.range_basis.T
    if isinstance(S_Y, GaugeSet):
        g = minkowski_gauge(S_Y, S)
    else:
        g = np.array([float(S_Y(s)) for s in S])
    ok = g > 0.0  # drops zero and NaN gauges; an infinite one gives ratio 0
    worst = float(np.max(np.max(np.abs(dirs[ok]), axis=1) / g[ok], initial=0.0))
    return worst * ETA_INFLATION, "sampled-inflated"


def restricted_inverse_egi(lm: LinearMap, S_X, S_Y, kappa: float = 1.0,
                           rng: Optional[np.random.Generator] = None,
                           n_eta_samples: int = ETA_SAMPLES) -> EGI:
    """Restricted inverse through the stored preimage basis, with the
    certified constant kappa * sigma, where

        tau   = max(kappa, ..., kappa^(r-1)),
        eta   = sup of ||coords||_inf over the S_Y unit sphere in the range,
        sigma = tau * eta * sum_j S_X(v_j).

    kappa is the gauge's subadditivity defect (1 for norms); it is declared
    by the caller and not checked here: the caller must confirm it, for
    example with ``check_gauge_subadditivity``.
    """
    if lm.rank == 0:
        raise ValueError("range is {0}: restricted inverse undefined")
    rng = rng if rng is not None else np.random.default_rng(0)
    mag_x = as_magnitude(S_X)
    mag_y = as_magnitude(S_Y)

    sum_sx = 0.0
    for j in range(lm.rank):
        v = lm.preimages[:, j]
        sxv = float(mag_x(v))
        if not np.isfinite(sxv):
            raise ValueError("S_X is infinite on a stored preimage")
        sum_sx += sxv
    for j in range(lm.rank):
        w = lm.range_basis[:, j]
        if not mag_y(w) > 0:
            raise ValueError("S_Y vanishes on a nonzero range point")

    eta, eta_mode = _eta_for_gauge(lm, S_Y, rng, n_eta_samples)
    tau = max(kappa ** p for p in range(1, max(2, lm.rank)))
    sigma = tau * eta * sum_sx
    cert = dict(kappa=float(kappa), tau=float(tau), eta=float(eta),
                sigma=float(sigma), constant=float(kappa * sigma),
                mode=eta_mode, inflation=(ETA_INFLATION if eta_mode != "exact-ball" else 1.0))

    def apply(t):
        t = np.asarray(t, dtype=float).ravel()
        beta = lm.range_basis.T @ t
        return lm.preimages @ beta

    return EGI(kind="restricted_inverse", linmap=lm, apply=apply,
               lipschitz_cert=cert)


def check_gauge_subadditivity(S_X, kappa: float, pairs) -> bool:
    """Spot-check S_X(a u + b v) <= kappa (|a| S_X(u) + |b| S_X(v))."""
    mag = as_magnitude(S_X)
    for (alpha, u, beta, v) in pairs:
        lhs = mag(alpha * np.asarray(u, float) + beta * np.asarray(v, float))
        rhs = kappa * (abs(alpha) * mag(u) + abs(beta) * mag(v))
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            return False
    return True


def sampled_worst_ratio(E: EGI, S_X, S_Y, rng: np.random.Generator,
                        n_pairs: int = 10_000) -> float:
    """Monte-Carlo lower bound on the true Lipschitz constant of apply():
    max over sampled range pairs of S_X(apply(y) - apply(z)) / S_Y(y - z)."""
    lm = E.linmap
    mag_x, mag_y = as_magnitude(S_X), as_magnitude(S_Y)
    worst = 0.0
    betas = rng.standard_normal((2 * n_pairs, lm.rank))
    for i in range(n_pairs):
        y = lm.range_basis @ betas[2 * i]
        z = lm.range_basis @ betas[2 * i + 1]
        g = mag_y(y - z)
        if not 0.0 < g < INF:
            continue
        worst = max(worst, float(mag_x(E.apply(y) - E.apply(z))) / g)
    return worst


# ---------------------------------------------------------------------------
# affine solution families and the Hoffman-type bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AffineFamily:
    """t -> {x : L x = t}, box-truncated for sampling.

    Every member is a translate A_t = A_0 + apply(t) of the kernel slab A_0,
    whose basis is orthonormalized once, here, and shared by all members.
    """
    linmap: LinearMap
    egi: EGI
    kernel_slab: AffineSlab = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel_slab", AffineSlab(
            np.zeros(self.linmap.matrix.shape[1]), self.linmap.kernel_basis))

    def member(self, t) -> AffineSlab:
        t = np.asarray(t, dtype=float).ravel()
        if not self.linmap.in_range(t):
            raise ValueError("parameter is outside the range of the map")
        particular = self.egi.apply(t)
        half = BOX_SCALE * (1.0 + float(np.linalg.norm(particular)))
        return self.kernel_slab.translated(particular, box_halfwidth=half)

    def as_param_family(self, index_distance: PseudoDistance,
                        alpha: Optional[float] = None) -> ParamFamily:
        rate = None
        if alpha is not None:
            rate = lambda t, s: alpha
        return ParamFamily(index_distance=index_distance, member=self.member,
                           admissible_class="all-nonempty",
                           hausdorff_rate=rate)


def affine_family(L, egi: Optional[EGI] = None) -> AffineFamily:
    lm = L if isinstance(L, LinearMap) else decompose(L)
    if egi is None:
        egi = pseudo_inverse(lm)
    return AffineFamily(linmap=lm, egi=egi)


def hoffman_check(F: AffineFamily, E: EGI, S_Yt, pairs: Sequence,
                  nu: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
                  tol: float = TOL_HOFFMAN,
                  budget: int = DEFAULT_BUDGET,
                  rng: Optional[np.random.Generator] = None) -> VerdictReport:
    """D_H(A_s, A_t) <= max{alpha S(s-t), alpha S(t-s)} + tol per pair.

    With ``nu`` supplied, the bound is max{nu(s,t), nu(t,s)} instead (the
    generalized-rate variant).  Also spot-checks the translation structure
    A_t = A_0 + apply(t) on slab samples.
    """
    mag = as_magnitude(S_Yt)
    alpha = E.constant
    lm = F.linmap
    d = euclidean(lm.matrix.shape[1])
    rng = rng if rng is not None else np.random.default_rng(0)

    columns = ["pair_id", "D_H", "bound", "slack", "translation_ok", "verdict"]
    rows = []
    for i, (s, t) in enumerate(pairs):
        s = np.asarray(s, dtype=float).ravel()
        t = np.asarray(t, dtype=float).ravel()
        As, At = F.member(s), F.member(t)
        dh = hausdorff(d, As, At, budget=budget, rng=rng).value
        if nu is not None:
            bound = max(nu(s, t), nu(t, s)) + tol
        else:
            bound = alpha * max(mag(s - t), mag(t - s)) + tol

        # translation structure: x - apply(t) lies in the kernel slab A_0
        X = At.sample(8, rng)
        resid = np.linalg.norm((X - E.apply(t)) @ lm.matrix.T, axis=1)
        ok = bool(np.all(resid <= lm.tol_lin * np.maximum(1.0, np.linalg.norm(X, axis=1))))
        slack = bound - dh
        rows.append(dict(pair_id=i, D_H=dh, bound=bound, slack=slack,
                         translation_ok=ok,
                         verdict="pass" if (slack >= 0 and ok) else "fail"))
    return VerdictReport(columns, rows)


# ---------------------------------------------------------------------------
# worked parametric examples over affine families
# ---------------------------------------------------------------------------

def example_whole_space(f: ObjectiveFn, L, S_X, S_Yt,
                        probe_params: Sequence,
                        pair_params: Sequence,
                        conj_beta: Optional[float] = None,
                        eps_grid: Sequence[float] = (0.5, 0.1),
                        budget: int = DEFAULT_BUDGET,
                        rng: Optional[np.random.Generator] = None) -> dict:
    """phi_*(t) = inf { f(x) : L x = t } over the whole space.

    Certifies continuity empirically on the probes and, when f is
    Lipschitz(Lam) and the conjugate gauge t -> S(-t) is beta-Lipschitz,
    the alpha * max(1, beta) * Lam constant on the pairs.
    """
    if not f.bounded_below:
        raise ValueError("hypothesis unmet: objective not declared bounded below")
    reg = f.regularity
    if not isinstance(reg, Lipschitz):
        raise ValueError("hypothesis unmet: objective regularity is not Lipschitz")
    mag_t = as_magnitude(S_Yt)
    if mag_t(np.zeros(np.atleast_2d(np.asarray(L)).shape[0])) != 0.0:
        raise ValueError("hypothesis unmet: S(0) != 0 on the parameter gauge")

    lm = L if isinstance(L, LinearMap) else decompose(L)
    egi = pseudo_inverse(lm)
    fam = affine_family(lm, egi)
    alpha = egi.constant
    beta = conj_beta if conj_beta is not None else 1.0
    const = alpha * max(1.0, beta) * reg.lam

    d_param = PseudoDistance(
        name="param-gauge",
        fn=lambda s, t: float(mag_t(np.asarray(t, float) - np.asarray(s, float))),
        ambient_dim=None)
    pf = ParamFamily(index_distance=d_param, member=fam.member,
                     admissible_class="all-nonempty",
                     hausdorff_rate=lambda t, s: alpha * max(1.0, beta))
    V = ValueFunction(mode="inf", family=pf, objective=f)

    cont = empirical_value_continuity(V, probe_params[0], probe_params,
                                      eps_grid, budget=budget, rng=rng)
    lip = certify_value_lipschitz(V, pair_params, budget=budget, rng=rng)
    return dict(constant=const, alpha=alpha, beta=beta,
                continuity=cont, lipschitz=lip,
                passed=(cont["verdict"] == "pass" and lip.passed))


def _interior_point_in_slice(A_hs, b_hs, L, t):
    """Strictly interior x of {A x <= b} with L x = t, via max-margin LP."""
    A_hs = np.atleast_2d(np.asarray(A_hs, float))
    b_hs = np.asarray(b_hs, float).ravel()
    L = np.atleast_2d(np.asarray(L, float))
    t = np.atleast_1d(np.asarray(t, float))
    n = A_hs.shape[1]
    row_norms = np.linalg.norm(A_hs, axis=1)
    # variables (x, m): maximize m subject to A x + m * ||a_i|| <= b, L x = t
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A_hs, row_norms[:, None]])
    A_eq = np.hstack([L, np.zeros((L.shape[0], 1))])
    res = linprog(c, A_ub=A_ub, b_ub=b_hs, A_eq=A_eq, b_eq=t,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if res.status != 0 or res.x[-1] <= 1e-12:
        return None, 0.0
    return res.x[:n], float(res.x[-1])


def _slice_member(lm: LinearMap, t, A_hs, b_hs) -> Callable:
    """Row-form membership in {x : L x = t} (to 10 tol_lin) within
    {x : A_hs x <= b_hs} (to 1e-9)."""
    @row_form
    def member(X):
        ok_eq = np.linalg.norm(X @ lm.matrix.T - t, axis=1) <= lm.tol_lin * 10
        return ok_eq & np.all(X @ A_hs.T <= b_hs + 1e-9, axis=1)
    return member


def example_mixed_constraints(f: ObjectiveFn, L, C: GaugeSet,
                              probe_params: Sequence, s0,
                              eps_grid: Sequence[float] = (0.5, 0.1),
                              budget: int = DEFAULT_BUDGET,
                              rng: Optional[np.random.Generator] = None) -> dict:
    """A_t = {x : L x = t} intersected with a compact polytope C.

    Probes are kept only when the slice meets the interior of C; verifies
    empirically that D_H(A_s0, A_t) -> 0 and that phi_* is continuous at s0,
    and numerically probes openness/convexity of the admissible parameter
    set (small balls around admissible probes stay admissible; midpoints of
    admissible pairs are admissible).
    """
    if C.kind not in ("halfspaces", "vertices"):
        raise ValueError("C must be a compact polytope (halfspaces or vertices)")
    if C.kind == "vertices":
        raise ValueError("vertex polytopes: convert to halfspaces first")
    lm = L if isinstance(L, LinearMap) else decompose(L)
    A_hs, b_hs = C.halfspace_A, C.halfspace_b
    bound_r = float(np.max(np.abs(b_hs) / np.maximum(
        np.linalg.norm(A_hs, axis=1), 1e-30))) * np.sqrt(C.dim) + 1.0

    def slice_at(t):
        t_arr = np.atleast_1d(np.asarray(t, float))
        x0, margin = _interior_point_in_slice(A_hs, b_hs, lm.matrix, t_arr)
        if x0 is None:
            return None
        K = lm.kernel_basis

        def sampler(n, rg):
            z = rg.uniform(-bound_r, bound_r, size=(n, K.shape[1]))
            return x0 + z @ K.T

        return ImplicitSampled(member=_slice_member(lm, t_arr, A_hs, b_hs),
                               sampler=sampler, dim=lm.matrix.shape[1],
                               witness=x0)

    admissible, excluded = [], []
    for t in probe_params:
        if slice_at(t) is not None:
            admissible.append(t)
        else:
            excluded.append((t, "no strictly interior feasible point"))
    if slice_at(s0) is None:
        raise ValueError("base parameter s0 has no strictly interior feasible point")

    d = euclidean(lm.matrix.shape[1])
    A0 = slice_at(s0)
    rng = rng if rng is not None else np.random.default_rng(0)

    # set convergence: for each eps, a delta such that close params give close sets
    d_param = PseudoDistance(
        name="param-euclid",
        fn=lambda s, t: float(np.linalg.norm(np.atleast_1d(np.asarray(t, float))
                                             - np.atleast_1d(np.asarray(s, float)))),
        ambient_dim=None)
    set_rows = []
    for t in admissible:
        di = d_param.fn(s0, t)
        dh = hausdorff(d, A0, slice_at(t), budget=budget, rng=rng).value
        set_rows.append((t, di, dh))
    set_conv = {eps: _delta_search(set_rows, eps) for eps in eps_grid}

    pf = ParamFamily(index_distance=d_param, member=slice_at,
                     admissible_class="all-nonempty-bounded")
    V = ValueFunction(mode="inf", family=pf, objective=f)
    cont = empirical_value_continuity(V, s0, admissible, eps_grid,
                                      budget=budget, rng=rng)

    # openness / convexity probes of the admissible parameter set
    open_ok, convex_ok = True, True
    for t in admissible:
        t_arr = np.atleast_1d(np.asarray(t, float))
        for _ in range(4):
            pert = t_arr + rng.uniform(-1e-4, 1e-4, size=t_arr.shape)
            if slice_at(pert) is None:
                open_ok = False
    for i in range(len(admissible)):
        for j in range(i + 1, len(admissible)):
            mid = 0.5 * (np.atleast_1d(np.asarray(admissible[i], float))
                         + np.atleast_1d(np.asarray(admissible[j], float)))
            if slice_at(mid) is None:
                convex_ok = False

    return dict(admissible=admissible, excluded=excluded,
                set_convergence=set_conv, continuity=cont,
                interval_open=open_ok, interval_convex=convex_ok,
                passed=(cont["verdict"] == "pass"
                        and all(v is not None for v in set_conv.values())
                        and open_ok and convex_ok))
