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

from .distances import PseudoDistance, euclidean
from .extreal import INF, finite_array, linprog, row_form
from .gauges import GaugeSet, as_magnitude, minkowski_gauge
from .optima import ObjectiveFn, VerdictReport
from .parametric import (ParamFamily, ValueFunction, _delta_search,
                         empirical_value_continuity)
from .sets import (DEFAULT_BUDGET, AffineSlab, ImplicitSampled, SlabStack, _norms,
                   _orthonormal, _slab_gaps, _tile_rows, hausdorff)

TOL_RANK = 1e-12  # relative singular-value cutoff
TOL_HOFFMAN = 1e-9
ETA_INFLATION = 1.1
ETA_SAMPLES = 100_000
BOX_SCALE = 1e3  # sampling box half-width of A_t per unit of 1 + ||apply(t)||
WITNESS_MARGIN = 1e-6  # least margin of a slice witness, per unit of the polytope's scale


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
        return float(_tol_lin(self.singular_values[0] if self.rank else 0.0))

    def in_range(self, t, tol: Optional[float] = None) -> bool:
        t = np.asarray(t, dtype=float).ravel()
        tol = self.tol_lin if tol is None else tol
        return bool(_range_preimages(self.matrix, self.pinv, t, tol)[1])

    def _pinv_apply(self, t) -> np.ndarray:
        """pinv t: the minimum-norm preimage of a range point t."""
        return self.pinv @ np.asarray(t, dtype=float).ravel()


def _tol_lin(smax):
    """The range tolerance 1e-10 max(1, sigma_max) of a map whose spectral
    norm is smax, or of each map of a stack whose spectral norms are the
    array smax."""
    return 1e-10 * np.maximum(1.0, smax)


def _range_preimages(L, P, T, tol) -> tuple:
    """(P t, whether t lies in the range of L) for each row t of T, with L,
    P and tol stacked alike or shared: t is in the range when
    ||L P t - t|| <= tol max(1, ||t||)."""
    X = (P @ T[..., None])[..., 0]
    resid = (L @ X[..., None])[..., 0] - T
    return X, _norms(resid) <= tol * np.maximum(1.0, _norms(T))


def _checked_preimages(L, P, T, tol) -> np.ndarray:
    """P t for each row t of T; ValueError unless every t is in the range."""
    X, ok = _range_preimages(L, P, T, tol)
    if not (ok.all() if ok.ndim else ok):  # one parameter: skip the slow reduction
        raise ValueError("parameter is outside the range of the map")
    return X


def _svd(L: np.ndarray) -> tuple:
    """(U, s, Vt, rank) of a matrix (m, n) or of each matrix of a stack
    (k, m, n): the full SVD and the rank cut at sigma_i > TOL_RANK *
    sigma_max (0 when sigma_max = 0)."""
    U, s, Vt = np.linalg.svd(L, full_matrices=True)
    return U, s, Vt, (s > TOL_RANK * s[..., :1]).sum(-1)


def _index_groups(keys: Sequence) -> list:
    """The positions of each distinct key of ``keys``, in order of first
    appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _stacked_svds(mats: Sequence) -> list:
    """(idx, L, U, s, Vt, rank) for the matrices idx of ``mats`` of each
    shape: the stack L of those matrices and one ``_svd`` of it, whose
    factors and ranks have the bits ``_svd`` gives each matrix alone.
    ValueError if an entry is NaN or infinite."""
    out = []
    for idx in _index_groups([np.shape(L) for L in mats]):
        L = finite_array(np.stack([mats[i] for i in idx]), "matrix entries")
        out.append((idx, L, *_svd(L)))
    return out


def _pinv(U: np.ndarray, s: np.ndarray, Vt: np.ndarray) -> tuple:
    """(s_plus, pinv) from a full SVD, one matrix or a stack: the diagonal
    s_plus of S^+ (1 / sigma_i above the rank cut, 0 below it) and the
    Moore-Penrose inverse Vt^T S^+ U^T.  S^+ keeps the zero-padded (n, m)
    shape of the per-matrix code, so that the products add their terms in
    the same order for a stack and for each of its matrices alone."""
    keep = s > TOL_RANK * s[..., :1]
    m, n = U.shape[-1], Vt.shape[-1]
    s_inv = np.zeros((*s.shape[:-1], n, m))
    diag = np.arange(s.shape[-1])
    s_plus = 1.0 / np.where(keep, s, INF)
    s_inv[..., diag, diag] = s_plus
    return s_plus, np.swapaxes(Vt, -1, -2) @ s_inv @ np.swapaxes(U, -1, -2)


def decompose(L) -> LinearMap:
    """SVD decomposition with rank cut at sigma_i > TOL_RANK * sigma_max."""
    L = np.atleast_2d(finite_array(L, "matrix entries"))
    U, s, Vt, r = _svd(L)
    r, pinv = int(r), _pinv(U, s, Vt)[1]
    range_b = U[:, :r]
    return LinearMap(matrix=L, singular_values=s[:r], rank=r,
                     kernel_basis=Vt[r:, :].T, range_basis=range_b,
                     preimages=pinv @ range_b, pinv=pinv)


PENROSE_IDENTITIES = ("LPL-L", "PLP-P", "LP-sym", "PL-sym")
PENROSE_C = 100.0
EPS = float(np.finfo(float).eps)


def _frobenius(X: np.ndarray) -> np.ndarray:
    """||X_i||_F of each matrix of a stack (k, m, n), with the bits of
    ``np.linalg.norm``."""
    return _norms(X.reshape(len(X), -1))


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
    """(rank, residuals, ||L||_2, ||P||_2) of each matrix L of ``mats`` and
    its pseudo-inverse P, in input order: integer ranks (k,), the Penrose
    residual norms (k, 4) in the order of PENROSE_IDENTITIES, and the
    spectral norms (k,) of L and P read off the stored singular values (0 at
    rank 0).  The matrices of one shape share one stacked SVD and residual
    computation.  Each rank and residual has the bits that ``decompose`` and
    ``penrose_residuals`` give for that matrix alone."""
    mats = [np.atleast_2d(np.asarray(L, dtype=float)) for L in mats]
    rank = np.zeros(len(mats), dtype=int)
    resid = np.zeros((len(mats), len(PENROSE_IDENTITIES)))
    norm_L, norm_P = np.zeros((2, len(mats)))
    for idx, L, U, s, Vt, r in _stacked_svds(mats):
        rank[idx] = r
        s_plus, P = _pinv(U, s, Vt)
        resid[idx] = _penrose_norms(L, P)
        norm_L[idx] = s.max(-1, initial=0.0)
        norm_P[idx] = s_plus.max(-1, initial=0.0)
    return rank, resid, norm_L, norm_P


def penrose_tolerances(dims, norm_L, norm_P) -> np.ndarray:
    """Bounds (k, 4) on the Penrose residuals of a pseudo-inverse P of L
    computed through a backward-stable SVD, in the order of
    PENROSE_IDENTITIES: PENROSE_C u max(m, n) times ||L||^2 ||P||,
    ||P||^2 ||L||, ||L|| ||P|| and ||L|| ||P|| (spectral norms, u machine
    epsilon), as in the rounding-error analysis of N. J. Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002.  ``dims``
    holds max(m, n) of each matrix.  Every bound is 0 at rank 0, where the
    residuals are 0 too."""
    norm_L, norm_P = np.asarray(norm_L, float), np.asarray(norm_P, float)
    LP = norm_L * norm_P
    terms = np.stack([LP * norm_L, LP * norm_P, LP, LP], axis=-1)
    return PENROSE_C * EPS * np.asarray(dims, float)[..., None] * terms


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
        doc = dict(self.lipschitz_cert, kind=self.kind)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=float)


def pseudo_inverse(lm: LinearMap) -> EGI:
    """Moore-Penrose inverse as an EGI; its apply() is the minimum-norm
    preimage selector, so the constant is the operator norm of pinv."""
    cert = dict(constant=float(_spectral_norms(lm.pinv)), mode="operator-norm",
                kappa=1.0)
    return EGI(kind="pseudo_inverse", linmap=lm, apply=lm._pinv_apply,
               lipschitz_cert=cert)


def _spectral_norms(P) -> np.ndarray:
    """||P_i||_2 of each matrix of a stack, with the bits of
    ``np.linalg.norm(P_i, 2)``: the largest singular value."""
    return np.linalg.svd(P, compute_uv=False).max(-1)


def _eta_for_gauge(lm: LinearMap, S_Y, rng: np.random.Generator,
                   n_samples: int = ETA_SAMPLES) -> tuple:
    """eta = sup of max-abs range coordinate over the S_Y unit sphere in
    range(L).  Exact for Euclidean-ball gauges; sampled with a fixed
    inflation factor otherwise (eta is a supremum with no general recipe).

    The directions are drawn, normalised and gauged one tile at a time
    (``sets._tile_rows`` of the entries each holds: its coordinates, its
    range point and a halfspace gauge's row products).  Consecutive
    ``standard_normal`` blocks are the values of one draw and the max is
    exact, so eta is that of one pass over all the samples, bit for bit.
    """
    if isinstance(S_Y, GaugeSet) and S_Y.kind == "ball":
        return float(S_Y.radius), "exact-ball"
    rows_b = getattr(S_Y, "halfspace_b", None)   # a halfspace or vertex gauge's facets
    step = _tile_rows(lm.rank + lm.range_basis.shape[0] + (0 if rows_b is None else len(rows_b)))
    worst = 0.0
    for i in range(0, max(n_samples, 1), step):   # a negative count raises in the first draw
        dirs = rng.standard_normal((min(step, n_samples - i), lm.rank))
        norms = np.linalg.norm(dirs, axis=1)
        dirs = dirs[norms > 0] / norms[norms > 0, None]
        S = dirs @ lm.range_basis.T
        if isinstance(S_Y, GaugeSet):
            g = minkowski_gauge(S_Y, S)
        else:
            g = np.array([float(S_Y(s)) for s in S])
        ok = g > 0.0  # drops zero and NaN gauges; an infinite one gives ratio 0
        if not ok.all():
            dirs, g = dirs[ok], g[ok]
        worst = max(worst, float(np.max(np.abs(dirs, order="F").max(axis=1) / g, initial=0.0)))
    return worst * ETA_INFLATION, "sampled-inflated"


def restricted_inverse_egi(lm: LinearMap, S_X, S_Y, kappa: float = 1.0,
                           rng: Optional[np.random.Generator] = None,
                           n_eta_samples: int = ETA_SAMPLES) -> EGI:
    """Restricted inverse through the stored preimage basis, with the
    certified constant kappa * sigma, where

        tau   = max(kappa, ..., kappa^(r-1)),
        eta   = sup of ||coords||_inf over the S_Y unit sphere in the range,
        sigma = tau * eta * sum_j max(S_X(v_j), S_X(-v_j)).

    S_X is taken at both signs, since S_X(beta v_j) = |beta| S_X(-v_j) for
    beta < 0.  kappa, the subadditivity defect of S_X, is at least 1 (NaN or
    less raises ValueError).  Ball, halfspace and vertex gauges are gauges of
    convex sets that hold 0, so their kappa is exactly 1, the default; only
    an oracle gauge or a plain callable needs a declared kappa, which is not
    checked here.  Unless S_Y is a ball, eta is sampled, and
    ``n_eta_samples`` below 1 raises ValueError.
    """
    if lm.rank == 0:
        raise ValueError("range is {0}: restricted inverse undefined")
    if n_eta_samples < 1 and not (isinstance(S_Y, GaugeSet) and S_Y.kind == "ball"):
        raise ValueError(f"n_eta_samples = {n_eta_samples!r}: a sampled eta needs a sample")
    if not kappa >= 1:   # NaN fails too
        raise ValueError(f"kappa = {kappa!r}: a subadditivity defect is at least 1")
    rng = rng if rng is not None else np.random.default_rng(0)
    mag_x = as_magnitude(S_X)
    mag_y = as_magnitude(S_Y)

    sum_sx = 0.0
    for v in lm.preimages.T:
        sxv = max(float(mag_x(v)), float(mag_x(-v)))
        if not np.isfinite(sxv):
            raise ValueError("S_X is infinite on a stored preimage or its negative")
        sum_sx += sxv
    if not all(mag_y(w) > 0 for w in lm.range_basis.T):
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
        return self.members([t])[0]

    @row_form
    def members(self, T) -> SlabStack:
        """The member at each parameter of the sequence T, from one range
        check of them all; row form, so a ParamFamily built on it takes
        its whole parameter stack in one call."""
        T = np.asarray(T, dtype=float)
        X = self._particulars(T.reshape(len(T), self.linmap.matrix.shape[0]))
        return SlabStack(self.kernel_slab, X, BOX_SCALE * (1.0 + _norms(X)))

    def _particulars(self, T) -> np.ndarray:
        """apply(t) for a parameter t (m,) or each row t of T (k, m), refused
        with ValueError unless every t lies in the range of the map.  For the
        map's own pseudo-inverse the range check's product pinv t is the
        particular point."""
        lm = self.linmap
        X = _checked_preimages(lm.matrix, lm.pinv, T, lm.tol_lin)
        if self.egi.apply == lm._pinv_apply:
            return X
        rows = T.reshape(-1, T.shape[-1])
        return np.reshape([np.asarray(self.egi.apply(t), dtype=float).ravel()
                           for t in rows], X.shape)

    def as_param_family(self, index_distance: PseudoDistance,
                        alpha: Optional[float] = None) -> ParamFamily:
        rate = None
        if alpha is not None:
            rate = lambda t, s: alpha
        return ParamFamily(index_distance=index_distance, member=self.members,
                           hausdorff_rate=rate)


def affine_family(L, egi: Optional[EGI] = None) -> AffineFamily:
    lm = L if isinstance(L, LinearMap) else decompose(L)
    return AffineFamily(linmap=lm, egi=egi if egi is not None else pseudo_inverse(lm))


HOFFMAN_COLUMNS = ["pair_id", "D_H", "bound", "slack", "translation_ok", "verdict"]


def _hoffman_rows(L, tol_lin, K, Xs, Xt, shift, U, rate, tol) -> tuple:
    """(D_H, bound, slack, translation_ok) of each row i of a stack: the
    members A_s = Xs_i + range(K_i) and A_t = Xt_i + range(K_i) of the
    family of L_i (L and K stacked alike, or shared), the bound rate_i + tol,
    and the translation check on the sample ``A_t.sample(8, rng)`` would
    draw: Xt_i and Xt_i + C K_i^T, where C = -h + 2h U_i has the bits of
    ``rng.uniform(-h, h)`` for the ``rng.random`` draws U_i (7, k).  A point
    x passes if ||L_i (x - shift_i)|| <= tol_lin_i max(1, ||x||), shift_i
    being the checked EGI's apply(t_i).
    """
    dh = _slab_gaps(Xs - Xt, K)
    X = Xt[:, None, :]
    if K.shape[-1] > 0:
        h = BOX_SCALE * (1.0 + _norms(Xt))[:, None, None]
        X = np.concatenate([X, X + (-h + 2.0 * h * U) @ np.swapaxes(K, -1, -2)], axis=1)
    resid = np.linalg.norm((X - shift[:, None, :]) @ np.swapaxes(L, -1, -2), axis=-1)
    ok = np.all(resid <= tol_lin[:, None] * np.maximum(1.0, np.linalg.norm(X, axis=-1)),
                axis=-1)
    bound = rate + tol
    return dh, bound, bound - dh, ok


def _hoffman_report(dh, bound, slack, ok) -> VerdictReport:
    rows = [dict(pair_id=i, D_H=d, bound=b, slack=s, translation_ok=o,
                 verdict="pass" if (s >= 0 and o) else "fail")
            for i, (d, b, s, o) in enumerate(zip(dh.tolist(), bound.tolist(),
                                                 slack.tolist(), ok.tolist()))]
    return VerdictReport(list(HOFFMAN_COLUMNS), rows)


def hoffman_check(F: AffineFamily, E: EGI, S_Yt, pairs: Sequence,
                  nu: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
                  tol: float = TOL_HOFFMAN,
                  rng: Optional[np.random.Generator] = None) -> VerdictReport:
    """D_H(A_s, A_t) <= max{alpha S(s-t), alpha S(t-s)} + tol per pair.

    With ``nu`` supplied, the bound is max{nu(s,t), nu(t,s)} instead (the
    generalized-rate variant).  D_H of the parallel member slabs is exact.
    Also spot-checks the translation structure A_t = A_0 + apply(t) on 8
    points of a box sample of each A_t, drawn from ``rng`` pair by pair.
    The pairs share one stacked check, ``_hoffman_rows``, which the table of
    ``optstab run hoffman`` also runs.
    """
    mag = as_magnitude(S_Yt)
    alpha = E.constant
    lm = F.linmap
    rng = rng if rng is not None else np.random.default_rng(0)
    pairs = [(np.asarray(s, dtype=float).ravel(), np.asarray(t, dtype=float).ravel())
             for s, t in pairs]
    if not pairs:
        return VerdictReport(list(HOFFMAN_COLUMNS), [])
    S, T = (np.array(z) for z in zip(*pairs))
    Xs, Xt = F._particulars(S), F._particulars(T)
    if nu is not None:
        rate = [max(nu(s, t), nu(t, s)) for s, t in pairs]
    else:
        rate = [alpha * max(mag(s - t), mag(t - s)) for s, t in pairs]
    K = F.kernel_slab.kernel_basis
    U = rng.random((len(pairs), 7, K.shape[1]))
    shift = np.array([np.asarray(E.apply(t), dtype=float).ravel() for t in T])
    return _hoffman_report(*_hoffman_rows(
        lm.matrix, np.full(len(pairs), lm.tol_lin), K, Xs, Xt, shift, U,
        np.asarray(rate, dtype=float), tol))


def _hoffman_table_of_svds(svds: Sequence, pairs: Sequence,
                           unit_draws: Sequence) -> VerdictReport:
    """The row of ``hoffman_check(affine_family(lm), pseudo_inverse(lm),
    ||.||, [(s, t)], rng)`` for the map lm = ``decompose(L)`` of each matrix
    L of ``svds`` and its pair (s, t), in input order, with pair_id the input
    position.  ``svds`` is a list of shape stacks (idx, L, U, s, Vt, rank) as
    ``_stacked_svds`` gives them, idx indexing ``pairs``; ``unit_draws[i]``
    holds the (7, k) ``rng.random`` draws (k the kernel dimension of item i)
    in place of the ``rng.uniform`` draws of that call.  The items of one
    rank in a shape stack share one stacked pseudo-inverse, kernel basis,
    spectral norm, QR of the kernel bases, range check, slab distance and
    translation check, sliced from the stack's SVD; each row has the bits
    that ``hoffman_check`` gives for its item alone, and no ``LinearMap`` is
    built."""
    # (positions, L, P, K, tol_lin) of each group, all formed before the
    # checks: forming each group just before its check measured about 7 %
    # slower on a 250-triple table
    groups = [([idx[k] for k in sub], L[sub], _pinv(U[sub], s[sub], Vt[sub])[1],
               np.swapaxes(Vt[sub, rank[sub[0]]:, :], -1, -2), _tol_lin(s[sub, 0]))
              for idx, L, U, s, Vt, rank in svds for sub in _index_groups(rank.tolist())]
    n = len(pairs)
    dh, bound, slack = np.zeros((3, n))
    ok = np.zeros(n, dtype=bool)
    for idx, L, P, K, tol_lin in groups:
        S, T = (np.array([np.asarray(pairs[i][j], dtype=float).ravel() for i in idx])
                for j in (0, 1))
        U = np.array([np.reshape(unit_draws[i], (7, K.shape[-1])) for i in idx])
        Xs = _checked_preimages(L, P, S, tol_lin)
        Xt = _checked_preimages(L, P, T, tol_lin)
        rate = _spectral_norms(P) * _norms(S - T)
        dh[idx], bound[idx], slack[idx], ok[idx] = _hoffman_rows(
            L, tol_lin, _orthonormal(K), Xs, Xt, Xt, U, rate, TOL_HOFFMAN)
    return _hoffman_report(dh, bound, slack, ok)


# ---------------------------------------------------------------------------
# a worked parametric example over an affine family with mixed constraints
# ---------------------------------------------------------------------------

def _vec(t) -> np.ndarray:
    return np.atleast_1d(np.asarray(t, float))


def _interior_point_in_slice(A_hs, b_hs, L, t):
    """Strictly interior x of {A x <= b} with L x = t by max-margin LP, or
    (None, 0.0); ValueError on other HiGHS statuses (unbounded: C not compact)."""
    A_hs = np.atleast_2d(np.asarray(A_hs, float))
    b_hs = np.asarray(b_hs, float).ravel()
    L = np.atleast_2d(np.asarray(L, float))
    t = _vec(t)
    n = A_hs.shape[1]
    row_norms = np.linalg.norm(A_hs, axis=1)
    # variables (x, m): maximize m subject to A x + m * ||a_i|| <= b, L x = t
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([A_hs, row_norms[:, None]])
    A_eq = np.hstack([L, np.zeros((L.shape[0], 1))])
    res = linprog(c, A_ub=A_ub, b_ub=b_hs, A_eq=A_eq, b_eq=t,
                  bounds=[(None, None)] * n + [(0, None)], method="highs")
    if res.status not in (0, 2):
        raise ValueError(f"max-margin LP ended with HiGHS status {res.status}: {res.message}")
    if res.status == 2 or res.x[-1] <= 1e-12:
        return None, 0.0
    return res.x[:n], float(res.x[-1])


def _witness_admits(lm: LinearMap, A_hs, b_hs, t, x) -> bool:
    """Whether x, moved onto {L x = t} by x + pinv (t - L x), proves that
    this slice meets the interior of {A x <= b}: it must solve L x = t to
    tol_lin (so a t off the range of L is never proved) and keep a margin
    min_i (b_i - a_i . x) / ||a_i|| above WITNESS_MARGIN times the scale
    max(1, max_i |b_i| / ||a_i||) of the polytope.  The max-margin LP at t
    is then feasible with an optimum at least that margin, far above HiGHS's
    tolerances; False leaves the slice to the LP."""
    x = x + lm.pinv @ (t - lm.matrix @ x)
    norms = np.linalg.norm(A_hs, axis=1)
    scale = max(1.0, float(np.max(np.abs(b_hs) / np.maximum(norms, 1e-30))))
    return bool(np.linalg.norm(lm.matrix @ x - t) <= lm.tol_lin
                and np.all(b_hs - A_hs @ x > WITNESS_MARGIN * scale * norms))


def _slice_member(lm: LinearMap, t, A_hs, b_hs) -> Callable:
    """Row-form membership in {x : L x = t} (to 10 tol_lin) within
    {x : A_hs x <= b_hs} (to 1e-9)."""
    @row_form
    def member(X):
        ok_eq = np.linalg.norm(X @ lm.matrix.T - t, axis=1) <= lm.tol_lin * 10
        return ok_eq & np.less_equal(X @ A_hs.T, b_hs + 1e-9, order="F").all(axis=1)
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

    The slices of s0 and of the probes are centred at the point of a
    max-margin LP, one LP per distinct parameter in a call.  An openness or
    midpoint probe uses no point of its slice: it is first proved by a
    checked witness (``_witness_admits``) moved from the LP points of the
    slices it lies between, since the optimal margin is concave in t, and
    only a failed witness leaves it to its LP.  On the `mixed_box` instance
    with 19 probes that is 19 LPs a call instead of 152.
    """
    if C.kind not in ("halfspaces", "vertices"):
        raise ValueError("C must be a compact polytope (halfspaces or vertices)")
    lm = L if isinstance(L, LinearMap) else decompose(L)
    A_hs, b_hs = C.halfspace_A, C.halfspace_b
    bound_r = float(np.max(np.abs(b_hs) / np.maximum(
        np.linalg.norm(A_hs, axis=1), 1e-30))) * np.sqrt(C.dim) + 1.0
    interior = {}   # (shape, bytes) of a parameter -> its max-margin LP's point, for this call

    def lp_point(t_arr):
        key = (t_arr.shape, t_arr.tobytes())
        if key not in interior:
            interior[key] = _interior_point_in_slice(A_hs, b_hs, lm.matrix, t_arr)[0]
        return interior[key]

    def admits(t_arr, x):
        return _witness_admits(lm, A_hs, b_hs, t_arr, x) or lp_point(t_arr) is not None

    def slice_at(t):
        # a fresh set on every call: sampled distances key their draws on id(set)
        t_arr = _vec(t)
        x0 = lp_point(t_arr)
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
    A0 = slice_at(s0)
    if A0 is None:
        raise ValueError("base parameter s0 has no strictly interior feasible point")

    d = euclidean(lm.matrix.shape[1])
    rng = rng if rng is not None else np.random.default_rng(0)

    # set convergence: for each eps, a delta such that close params give close sets
    d_param = PseudoDistance(name="param-euclid", ambient_dim=None,
                             fn=lambda s, t: float(np.linalg.norm(_vec(t) - _vec(s))))
    set_rows = []
    for t in admissible:
        di = d_param.fn(s0, t)
        dh = hausdorff(d, A0, slice_at(t), budget=budget, rng=rng).value
        set_rows.append((t, di, dh))
    set_conv = {eps: _delta_search(set_rows, eps) for eps in eps_grid}

    pf = ParamFamily(index_distance=d_param, member=slice_at)
    V = ValueFunction(mode="inf", family=pf, objective=f)
    cont = empirical_value_continuity(V, s0, admissible, eps_grid,
                                      budget=budget, rng=rng)

    # openness / convexity probes of the admissible parameter set, each tried
    # first with a witness from the LP points of the admissible slices; rng
    # is not drawn from after the first failed probe, nor read after these
    open_ok = all(admits(_vec(t) + rng.uniform(-1e-4, 1e-4, size=_vec(t).shape),
                         lp_point(_vec(t)))
                  for t in admissible for _ in range(4))
    convex_ok = all(admits(0.5 * (_vec(s) + _vec(t)),
                           0.5 * (lp_point(_vec(s)) + lp_point(_vec(t))))
                    for i, s in enumerate(admissible) for t in admissible[i + 1:])

    return dict(admissible=admissible, excluded=excluded,
                set_convergence=set_conv, continuity=cont,
                interval_open=open_ok, interval_convex=convex_ok,
                passed=(cont["verdict"] == "pass"
                        and all(v is not None for v in set_conv.values())
                        and open_ok and convex_ok))
