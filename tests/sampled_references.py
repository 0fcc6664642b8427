"""Sampled estimators and spot-checks that the tests hold the library to.

Each returns a bare bool or float read off finitely many samples: a lower
bound on a supremum, or the absence of an observed violation.  None of them
is a certificate, so none of them is part of the package.
"""

from typing import Optional, Sequence

import numpy as np

from optstab.distances import (IDENTITY, NONNEGATIVE, SYMMETRIC, TRIANGLE,
                               PseudoDistance, eval_distance, eval_distances)
from optstab.extreal import INF
from optstab.gauges import as_magnitude
from optstab.linear import EGI, LinearMap
from optstab.parametric import (ParamFamily, ValueFunction, _delta_search,
                                _values)
from optstab.sets import DEFAULT_BUDGET, hausdorff


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


def measured_lipschitz_ratio(V: ValueFunction, sample_pairs: Sequence,
                             budget: int = DEFAULT_BUDGET,
                             rng: Optional[np.random.Generator] = None) -> float:
    """sup over sampled pairs of |phi(t) - phi(s)| / d_I(t, s), over the
    pairs with d_I > 0 (phi is not taken at the others), through
    ``parametric._values`` as in ``certify_value_lipschitz``."""
    pairs = list(sample_pairs)
    di = eval_distances(V.family.index_distance, [t for t, _ in pairs], [s for _, s in pairs])
    keep = np.flatnonzero(di > 0)
    phi = _values(V, [p for i in keep for p in pairs[i]], budget, rng).reshape(-1, 2)
    return float(np.max(np.abs(phi[:, 0] - phi[:, 1]) / di[keep], initial=0.0))


def check_gauge_subadditivity(S_X, kappa: float, pairs) -> bool:
    """Spot-check S_X(a u + b v) <= kappa (|a| S_X(u) + |b| S_X(v))."""
    mag = as_magnitude(S_X)
    for (alpha, u, beta, v) in pairs:
        lhs = mag(alpha * np.asarray(u, float) + beta * np.asarray(v, float))
        rhs = kappa * (abs(alpha) * mag(u) + abs(beta) * mag(v))
        if lhs > rhs * (1 + 1e-9) + 1e-12:
            return False
    return True


def check_documented_properties(d: PseudoDistance, triples, tol: float = 1e-12) -> dict:
    """Spot-check the documented properties of d on sampled (x, y, z) triples.

    Returns a dict property -> bool (True = no violation observed).
    """
    results = {p: True for p in d.properties}
    for (x, y, z) in triples:
        dxy = eval_distance(d, x, y)
        dyx = eval_distance(d, y, x)
        if SYMMETRIC in results and abs(dxy - dyx) > tol and dxy != dyx:
            results[SYMMETRIC] = False
        if NONNEGATIVE in results and dxy < -tol:
            results[NONNEGATIVE] = False
        if IDENTITY in results and abs(eval_distance(d, x, x)) > tol:
            results[IDENTITY] = False
        if TRIANGLE in results:
            dxz = eval_distance(d, x, z)
            dzy = eval_distance(d, z, y)
            if dxz + dzy < dxy - tol:
                results[TRIANGLE] = False
    return results


def empirical_hausdorff_limsup(F: ParamFamily, d_ambient: PseudoDistance,
                               t0, probes: Sequence, eps: float,
                               budget: int = DEFAULT_BUDGET,
                               rng: Optional[np.random.Generator] = None) -> dict:
    """Empirical probe of limsup_{t->t0} D_H(A_t0, A_t) <= 0.

    Searches delta on the geometric grid {eps, eps/2, ..., eps/2^20} for the
    largest level at which every probe with d_I(t0, t) < delta also has
    D_H(A_t0, A_t) < eps.  Failure at all levels is 'inconclusive', never a
    disproof: continuity cannot be refuted by finitely many probes.
    """
    A0 = F.set_at(t0)
    rows = []
    for t in probes:
        di = eval_distance(F.index_distance, t0, t)
        dh = hausdorff(d_ambient, A0, F.set_at(t), budget=budget, rng=rng).value
        rows.append((t, di, dh))
    delta = _delta_search(rows, eps)
    if delta is None:
        return dict(eps=eps, delta=None, verdict="inconclusive",
                    n_inside=0, rows=rows)
    return dict(eps=eps, delta=delta, verdict="pass",
                n_inside=sum(di < delta for (_, di, _) in rows), rows=rows)


def kernel_projector_identity_residual(lm: LinearMap) -> float:
    """|| pinv L - (id - P_ker) ||: the pseudo-inverse inverts L exactly
    off the kernel."""
    n = lm.matrix.shape[1]
    P_ker = lm.kernel_basis @ lm.kernel_basis.T
    return float(np.linalg.norm(lm.pinv @ lm.matrix - (np.eye(n) - P_ker)))
