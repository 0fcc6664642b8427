"""The per-point, per-piece and per-block instance builders, as references.

``instances.quartic_problem``, ``instances.random_piecewise_objective`` and
``instances.oscillating_objective`` compute their rows and pieces by
whole-array steps; the tests hold them to these bodies, which raise Python
floats to their powers one point at a time, draw one piece at a time and
anchor each piece with the scalar ``piecewise_reference.from_anchors``, bit
for bit and draw for draw.
"""

from typing import List

import numpy as np

from optstab.extreal import row_form
from optstab.ladder import SmoothProblem
from optstab.optima import (ContinuousOnly, LinearPiece, Lipschitz, ObjectiveFn,
                            piecewise_linear_objective)
from piecewise_reference import from_anchors


def quartic_problem() -> SmoothProblem:
    return SmoothProblem(
        f=lambda x: float(np.atleast_1d(x)[0]) ** 4 / 12.0,
        grad=row_form(lambda X: np.array([v ** 3 / 3.0 for v in X[:, 0].tolist()])[:, None]),
        hess_norm=row_form(lambda X: [v ** 2 for v in X[:, 0].tolist()]),
        dim=1, y0=[0.0],
        hessian_sup_closed_form=lambda t: t * t)


def random_piecewise_objective(rng: np.random.Generator, lo: float = 0.0,
                               hi: float = 100.0, lam_lo: float = 0.1,
                               lam_hi: float = 10.0,
                               n_breaks: int = 12) -> ObjectiveFn:
    lam = float(rng.uniform(lam_lo, lam_hi))
    breaks = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, size=n_breaks)]))
    vals = [0.0]
    for a, b in zip(breaks, breaks[1:]):
        slope = float(rng.uniform(-lam, lam))
        vals.append(vals[-1] + slope * (b - a))
    pieces = [from_anchors(float(a), float(b), va, vb)
              for a, b, va, vb in zip(breaks, breaks[1:], vals, vals[1:])]
    realized = max(abs(p.slope) for p in pieces)
    return piecewise_linear_objective(pieces, regularity=Lipschitz(realized),
                                      name="random-piecewise")


def _block_pieces(k: int) -> List[LinearPiece]:
    """Pieces on [2k, 2k+2]: zero on the block, then a dip to -1 and a spike
    to +1 on the gap, with slopes -2k, 4k, k/(1-k)."""
    a = 2.0 * k + 1.0                 # block right endpoint
    p1 = (2.0 * k + 1.0) + 1.0 / (2.0 * k)   # dip bottom, f = -1
    p2 = (2.0 * k + 1.0) + 1.0 / k           # spike top, f = +1
    b = 2.0 * k + 2.0
    return [
        from_anchors(2.0 * k, a, 0.0, 0.0),
        from_anchors(a, p1, 0.0, -1.0),
        from_anchors(p1, p2, -1.0, 1.0),
        from_anchors(p2, b, 1.0, 0.0),
    ]


def oscillating_objective(K: int) -> ObjectiveFn:
    pieces: List[LinearPiece] = [LinearPiece(-1e9, 4.0, 0.0, 0.0)]
    for k in range(2, K + 1):
        pieces.extend(_block_pieces(k))
    pieces.append(LinearPiece(2.0 * K + 2, 1e9, 0.0, 0.0))
    return piecewise_linear_objective(pieces, regularity=ContinuousOnly(),
                                      name="oscillating")
