"""The per-point and per-piece instance generators, as references.

``instances.quartic_problem`` and ``instances.random_piecewise_objective``
compute their rows and pieces by whole-array steps; the tests hold them to
these bodies, which raise Python floats to their powers one point at a time
and draw and anchor one piece at a time, bit for bit and draw for draw.
"""

import numpy as np

from optstab.extreal import row_form
from optstab.ladder import SmoothProblem
from optstab.optima import LinearPiece, Lipschitz, ObjectiveFn, piecewise_linear_objective


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
    pieces = [LinearPiece.from_anchors(float(a), float(b), va, vb)
              for a, b, va, vb in zip(breaks, breaks[1:], vals, vals[1:])]
    realized = max(abs(p.slope) for p in pieces)
    return piecewise_linear_objective(pieces, regularity=Lipschitz(realized),
                                      name="random-piecewise")
