"""The halfspace and vertex branches of ``gauges.minkowski_gauge`` and
``GaugeSet.contains`` as they stood with a masked quotient and row-major
reductions; the tests hold the column-major kernel to them bit for bit.
"""

import numpy as np

from optstab.extreal import INF
from optstab.gauges import DEFAULT_GAUGE_TOL, _as_rows, _row_products


def minkowski_gauge(C, x, tol: float = DEFAULT_GAUGE_TOL):
    """The gauge of a halfspace or vertex GaugeSet C at x."""
    X, one, finite = _as_rows(x, C.dim)
    A, b = C.halfspace_A, C.halfspace_b
    ax = _row_products(X, A, b, finite)
    X = X if finite else np.where(np.isinf(X), 0.0, X)   # tol scales with the finite part
    slack = tol if b.all() else tol * np.linalg.norm(X, axis=1, keepdims=True)
    ratio = np.divide(ax, b, out=np.where(ax > slack, INF, 0.0), where=b > 0.0)
    g = ratio.max(axis=1, initial=0.0)
    return float(g[0]) if one else g


def contains(C, x, tol: float = 1e-9):
    """Membership of x in a halfspace or vertex GaugeSet C."""
    X, one, finite = _as_rows(x, C.dim)
    A, b = C.halfspace_A, C.halfspace_b
    inside = np.all(_row_products(X, A, b, finite) <= b + tol, axis=1)
    return bool(inside[0]) if one else inside
