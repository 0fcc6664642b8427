"""Extended-real values in [-inf, inf] and the sup/inf conventions.

Extended reals are represented as plain IEEE floats: ``math.inf`` and
``-math.inf`` are first-class values and the float total order is exactly
the extended-real order (-inf < r < inf for every finite r).  NaN is never
a legal value; the helpers below guard the two places where IEEE and
extended-real arithmetic disagree (0 * inf, empty sup/inf).

The module also holds :func:`row_form`, the mark of callables that take
one point per row, which the distance, set and optimum layers all read, and
:func:`linprog`, the one entry to scipy's LP solver.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

INF = math.inf
NEG_INF = -math.inf


def is_extended_real(x) -> bool:
    """True for any finite real or +/-inf; False for NaN and non-numbers."""
    try:
        x = float(x)
    except (TypeError, ValueError):
        return False
    return not math.isnan(x)


def check_extended_real(x) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("NaN is not an extended real")
    return x


def sup_of(values: Iterable[float]) -> float:
    """Supremum with the convention sup of an empty collection = -inf."""
    best = NEG_INF
    for v in values:
        v = check_extended_real(v)
        if v > best:
            best = v
    return best


def inf_of(values: Iterable[float]) -> float:
    """Infimum with the convention inf of an empty collection = +inf."""
    best = INF
    for v in values:
        v = check_extended_real(v)
        if v < best:
            best = v
    return best


def row_form(fn):
    """Mark ``fn`` as a row-form callable and return it.

    A row-form callable takes float (n, dim) arrays, one point per row, and
    returns n values: one per row for a membership oracle, an objective or
    a Hessian norm, d(x_i, y_i) for a pseudo-distance called as fn(X, Y) on
    two arrays of the same shape.  A gradient returns an (n, dim) array.
    The library calls a marked callable only this way, a single point as a
    row of one.  Unmarked callables are called per point.
    The mark is a declaration: many one-point callables run on an array
    without error and return a wrong array of the right shape.
    """
    fn._row_form = True
    return fn


def is_row_form(fn) -> bool:
    return getattr(fn, "_row_form", False) is True


def call_rows(fn, n: int, *points, dtype=float, width: Optional[int] = None) -> np.ndarray:
    """fn at n points, one value (a row of ``width``) per point: the one
    place that tells a row-form ``fn`` from a per-point one.  A row-form
    ``fn`` is called once on float (n, dim) rows, and any other result shape
    raises ValueError.  Any other ``fn`` is called once per point, in order,
    on the points as given: a 1-D array's float64 scalars, an (n, dim)
    array's rows, a list's own items."""
    if not is_row_form(fn):
        if width is None:
            return np.fromiter(map(dtype, map(fn, *points)), dtype, n)
        return np.array([np.atleast_1d(np.asarray(v, float)) for v in map(fn, *points)])
    rows = [np.asarray(p, dtype=float) for p in points]
    out = np.asarray(fn(*(a if a.ndim == 2 else a.reshape(n, -1) for a in rows)), dtype=dtype)
    if out.shape != ((n,) if width is None else (n, width)):
        raise ValueError(f"a row-form callable returned shape {out.shape} for {n} rows")
    return out


def call_one(fn, *points, dtype=float):
    """fn at one point: a row-form ``fn`` on rows of one, any other on the
    arguments as given."""
    if not is_row_form(fn):
        return dtype(fn(*points))
    return call_rows(fn, 1, *(np.reshape(np.asarray(p, dtype=float), (1, -1))
                              for p in points), dtype=dtype)[0]


def scale(alpha: float, x: float) -> float:
    """alpha * x with the convention 0 * (+/-inf) = inf * 0 = 0.

    For alpha > 0 this is ordinary scaling, so alpha * inf = inf.
    """
    if check_extended_real(alpha) < 0:
        raise ValueError("scale expects a nonnegative factor")
    x = check_extended_real(x)
    if alpha == 0.0 or x == 0.0:
        return 0.0
    return alpha * x


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first call so that
    ``import optstab`` loads no scipy module."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)
