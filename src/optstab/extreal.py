"""Extended-real values in [-inf, inf] and the sup/inf conventions.

Extended reals are represented as plain IEEE floats: ``math.inf`` and
``-math.inf`` are first-class values and the float total order is exactly
the extended-real order (-inf < r < inf for every finite r).  NaN is never
a legal value; :func:`scale` and :func:`scale_rows` keep 0 * inf = 0, where
IEEE and extended-real arithmetic disagree.  The empty sup = -inf and empty
inf = +inf are kept by the extreme-value routines ``optima._extreme`` (one
set) and ``optima._extremes`` (a sequence of sets, stacked).

The module also holds :func:`row_form`, the mark of callables that take
one point per row, which the distance, set and optimum layers all read, and
:func:`linprog`, the one entry to the LP solver HiGHS, which hands it each
model directly.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Optional

import numpy as np

INF = math.inf
NEG_INF = -math.inf


def check_extended_real(x) -> float:
    x = float(x)
    if math.isnan(x):
        raise ValueError("NaN is not an extended real")
    return x


def row_form(fn):
    """Mark ``fn`` as a row-form callable and return it.

    A row-form callable takes float (n, dim) arrays, one point per row, and
    returns n values: one per row for a membership oracle, an objective or
    a Hessian norm, d(x_i, y_i) for a pseudo-distance called as fn(X, Y) on
    two arrays of the same shape.  A gradient returns an (n, dim) array.
    A family member takes a sequence of n parameters and returns n sets,
    and an exact hook takes a sequence of n sets and returns n values, None
    where it has no closed form.  The library calls a marked callable only
    this way, a single point (parameter, set) as a row (list) of one.
    Unmarked callables are called per point.
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
    array's rows, a list's own items.

    With ``dtype=object`` nothing is converted either way, for callables
    that take or give sets: a row-form ``fn`` is called once on the
    sequences as given and returns a sequence of n values, kept as it is (a
    stack); any other ``fn`` is called per item and its values come back as
    a list."""
    if not is_row_form(fn):
        if dtype is object:
            return list(map(fn, *points))
        if width is None:
            return np.fromiter(map(dtype, map(fn, *points)), dtype, n)
        return np.array([np.atleast_1d(np.asarray(v, float)) for v in map(fn, *points)])
    if dtype is object:
        out = fn(*points)
        if len(out) != n:
            raise ValueError(f"a row-form callable returned {len(out)} values for {n} items")
        return out
    rows = [np.asarray(p, dtype=float) for p in points]
    out = np.asarray(fn(*(a if a.ndim == 2 else a.reshape(n, -1) for a in rows)), dtype=dtype)
    if out.shape != ((n,) if width is None else (n, width)):
        raise ValueError(f"a row-form callable returned shape {out.shape} for {n} rows")
    return out


def call_one(fn, *points, dtype=float):
    """fn at one point: a row-form ``fn`` on rows of one (with
    ``dtype=object``, on lists of one), any other on the arguments as given."""
    if not is_row_form(fn):
        return fn(*points) if dtype is object else dtype(fn(*points))
    if dtype is object:
        return call_rows(fn, 1, *([p] for p in points), dtype=object)[0]
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


def scale_rows(alpha, x) -> np.ndarray:
    """``scale`` elementwise, with its bits and its refusals."""
    alpha, x = np.asarray(alpha, dtype=float), np.asarray(x, dtype=float)
    if np.isnan(alpha).any() or np.isnan(x).any():
        raise ValueError("NaN is not an extended real")
    if (alpha < 0).any():
        raise ValueError("scale expects a nonnegative factor")
    with np.errstate(invalid="ignore"):
        return np.where((alpha == 0.0) | (x == 0.0), 0.0, alpha * x)


def finite_array(x, what: str, allow_inf: bool = False) -> np.ndarray:
    """x as a float array; ValueError naming ``what`` if an entry is NaN,
    or infinite unless ``allow_inf``."""
    x = np.asarray(x, dtype=float)
    if (np.isnan(x).any() if allow_inf else not np.isfinite(x).all()):
        raise ValueError(f"{what} must not be NaN" if allow_inf else f"{what} must be finite")
    return x


# HiGHS model statuses as scipy's status codes; any other status reads as 4
_LP_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1, "kInfeasible": 2,
              "kModelError": 2, "kUnbounded": 3}


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None),
            method: str = "highs"):
    """min c . x subject to A_ub x <= b_ub, A_eq x = b_eq and ``bounds`` (one
    (lo, hi) pair, or one per variable, None for no bound), called as
    ``scipy.optimize.linprog(method="highs")`` and with its ``status``,
    ``x``, ``fun`` and ``message``.  HiGHS gets the model linprog gives it:
    the A_ub rows, then the A_eq rows with lo = hi, column-wise with the
    nonzeros of each column in row order, and console logging off.  Each
    call builds and solves a fresh model, so no basis carries over from one
    LP to the next (an LP with many optima always gets the same one).  The
    duals are not read.  scipy is imported on the first call, so that
    ``import optstab`` loads no scipy module."""
    from scipy.optimize._highspy import _core
    if method != "highs":
        raise ValueError(f"method {method!r}: the one LP method is 'highs'")
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    if n == 0 or not np.isfinite(c).all():
        raise ValueError("c must hold at least one entry, all finite")

    def part(v, shape):
        return np.reshape(np.asarray(() if v is None else v, dtype=float), shape)

    A_ub, A_eq, b_ub, b_eq = part(A_ub, (-1, n)), part(A_eq, (-1, n)), part(b_ub, -1), part(b_eq, -1)
    if len(b_ub) != len(A_ub) or len(b_eq) != len(A_eq):
        raise ValueError("b_ub and b_eq need one entry per row of A_ub and A_eq")
    lo, hi = np.broadcast_to(np.array(bounds, dtype=float), (n, 2)).T   # None reads as NaN
    At = np.vstack([A_ub, A_eq]).T   # one row per column of the model
    cols, rows = np.nonzero(At)
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = At.shape[1]
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(np.count_nonzero(At, axis=1))])
    lp.a_matrix_.index_ = rows
    lp.a_matrix_.value_ = At[cols, rows]
    lp.col_cost_ = c
    lp.col_lower_ = np.where(np.isnan(lo), NEG_INF, lo)
    lp.col_upper_ = np.where(np.isnan(hi), INF, hi)
    lp.row_lower_ = np.concatenate([np.full(len(b_ub), NEG_INF), b_eq])
    lp.row_upper_ = np.concatenate([b_ub, b_eq])
    highs = _core._Highs()
    highs.setOptionValue("log_to_console", False)
    if highs.passModel(lp) == _core.HighsStatus.kError:
        model = _core.HighsModelStatus.kModelError
    else:
        highs.run()
        model = highs.getModelStatus()
    status = _LP_STATUS.get(model.name, 4)
    solved = status == 0
    return SimpleNamespace(status=status, message=highs.modelStatusToString(model),
                           x=np.array(highs.getSolution().col_value) if solved else None,
                           fun=highs.getObjectiveValue() if solved else None)
