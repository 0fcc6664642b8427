"""Extended-real values in [-inf, inf] and the sup/inf conventions.

Extended reals are represented as plain IEEE floats: ``math.inf`` and
``-math.inf`` are first-class values and the float total order is exactly
the extended-real order (-inf < r < inf for every finite r).  NaN is never
a legal value; the helpers below guard the two places where IEEE and
extended-real arithmetic disagree (0 * inf, empty sup/inf).
"""

from __future__ import annotations

import math
from typing import Iterable

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
