"""The scalar reference for piecewise-linear objectives, one t at a time.

``optima._PieceTable`` evaluates piece tables as arrays, and
``LinearPiece.from_anchor_columns`` anchors pieces as arrays; the tests
hold them to these functions bit for bit.
"""

import math

from optstab.optima import LinearPiece


def _times(a: float, t: float) -> float:
    """a * t with 0 * (+/-inf) = (+/-inf) * 0 = 0, for a factor of either
    sign; IEEE, signed zeros included, everywhere else."""
    p = a * t
    return 0.0 if math.isnan(p) and (a == 0.0 or t == 0.0) else p


def from_anchors(lo: float, hi: float, val_lo: float, val_hi: float) -> LinearPiece:
    """The piece through (lo, val_lo) and (hi, val_hi), in the arithmetic of
    the arguments' own types (np.float64 arguments raise numpy's warnings).
    Finite ends whose width overflows are halved with the anchors; a
    zero-width piece has slope 0; ValueError when finite ends and anchors
    overflow the slope or intercept."""
    h = 0.5 if math.isinf(hi - lo) and math.isfinite(lo) and math.isfinite(hi) else 1.0
    slope = 0.0 if hi == lo else (h * val_hi - h * val_lo) / (h * hi - h * lo)
    intercept = val_lo - _times(slope, lo)
    if (not (math.isfinite(slope) and math.isfinite(intercept))
            and all(map(math.isfinite, (lo, hi, val_lo, val_hi)))):
        raise ValueError(f"linear piece on [{lo}, {hi}] through {val_lo} and "
                         f"{val_hi} has an infinite slope or intercept")
    return LinearPiece(lo, hi, slope, intercept, val_lo, val_hi)


def piece_value(p, t: float) -> float:
    """Piece p at t: its anchor at an anchored end, else slope t + intercept
    with 0 * (+/-inf) = 0."""
    if p.val_lo is not None and t == p.lo:
        return p.val_lo
    if p.val_hi is not None and t == p.hi:
        return p.val_hi
    st = p.slope * t   # NaN only for 0 * (+/-inf) or a NaN slope
    return (st if st == st else _times(p.slope, t)) + p.intercept


def piecewise_eval(pieces, t: float) -> float:
    """The value at t of the first piece that holds t."""
    for p in pieces:
        if p.lo <= t <= p.hi:
            return piece_value(p, t)
    raise ValueError(f"t={t} not covered by the piecewise descriptor")
