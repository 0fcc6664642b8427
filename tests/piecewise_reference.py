"""The scalar reference for piecewise-linear objectives, one t at a time.

``optima._PieceTable`` evaluates piece tables as arrays; the tests hold it
to these two functions bit for bit.
"""

from optstab.optima import _times


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
