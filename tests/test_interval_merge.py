"""The interval-union closed forms against the nested loops they replaced.

``optima._piecewise_candidates`` and ``sets._asym_interval_union`` /
``sets._abs_dist_to_union`` (all query points at once) are merges over the
sorted endpoint arrays of an interval union.  The loops below are the
earlier implementations, kept as references: on every union the pieces
cover, values and witnesses must be equal, not close.  Unions include
infinite, zero-length and touching intervals; pieces may overlap.  The
row form of ``piecewise_linear_objective`` is held to ``piecewise_eval``
(``piecewise_reference``) bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optstab.distances import absolute
from optstab.extreal import INF, NEG_INF
from optstab.instances import oscillating_blocks, oscillating_objective
from optstab.optima import (LinearPiece, ObjectiveFn, _best, _piecewise_candidates, _PieceTable,
                            inf_over, piecewise_linear_objective, sup_over)
from optstab.sets import (FiniteCloud, Interval, IntervalUnion, _abs_dist_to_union,
                          _asym_interval_union, _endpoints, hausdorff, point_set_distance)
from piecewise_reference import piece_value, piecewise_eval

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _piecewise_extreme(pieces, A, want_max):
    """(value, witness) as ``sup_over`` / ``inf_over`` pick them from the
    candidates of the pieces' table."""
    best = _best(*_piecewise_candidates(_PieceTable(pieces), A), want_max, "exact")
    return best.value, best.witness


# ---------------------------------------------------------------------------
# the nested loops, as references
# ---------------------------------------------------------------------------

def _ref_piecewise_extreme(pieces, A, want_max):
    # best is seeded from the first candidate, so that a constant -inf (for
    # a max) or +inf (for a min) still has a value and a witness
    best = witness = None
    for iv in A.intervals:
        for p in pieces:
            lo = max(iv.lo, p.lo)
            hi = min(iv.hi, p.hi)
            if lo > hi:
                continue
            for t in (lo, hi):
                v = piece_value(p, t)
                if best is None or (want_max and v > best) or (not want_max and v < best):
                    best, witness = v, t
    if witness is None:
        raise ValueError("piecewise descriptor does not cover the interval union")
    return best, witness


def _ref_abs_dist_to_union(x, A):
    best = INF
    for iv in A.intervals:
        if iv.lo <= x <= iv.hi:
            return 0.0
        best = min(best, abs(x - iv.lo), abs(x - iv.hi))
    return best


def _ref_asym_interval_union(A, B):
    candidates = []
    for iv in A.intervals:
        candidates.extend([iv.lo, iv.hi])
    bs = B.intervals
    for prev, nxt in zip(bs, bs[1:]):
        mid = 0.5 * (prev.hi + nxt.lo)
        for iv in A.intervals:
            if iv.lo <= mid <= iv.hi:
                candidates.append(mid)
                break
    return max(_ref_abs_dist_to_union(c, B) for c in candidates)


def _brute_covers(pieces, A) -> bool:
    """Every breakpoint of each closed interval of A, and a point between
    each two consecutive ones, lies in some closed piece."""
    def covered(t):
        return any(p.lo <= t <= p.hi for p in pieces)
    for iv in A.intervals:
        cuts = sorted({iv.lo, iv.hi} | {e for p in pieces for e in (p.lo, p.hi)
                                         if iv.lo < e < iv.hi})
        between = []
        for u, v in zip(cuts, cuts[1:]):
            if math.isinf(u) and math.isinf(v):
                between.append(0.0)
            elif math.isinf(u):
                between.append(v - 1.0)
            elif math.isinf(v):
                between.append(u + 1.0)
            else:
                between.append(0.5 * (u + v))
        if not all(covered(t) for t in cuts + between):
            return False
    return True


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError:
        return "ValueError"


# ---------------------------------------------------------------------------
# strategies: endpoints drawn from a coarse grid so that they collide
# ---------------------------------------------------------------------------

FINITE = st.one_of(st.integers(-8, 8).map(lambda v: v / 2.0), st.floats(-5, 5))
ENDS = st.one_of(st.sampled_from([NEG_INF, INF]), FINITE, FINITE)


@st.composite
def unions(draw, ends=ENDS):
    """Sorted endpoint lists cut into consecutive pairs: equal neighbours
    give zero-length and touching intervals."""
    e = sorted(draw(st.lists(ends, min_size=2, max_size=12)))
    return IntervalUnion([(e[i], e[i + 1], draw(st.booleans()), draw(st.booleans()))
                          for i in range(0, len(e) - 1, 2)])


@st.composite
def piece_lists(draw):
    values = st.floats(-3, 3)
    pieces = []
    for _ in range(draw(st.integers(1, 8))):
        lo, hi = sorted(draw(st.lists(ENDS, min_size=2, max_size=2)))
        pieces.append(LinearPiece(lo, hi, draw(st.sampled_from([0.0, 1.0, -2.0]) | values),
                                  draw(values), draw(st.none() | values),
                                  draw(st.none() | values)))
    if draw(st.booleans()):
        wide = LinearPiece(NEG_INF, INF, draw(st.sampled_from([0.0, 0.5])), draw(values))
        pieces.insert(draw(st.integers(0, len(pieces))), wide)
    return pieces


# ---------------------------------------------------------------------------
# random unions and pieces
# ---------------------------------------------------------------------------

@SETTINGS
@given(piece_lists(), unions(), st.booleans())
def test_piecewise_extreme_equals_the_nested_loop(pieces, A, want_max):
    got = _outcome(_piecewise_extreme, pieces, A, want_max)
    if _brute_covers(pieces, A):
        assert got == _outcome(_ref_piecewise_extreme, pieces, A, want_max)
    else:
        assert got == "ValueError"


@SETTINGS
@given(unions(), unions(), st.lists(ENDS, min_size=1, max_size=6))
def test_interval_union_distances_equal_the_nested_loop(A, B, xs):
    assert _abs_dist_to_union(np.array(xs), A).tolist() == [
        _ref_abs_dist_to_union(x, A) for x in xs]
    assert _asym_interval_union(A, B) == _ref_asym_interval_union(A, B)
    assert _asym_interval_union(B, A) == _ref_asym_interval_union(B, A)


@SETTINGS
@given(unions(FINITE), st.lists(FINITE, min_size=1, max_size=6),
       st.lists(st.floats(-3, 3), min_size=8, max_size=8), st.booleans())
@example(A=IntervalUnion([Interval(-1.0, 1.0)]), cuts=[0.0, 2.225073858507203e-309],
         ys=[0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0], want_max=False)
def test_sup_and_inf_match_a_grid_oracle(A, cuts, ys, want_max):
    # a continuous piecewise-linear objective on [-10, 10], anchored at its
    # breakpoints, so its extremes on A are at breakpoints or endpoints of A
    xs = sorted({-10.0, 10.0, *cuts})
    anchors = [(a, b, ys[i], ys[i + 1]) for i, (a, b) in enumerate(zip(xs, xs[1:]))]
    slopes = [(vb - va) / (b - a) for a, b, va, vb in anchors]
    if not all(math.isfinite(s) and math.isfinite(va - s * a)
               for s, (a, _, va, _) in zip(slopes, anchors)):
        # cuts closer than about 1e-308 overflow a slope: no such piece exists
        with pytest.raises(ValueError, match="infinite slope or intercept"):
            [LinearPiece.from_anchors(*p) for p in anchors]
        return
    f = piecewise_linear_objective([LinearPiece.from_anchors(*p) for p in anchors])
    grid = np.concatenate([np.linspace(iv.lo, iv.hi, 201) for iv in A.intervals]
                          + [[x for x in xs if any(iv.lo <= x <= iv.hi for iv in A.intervals)]])
    vals = [piecewise_eval(f.pieces, float(t)) for t in grid]
    brute = max(vals) if want_max else min(vals)
    out = (sup_over if want_max else inf_over)(f, A)
    assert out.mode == "exact"
    assert out.value == pytest.approx(brute, abs=1e-12)
    assert f(out.witness) == out.value
    assert any(iv.lo <= out.witness <= iv.hi for iv in A.intervals)


# ---------------------------------------------------------------------------
# the array forms: row-form objectives, piece tables, stored endpoints
# ---------------------------------------------------------------------------

@SETTINGS
@given(piece_lists(), st.lists(ENDS, min_size=1, max_size=8), st.data())
def test_row_form_objective_equals_piecewise_eval_bit_for_bit(pieces, ts, data):
    # t also lands on the pieces' own ends: shared breakpoints, anchors and
    # infinite ends, where a zero slope meets 0 * inf
    ends = [e for p in pieces for e in (p.lo, p.hi)]
    ts = ts + data.draw(st.lists(st.sampled_from(ends), max_size=8))
    f = piecewise_linear_objective(pieces)
    ref = [_outcome(piecewise_eval, f.pieces, t) for t in ts]
    if "ValueError" in ref:
        with pytest.raises(ValueError, match="not covered"):
            f.fn(np.array(ts)[:, None])
    else:
        got = f.fn(np.array(ts)[:, None])
        assert got.tobytes() == np.array([piecewise_eval(f.pieces, t) for t in ts]).tobytes()
    assert [_outcome(f, t) for t in ts] == ref
    cloud = FiniteCloud(ts)
    for op, pick in ((sup_over, max), (inf_over, min)):
        if "ValueError" in ref:
            assert _outcome(op, f, cloud) == "ValueError"
        else:
            assert op(f, cloud).value == pick(piecewise_eval(f.pieces, t) for t in ts)


@pytest.mark.parametrize("X", [np.zeros((3, 2)), np.zeros(3), np.zeros((2, 1, 1))])
def test_row_form_objective_refuses_rows_of_another_width(X):
    f = piecewise_linear_objective([LinearPiece(NEG_INF, INF, 1.0, 0.0)])
    with pytest.raises(ValueError, match="width 1"):
        f.fn(X)
    with pytest.raises(ValueError, match="width 1"):
        sup_over(f, FiniteCloud([[0.0, 1.0], [2.0, 3.0]]))


@SETTINGS
@given(piece_lists(), unions(), st.booleans())
def test_direct_and_negated_objectives_equal_the_nested_loop(pieces, A, want_max):
    # pieces in their drawn order, not sorted: the table keeps that order
    f = ObjectiveFn(fn=lambda t: 0.0, pieces=tuple(pieces))
    g = f.negated()
    op, other = (sup_over, inf_over) if want_max else (inf_over, sup_over)
    if not _brute_covers(pieces, A):
        assert _outcome(op, f, A) == _outcome(op, g, A) == "ValueError"
        return
    for h in (f, g):
        out = op(h, A)
        assert out.mode == "exact"
        assert repr((out.value, out.witness)) == repr(
            _ref_piecewise_extreme(h.pieces, A, want_max))
    neg = other(g, A)
    assert -neg.value == op(f, A).value and neg.witness == op(f, A).witness


@SETTINGS
@given(unions())
def test_stored_endpoints_equal_the_intervals_and_are_read_only(A):
    lo, hi = _endpoints(A)
    assert lo.tolist() == [iv.lo for iv in A.intervals]
    assert hi.tolist() == [iv.hi for iv in A.intervals]
    for ends in (lo, hi):
        assert not ends.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ends[0] = 0.0


# ---------------------------------------------------------------------------
# ce33, every j
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K", [20, 60, 120])
def test_ce33_equals_the_nested_loop_for_every_j(K):
    f, A = oscillating_objective(K), oscillating_blocks(K)
    for j in [None, *range(2, K)]:
        A_j = oscillating_blocks(K, extended_j=j)
        for want_max in (True, False):
            assert (repr(_piecewise_extreme(f.pieces, A_j, want_max))
                    == repr(_ref_piecewise_extreme(f.pieces, A_j, want_max)))
        assert _asym_interval_union(A, A_j) == _ref_asym_interval_union(A, A_j)
        assert _asym_interval_union(A_j, A) == _ref_asym_interval_union(A_j, A)


# ---------------------------------------------------------------------------
# regressions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ivs", [[(0.0, 1.0), (5.0, 6.0)], [(0.0, 2.0)]])
def test_intervals_outside_the_pieces_raise(ivs):
    # before, the uncovered part was skipped and (1.0, 1.0, "exact") returned
    f = piecewise_linear_objective([LinearPiece(0.0, 1.0, 1.0, 0.0)])
    A = IntervalUnion(ivs)
    with pytest.raises(ValueError, match="cover"):
        sup_over(f, A)
    with pytest.raises(ValueError, match="cover"):
        inf_over(f, A)


def test_pieces_that_only_touch_still_cover():
    f = piecewise_linear_objective([LinearPiece.from_anchors(0.0, 1.0, 0.0, 1.0),
                                    LinearPiece.from_anchors(1.0, 2.0, 1.0, -1.0)])
    A = IntervalUnion([(0.5, 2.0), (2.0, 2.0)])
    assert sup_over(f, A).value == 1.0 and sup_over(f, A).witness == 1.0
    assert inf_over(f, A).value == -1.0 and inf_over(f, A).witness == 2.0


@pytest.mark.parametrize("a, b, expected", [
    ([(0.0, INF)], [(1.0, INF)], 1.0),
    ([(NEG_INF, 0.0)], [(NEG_INF, 1.0)], 1.0),
    ([(NEG_INF, INF)], [(0.0, 1.0)], INF),
    ([(NEG_INF, INF)], [(NEG_INF, INF)], 0.0),
    ([(1.0, 1.0)], [(0.0, 2.0)], 1.0),                    # zero-length
    ([(0.0, 1.0), (1.0, 2.0)], [(0.0, 2.0)], 0.0),        # touching: b.lo == a.hi
    ([(0.0, 1.0), (1.0, 1.0), (1.0, 3.0)], [(0.0, 0.0), (3.0, 3.0)], 1.5),
])
def test_infinite_zero_length_and_touching_intervals(a, b, expected):
    rep = hausdorff(absolute(), IntervalUnion(a), IntervalUnion(b))
    assert rep.mode == "exact"
    assert rep.value == expected


@pytest.mark.parametrize("x, expected", [(INF, 0.0), (NEG_INF, INF), (5.0, 0.0), (-2.0, 2.0)])
def test_point_distance_to_a_union_with_an_infinite_end(x, expected):
    assert point_set_distance(absolute(), x, IntervalUnion([(0.0, INF)])).value == expected


@pytest.mark.parametrize("field", ["slope", "intercept", "val_lo", "val_hi"])
def test_a_nan_coefficient_or_anchor_is_refused(field):
    # before, a NaN slope on [0, 0.5] was skipped and sup_over over [0, 1]
    # of these pieces gave 2.0 "exact", while a cloud raised
    args = dict(lo=0.0, hi=0.5, slope=1.0, intercept=0.0, val_lo=None, val_hi=None)
    with pytest.raises(ValueError, match="NaN"):
        LinearPiece(**dict(args, **{field: math.nan}))


def test_a_nan_value_on_the_union_raises_as_on_a_cloud():
    # inf + (-inf) at t = inf: the first piece holds t, so f(inf) is NaN
    f = piecewise_linear_objective([LinearPiece(0.0, INF, 1.0, NEG_INF),
                                    LinearPiece(0.0, INF, 0.0, 2.0)])
    for op in (sup_over, inf_over):
        with pytest.raises(ValueError, match="NaN"):
            op(f, IntervalUnion([(0.0, INF)]))
        with pytest.raises(ValueError, match="NaN"):
            op(f, FiniteCloud([0.0, INF]))


@pytest.mark.parametrize("c, op", [(NEG_INF, sup_over), (INF, inf_over),
                                   (NEG_INF, inf_over), (INF, sup_over)])
def test_a_constant_infinite_objective_has_a_value_and_a_witness(c, op):
    # before, sup_over of a constant -inf and inf_over of a constant +inf
    # over a union raised "does not cover", while a cloud gave the value
    f = piecewise_linear_objective([LinearPiece(NEG_INF, INF, 0.0, c)])
    out = op(f, IntervalUnion([(0.0, 1.0), (2.0, 3.0)]))
    assert (out.value, out.witness, out.mode) == (c, 0.0, "exact")
    assert op(f, FiniteCloud([0.0, 1.0, 2.0, 3.0])).value == c


@pytest.mark.parametrize("iv_lo, p_lo", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zero_witnesses_are_those_of_python_max_and_min(iv_lo, p_lo):
    # max(iv.lo, p.lo) keeps iv.lo on a tie, whatever the sign of the
    # zeros; both ends read 0.0, so the lo end is the witness of max and min
    pieces = [LinearPiece(p_lo, -p_lo, 1.0, 0.0)]
    A = IntervalUnion([(iv_lo, -iv_lo)])
    for want_max in (True, False):
        got = _piecewise_extreme(pieces, A, want_max)
        assert repr(got) == repr(_ref_piecewise_extreme(pieces, A, want_max))
        assert repr(got[1]) == repr(iv_lo)
