"""The stacked extreme pass against the loops it replaced.

* ``optima._extremes`` gives each set of a sequence the value, and each set
  it reads by points the ``OptValue``, that ``_extreme(f, A, want_max,
  _draws(budget, rng), {})`` gives it alone: the reference is that call in
  a loop, in order, on the same ``rng`` stream.
* ``scheme.run_scheme`` takes every sigma_k from one ``_extremes`` call; the
  reference is the per-level loop over ``inf_over`` it replaced.
* ``scheme.build_inner_polygon_family`` builds every level from one angle
  array; the reference builds one m at a time.

A witness is an array, whose ``==`` is elementwise, so an ``OptValue`` is
compared by its value with ``==`` and as a whole by ``repr``, which shows
every float (and the sign of a zero) exactly.  A ValueError compares by its
type: the two sides may meet two different faults of one input first.

The properties run derandomized.  With ``OPTSTAB_RANDOMIZE=1`` they draw at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import optima, sets
from optstab.extreal import row_form, scale
from optstab.instances import disk_polygon_scheme, target_distance_objective
from optstab.optima import (ContinuousOnly, LinearPiece, Lipschitz, ObjectiveFn, OptValue,
                            UniformModulus, inf_over, piecewise_linear_objective)
from optstab.scheme import SchemeInstance, _modulus_transfer, build_inner_polygon_family, run_scheme
from optstab.sets import FiniteCloud, ImplicitSampled, IntervalUnion

SETTINGS = settings(max_examples=120, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
COORDS = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
BUDGET = 16


def _outcome(fn, *args, **kw):
    """fn's result, or the type of the ValueError it raised."""
    try:
        return fn(*args, **kw)
    except ValueError:
        return ValueError


def _assert_same_values(got, ref):
    if ref is ValueError or got is ValueError:
        assert got is ref
        return
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.value == r.value and g.mode == r.mode and repr(g) == repr(r)


# ---------------------------------------------------------------------------
# the loops the stacked pass replaced
# ---------------------------------------------------------------------------

def _ref_extremes(f, S, want_max, budget, rng):
    return [optima._extreme(f, A, want_max, sets._draws(budget, rng), {}) for A in S]


def _stacked(f, S, want_max, budget, rng):
    """``_extremes`` as a list of OptValues: a set's own, or the hook's
    value v as OptValue(v, None, "exact")."""
    vals, found = optima._extremes(f, S, want_max, budget, rng)
    assert vals.dtype == float and vals.shape == (len(S),) and set(found) <= set(range(len(S)))
    opts = [found.get(i, OptValue(v, None, "exact")) for i, v in enumerate(vals.tolist())]
    assert vals.tolist() == [o.value for o in opts]
    return opts


def _ref_run_scheme(S, K=None):
    """``run_scheme`` as it stood: one ``inf_over`` per level, in order."""
    reg = S.objective.regularity
    if isinstance(reg, ContinuousOnly):
        raise ValueError("scheme requires declared uniform or Lipschitz regularity")
    K = len(S.levels) if K is None else min(K, len(S.levels))
    tau = float(S.solver_tol)
    rows = []
    lo_best, hi_best = -math.inf, math.inf
    for k in range(K):
        h_k = float(S.h_bounds[k])
        if not math.isfinite(h_k):
            raise ValueError(f"level {k}: h_k must be finite")
        opt = inf_over(S.objective, S.levels[k])
        if opt.mode == "sampled" and tau == 0.0:
            raise ValueError(f"level {k}: sigma_k is sampled; declare its tolerance solver_tol")
        sigma = float(opt.value)
        if not math.isfinite(sigma):
            raise ValueError(f"level {k}: sigma_k = {sigma} is not finite")
        transfer = (scale(reg.lam, h_k) if isinstance(reg, Lipschitz)
                    else _modulus_transfer(reg, h_k))
        budget = tau + transfer
        fp = 8 * np.finfo(float).eps * max(1.0, abs(sigma) + (budget if budget < math.inf else tau))
        lo = sigma - budget - fp
        hi = (sigma + tau if S.inner else sigma + budget) + fp
        lo_best, hi_best = max(lo_best, lo), min(hi_best, hi)
        if lo_best > hi_best + 1e-15:
            raise ValueError(f"level {k}: brackets do not intersect (bad h_k or solver tolerance)")
        rows.append(dict(k=k, h_k=h_k, sigma_k=sigma, tau_k=tau,
                         budget_k=budget, bracket_lo=lo, bracket_hi=hi))
    return rows, (lo_best, hi_best)


def _ref_polygon_family(m_seq, orientation="midpoint"):
    """``build_inner_polygon_family`` as it stood: one m at a time."""
    levels, hs = [], []
    for m in m_seq:
        m = int(m)
        if m < 3:
            raise ValueError("polygon needs at least 3 vertices")
        offset = math.pi / m if orientation == "midpoint" else 0.0
        angles = offset + 2 * math.pi * np.arange(m) / m
        verts = np.column_stack([np.cos(angles), np.sin(angles)])
        mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
        levels.append(FiniteCloud(np.vstack([verts, mids, [[0.0, 0.0]]])))
        hs.append(1.0 - math.cos(math.pi / m))
    return tuple(levels), tuple(hs)


def _assert_same_scheme(S, K=None):
    ref = _outcome(_ref_run_scheme, S, K)
    got = _outcome(run_scheme, S, K)
    if ref is ValueError or got is ValueError:
        assert got is ref
        return
    rows, bracket = ref
    # the reference's brackets are np.float64; run_scheme's are Python floats of the same bits
    rows = [{c: float(v) if isinstance(v, np.floating) else v for c, v in r.items()} for r in rows]
    bracket = tuple(map(float, bracket))
    assert list(got.rows) == rows and repr(list(got.rows)) == repr(rows)
    assert got.final_bracket == bracket and repr(got.final_bracket) == repr(bracket)


def _assert_same_family(m_seq, orientation):
    ref_levels, ref_hs = _ref_polygon_family(m_seq, orientation)
    levels, hs = build_inner_polygon_family(m_seq, orientation)
    assert hs == ref_hs and repr(hs) == repr(ref_hs)
    assert len(levels) == len(ref_levels)
    for A, B in zip(levels, ref_levels):
        assert A.points.shape == B.points.shape and A.points.dtype == B.points.dtype
        assert A.points.tobytes() == B.points.tobytes()


# ---------------------------------------------------------------------------
# objectives, hooks and sets
# ---------------------------------------------------------------------------

def _per_point(x):
    v = np.atleast_1d(x)
    return float(v[0]) - 0.5 * float(v[-1]) ** 2   # inf - inf is NaN, without a warning


@row_form
def _rows(X):
    with np.errstate(invalid="ignore"):
        return X[:, 0] - 0.5 * X[:, -1] ** 2


def _hook_value(A):
    """A value for some sets, None for the others (and every sampled set)."""
    n = len(A) if isinstance(A, FiniteCloud) else (
        len(A.intervals) if isinstance(A, IntervalUnion) else 0)
    return None if n % 3 == 0 else 10.0 * n


HOOKS = {"none": None, "per-set": _hook_value,
         "row-form": row_form(lambda S: [_hook_value(A) for A in S])}


def _with_hooks(f: ObjectiveFn, hook: str) -> ObjectiveFn:
    return ObjectiveFn(fn=f.fn, regularity=f.regularity, pieces=f.pieces,
                       exact_sup=HOOKS[hook], exact_inf=HOOKS[hook], name=f.name)


def _disk(dim: int) -> ImplicitSampled:
    return ImplicitSampled(member=lambda x: bool(np.linalg.norm(x) <= 1.0),
                           sampler=lambda n, rg: rg.uniform(-1, 1, size=(n, dim)),
                           dim=dim, witness=[0.0] * dim)


@st.composite
def clouds(draw, widths=(None, 1, 2, 3), coords=COORDS):
    """A cloud of 1 to 6 points: 1-D (width None) or of rows of 1 to 3 coordinates."""
    width = draw(st.sampled_from(widths))
    n = draw(st.integers(1, 6))
    if width is None:
        return FiniteCloud(draw(st.lists(coords, min_size=n, max_size=n)))
    return FiniteCloud(draw(st.lists(st.lists(coords, min_size=width, max_size=width),
                                     min_size=n, max_size=n)))


@st.composite
def interval_unions(draw):
    ends = draw(st.lists(st.integers(-40, 40), min_size=2, max_size=8, unique=True))
    ends = sorted(e / 10 for e in ends)
    return IntervalUnion([(a, b) for a, b in zip(ends[::2], ends[1::2])])


PIECES = [LinearPiece.from_anchors(-5.0, -1.0, 2.0, -1.0), LinearPiece(-1.0, 0.5, 0.5, -0.5),
          LinearPiece.from_anchors(0.5, 5.0, -0.25, 3.0)]


# ---------------------------------------------------------------------------
# _extremes: one stacked pass, the per-set values
# ---------------------------------------------------------------------------

@SETTINGS
@given(data=st.data(), form=st.sampled_from(["row", "point"]),
       hook=st.sampled_from(sorted(HOOKS)), want_max=st.booleans(),
       seed=st.none() | st.integers(0, 2 ** 32 - 1), inf=st.booleans())
def test_mixed_shape_clouds_equal_the_per_set_loop(data, form, hook, want_max, seed, inf):
    coords = COORDS | st.sampled_from([math.inf, -math.inf]) if inf else COORDS
    S = data.draw(st.lists(clouds(coords=coords) | st.sampled_from(["disk1", "disk2"]),
                           min_size=0, max_size=8))
    S = [_disk(int(A[-1])) if isinstance(A, str) else A for A in S]
    f = _with_hooks(ObjectiveFn(fn=_rows if form == "row" else _per_point, name="g"), hook)
    rng = lambda: None if seed is None else np.random.default_rng(seed)   # noqa: E731
    _assert_same_values(_outcome(_stacked, f, S, want_max, BUDGET, rng()),
                        _outcome(_ref_extremes, f, S, want_max, BUDGET, rng()))


@SETTINGS
@given(data=st.data(), hook=st.sampled_from(sorted(HOOKS)), want_max=st.booleans(),
       seed=st.none() | st.integers(0, 2 ** 32 - 1), outside=st.booleans())
def test_piece_tables_on_interval_unions_equal_the_per_set_loop(data, hook, want_max, seed,
                                                                outside):
    coords = st.integers(-60 if outside else -50, 50).map(lambda i: i / 10)
    S = data.draw(st.lists(interval_unions() | clouds(widths=(None, 1), coords=coords)
                           | st.just("disk1"), min_size=0, max_size=8))
    S = [_disk(1) if isinstance(A, str) else A for A in S]
    f = _with_hooks(piecewise_linear_objective(PIECES), hook)
    rng = lambda: None if seed is None else np.random.default_rng(seed)   # noqa: E731
    _assert_same_values(_outcome(_stacked, f, S, want_max, BUDGET, rng()),
                        _outcome(_ref_extremes, f, S, want_max, BUDGET, rng()))


@pytest.mark.parametrize("rng", [None, 7])
def test_two_sampled_sets_draw_as_the_per_set_loop(rng):
    f = target_distance_objective([2.0, 0.0])
    S = [FiniteCloud([[0.0, 0.0]]), _disk(2), FiniteCloud([[1.0, 0.5], [0.0, 1.0]]), _disk(2)]
    make = lambda: None if rng is None else np.random.default_rng(rng)   # noqa: E731
    got = _stacked(f, S, False, 64, make())
    _assert_same_values(got, _ref_extremes(f, S, False, 64, make()))
    assert [o.mode for o in got] == ["exact", "sampled", "exact", "sampled"]
    if rng is None:   # each sampled set draws from its own default_rng(0)
        assert repr(got[1]) == repr(got[3])


@pytest.mark.parametrize("form", [_rows, _per_point])
def test_a_nan_objective_value_still_raises(form):
    f = ObjectiveFn(fn=form, name="g")
    S = [FiniteCloud([[1.0, 2.0]]), FiniteCloud([0.5, math.inf]), FiniteCloud([[0.0, 1.0]])]
    for want_max in (True, False):
        with pytest.raises(ValueError, match="NaN"):
            optima._extremes(f, S, want_max, BUDGET, None)
        with pytest.raises(ValueError, match="NaN"):
            optima._extremes(f, [S[1]], want_max, BUDGET, None)


def test_a_hook_nan_still_raises():
    f = ObjectiveFn(fn=_rows, exact_inf=lambda A: math.nan, name="g")
    with pytest.raises(ValueError, match="exact hook"):
        optima._extremes(f, [FiniteCloud([1.0])], False, BUDGET, None)


def test_the_clouds_take_one_objective_call_per_point_shape():
    calls = []

    @row_form
    def fn(X):
        calls.append(X.shape)
        return X[:, 0]

    f = ObjectiveFn(fn=fn, exact_inf=lambda A: 5.0 if len(A) == 3 else None, name="g")
    S = [FiniteCloud([1.0, 2.0]), FiniteCloud([[1.0, 2.0]]), FiniteCloud([3.0, 4.0, 5.0]),
         FiniteCloud([[0.0, 1.0], [2.0, 3.0]]), FiniteCloud([-1.0])]
    vals, found = optima._extremes(f, S, False, BUDGET, None)
    assert calls == [(3, 1), (3, 2)]
    assert vals.tolist() == [1.0, 1.0, 5.0, 0.0, -1.0] and sorted(found) == [0, 1, 3, 4]


@SETTINGS
@given(data=st.data(), form=st.sampled_from(["row", "point"]), want_max=st.booleans(),
       block=st.sampled_from([40, 300, 5000, sets._CDIST_BLOCK]), inf=st.booleans())
def test_clouds_in_runs_of_any_tile_equal_the_per_set_loop(data, form, want_max, block, inf):
    coords = COORDS | st.sampled_from([math.inf, -math.inf]) if inf else COORDS
    S = data.draw(st.lists(clouds(coords=coords), min_size=0, max_size=24))
    f = ObjectiveFn(fn=_rows if form == "row" else _per_point, name="g")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sets, "_CDIST_BLOCK", block)
        got = _outcome(_stacked, f, S, want_max, BUDGET, None)
    _assert_same_values(got, _outcome(_ref_extremes, f, S, want_max, BUDGET, None))


@pytest.mark.parametrize("block", [40, 300, 5000])
def test_each_call_takes_whole_clouds_up_to_one_tile(block, monkeypatch):
    calls = []

    @row_form
    def fn(X):
        calls.append(len(X))
        return X[:, 0]

    monkeypatch.setattr(sets, "_CDIST_BLOCK", block)
    rows = sets._tile_rows(8 * 2)   # 2-D points count 8 entries per coordinate
    sizes = np.random.default_rng(block).integers(1, 3 * rows + 2, 40).tolist()
    S = [FiniteCloud(np.full((n, 2), float(i))) for i, n in enumerate(sizes)]
    vals, _ = optima._extremes(ObjectiveFn(fn=fn, name="g"), S, False, BUDGET, None)
    assert vals.tolist() == [float(i) for i in range(len(S))]
    # each call ends where a cloud ends, holds one cloud or at most a tile,
    # and the next cloud would not have fitted
    ends = np.cumsum(sizes).tolist()
    stops = np.cumsum(calls).tolist()
    assert stops[-1] == ends[-1] and set(stops) <= set(ends)
    for lo, n in zip([0, *stops], calls):
        inside = [k for k, e in enumerate(ends) if lo < e <= lo + n]
        assert n <= rows or len(inside) == 1
        assert inside[-1] + 1 == len(sizes) or n + sizes[inside[-1] + 1] > rows


# ---------------------------------------------------------------------------
# run_scheme: one _extremes call for all levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orientation", ["midpoint", "vertex"])
@pytest.mark.parametrize("m_seq", [range(3, 65), [3, 4, 8, 16], [7]])
def test_the_disk_scheme_equals_the_per_level_loop(m_seq, orientation):
    S = disk_polygon_scheme(list(m_seq), orientation=orientation)
    for K in (None, 0, 1, 5, -1):
        _assert_same_scheme(S, K)


def test_every_scheme_cell_is_a_python_float():
    """The scheme table writes each column through one float formatter."""
    cert = run_scheme(disk_polygon_scheme(range(3, 40)))
    for row in cert.rows:
        for c in ("h_k", "sigma_k", "tau_k", "budget_k", "bracket_lo", "bracket_hi"):
            assert type(row[c]) is float, c
    assert all(type(v) is float for v in cert.final_bracket)


@SETTINGS
@given(data=st.data(), form=st.sampled_from(["row", "point"]),
       hook=st.sampled_from(sorted(HOOKS)), inner=st.booleans(),
       modulus=st.booleans(), tau=st.sampled_from([0.0, 0.5]),
       K=st.none() | st.integers(-1, 6))
def test_mixed_levels_equal_the_per_level_loop(data, form, hook, inner, modulus, tau, K):
    levels = data.draw(st.lists(clouds() | st.just("disk2"), min_size=0, max_size=6))
    levels = tuple(_disk(2) if isinstance(A, str) else A for A in levels)
    hs = sorted(data.draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 4.0, math.inf]),
                                   min_size=len(levels), max_size=len(levels))), reverse=True)
    reg = UniformModulus(lambda e: e / 2.0) if modulus else Lipschitz(1.0)
    f = _with_hooks(ObjectiveFn(fn=_rows if form == "row" else _per_point, regularity=reg,
                                name="g"), hook)
    _assert_same_scheme(SchemeInstance(objective=f, levels=levels, h_bounds=tuple(hs),
                                       solver_tol=tau, inner=inner), K)


@pytest.mark.parametrize("tau", [0.0, 0.05])
def test_two_sampled_levels_equal_the_per_level_loop(tau):
    f = target_distance_objective([2.0, 0.0])
    levels = (_disk(2), FiniteCloud([[1.0, 0.0], [0.0, 1.0]]), _disk(2))
    S = SchemeInstance(objective=f, levels=levels, h_bounds=(0.2, 0.1, 0.1), solver_tol=tau)
    _assert_same_scheme(S)
    if tau:
        rows = run_scheme(S).rows
        # each sampled level draws from its own default_rng(0), as inf_over does
        assert rows[0]["sigma_k"] == rows[2]["sigma_k"] == inf_over(f, _disk(2)).value


# ---------------------------------------------------------------------------
# build_inner_polygon_family: one angle array for all levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("orientation", ["midpoint", "vertex"])
def test_the_polygon_family_is_bit_for_bit_the_per_m_loop(orientation):
    _assert_same_family(range(3, 513), orientation)
    for m in (3, 4, 5, 64, 512):
        _assert_same_family([m], orientation)


@SETTINGS
@given(m_seq=st.lists(st.integers(3, 300), max_size=12),
       orientation=st.sampled_from(["midpoint", "vertex"]))
def test_any_sequence_of_m_is_the_per_m_loop(m_seq, orientation):
    _assert_same_family(m_seq, orientation)


def test_a_polygon_below_three_vertices_is_refused():
    for m_seq in ([2], [5, 2, 4], [0]):
        with pytest.raises(ValueError, match="at least 3"):
            build_inner_polygon_family(m_seq)
