"""Shared intermediates computed once per call, against the bodies that
computed them again.

* ``sets.hausdorff`` under euclidean() / absolute() takes both directions
  from one sweep over the pairs when no closed form applies; the reference
  runs the two one-sided ``_asym`` passes.
* ``optima`` evaluates the objective once per set for both extremes; the
  reference is the one-extreme-per-call body with the four-call stability
  loop (sup A, sup A', inf A, inf A').  A stability row draws each sampled
  set of its pair once, so the loop's reference reads one ``sets._draws``
  per pair; exact pairs draw nothing.
* ``linear.example_mixed_constraints`` solves one max-margin LP per distinct
  parameter whose slice it samples, and an openness or midpoint probe only
  when its witness fails; the reference solves one per ``slice_at``.

Values, modes and report rows must compare equal with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import linear, optima, sets
from optstab.distances import PseudoDistance, absolute, euclidean, gauge_distance
from optstab.extreal import INF, NEG_INF, call_rows, is_row_form, row_form, scale
from optstab.gauges import GaugeSet
from optstab.linear import _interior_point_in_slice, _slice_member, decompose
from optstab.optima import (ContinuousOnly, LinearPiece, Lipschitz, ObjectiveFn, OptValue,
                            UniformModulus, VerdictReport, check_finite_stability, inf_over,
                            piecewise_linear_objective, sup_over)
from optstab.parametric import (ParamFamily, ValueFunction, _delta_search,
                                empirical_value_continuity)
from optstab.sets import (AffineSlab, AxisSegments, FiniteCloud, ImplicitSampled,
                          IntervalUnion, hausdorff)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


def _outcome(fn, *args, **kw):
    """fn's result, or the type of the ValueError it raised."""
    try:
        return fn(*args, **kw)
    except ValueError:
        return ValueError


# ---------------------------------------------------------------------------
# the bodies that computed shared work again, as references
# ---------------------------------------------------------------------------

def _ref_hausdorff(d, A, B, budget=sets.DEFAULT_BUDGET, rng=None, points=None):
    points = points if points is not None else sets._draws(budget, rng)
    (v1, e1), (v2, e2) = sets._asym(d, A, B, points), sets._asym(d, B, A, points)
    return sets._report(max(v1, v2), e1 and e2, budget)


def _ref_extreme(f, A, budget, rng, want_max, points=None):
    """The extreme of one call; a sampled set is drawn from ``rng`` (a fresh
    default_rng(0) if None), or read from ``points`` if given."""
    pick = np.argmax if want_max else np.argmin
    mode = "exact"
    if isinstance(A, (list, tuple, np.ndarray)):
        pts = list(A)
        if not pts:
            return OptValue(NEG_INF if want_max else INF, None, "exact")
    elif isinstance(A, FiniteCloud):
        pts = A.points
    else:
        hook = f.exact_sup if want_max else f.exact_inf
        v = hook(A) if hook is not None else None
        if v is not None:
            v = float(v)
            if math.isnan(v):
                raise ValueError(f"the exact hook of {f.name} returned NaN")
            return OptValue(v, None, "exact")
        if f.table is not None and isinstance(A, IntervalUnion):
            return optima._best(*optima._piecewise_candidates(f.table, A), want_max, "exact")
        if points is not None:
            pts = points(A)[0]
        else:
            pts = A.sample(budget, rng if rng is not None else np.random.default_rng(0))
        mode = "sampled"
    if is_row_form(f.fn):
        vals = call_rows(f.fn, len(pts), np.asarray(pts, dtype=float).reshape(len(pts), -1))
    else:
        vals = np.asarray([float(f.fn(p)) for p in pts])
    if np.isnan(vals).any():
        raise ValueError(f"{f.name} is NaN on a point of the set")
    i = int(pick(vals))
    return OptValue(float(vals[i]), pts[i], mode)


def _ref_check_finite_stability(f, d, pairs, eps=None, tol=optima.TOL_OPT, diagnostic=False,
                                budget=sets.DEFAULT_BUDGET, rng=None):
    reg = f.regularity
    if isinstance(reg, ContinuousOnly) and not diagnostic:
        raise ValueError("hypotheses unmet: objective is continuous-only")
    if isinstance(reg, UniformModulus) and eps is None and not diagnostic:
        raise ValueError("uniform regularity requires a target eps")
    columns = ["pair_id", "D_H", "sup_A", "sup_Ap", "inf_A", "inf_Ap",
               "delta_used", "bound", "slack", "verdict"]
    rows = []
    for i, (A, Ap) in enumerate(pairs):
        points = sets._draws(budget, rng)   # one draw of each sampled set of the pair
        (d_to, e_to), (d_from, e_from) = sets._asym(d, A, Ap, points), sets._asym(d, Ap, A, points)
        dh = max(d_to, d_from)
        opts = [_ref_extreme(f, S, budget, rng, want, points)
                for S, want in ((A, True), (Ap, True), (A, False), (Ap, False))]
        sA, sAp, iA, iAp = (o.value for o in opts)
        if not (math.isfinite(sA) and math.isfinite(iA)):
            raise ValueError(f"pair {i}: A is outside dom(SUP_f)/dom(INF_f)")
        dsup, dinf = abs(sA - sAp), abs(iA - iAp)
        row = dict(pair_id=i, D_H=dh, sup_A=sA, sup_Ap=sAp, inf_A=iA, inf_Ap=iAp)
        if isinstance(reg, Lipschitz):
            bound = scale(reg.lam, dh) + tol
            slack = bound - max(dsup, dinf)
            to, back = scale(reg.lam, d_to) + tol, scale(reg.lam, d_from) + tol
            one_sided = min(_one_slack(to, sA - sAp), _one_slack(to, iAp - iA),
                            _one_slack(back, sAp - sA), _one_slack(back, iA - iAp))
            exact = e_to and e_from and all(o.mode == "exact" for o in opts)
            row.update(delta_used="", bound=bound, slack=slack, one_sided_slack=one_sided,
                       verdict="pass" if (one_sided if exact else slack) >= 0 else "fail")
        elif isinstance(reg, UniformModulus):
            delta = reg.delta(eps / 2.0)
            if dh < delta:
                ok = dsup < eps and dinf < eps
                row.update(delta_used=delta, bound=eps, slack=eps - max(dsup, dinf),
                           verdict="pass" if ok else "fail")
            else:
                row.update(delta_used=delta, bound=eps, slack=INF, verdict="skipped")
        else:
            row.update(delta_used="", bound="", slack=-max(dsup, dinf),
                       verdict="violation" if max(dsup, dinf) > 0 else "pass")
        rows.append(row)
    return VerdictReport(columns, rows)


def _one_slack(bound, change):
    """bound - change, 0 where both are the same infinity (the inequality holds)."""
    return 0.0 if bound == change else bound - change


def _ref_example_mixed_constraints(f, L, C, probe_params, s0, eps_grid=(0.5, 0.1),
                                   budget=sets.DEFAULT_BUDGET, rng=None):
    lm = L if isinstance(L, linear.LinearMap) else decompose(L)
    A_hs, b_hs = C.halfspace_A, C.halfspace_b
    bound_r = float(np.max(np.abs(b_hs) / np.maximum(
        np.linalg.norm(A_hs, axis=1), 1e-30))) * np.sqrt(C.dim) + 1.0

    def slice_at(t):
        t_arr = np.atleast_1d(np.asarray(t, float))
        x0, margin = _interior_point_in_slice(A_hs, b_hs, lm.matrix, t_arr)
        if x0 is None:
            return None
        K = lm.kernel_basis

        def sampler(n, rg):
            z = rg.uniform(-bound_r, bound_r, size=(n, K.shape[1]))
            return x0 + z @ K.T

        return ImplicitSampled(member=_slice_member(lm, t_arr, A_hs, b_hs),
                               sampler=sampler, dim=lm.matrix.shape[1], witness=x0)

    admissible, excluded = [], []
    for t in probe_params:
        if slice_at(t) is not None:
            admissible.append(t)
        else:
            excluded.append((t, "no strictly interior feasible point"))
    if slice_at(s0) is None:
        raise ValueError("base parameter s0 has no strictly interior feasible point")
    d = euclidean(lm.matrix.shape[1])
    A0 = slice_at(s0)
    rng = rng if rng is not None else np.random.default_rng(0)
    d_param = PseudoDistance(
        name="param-euclid",
        fn=lambda s, t: float(np.linalg.norm(np.atleast_1d(np.asarray(t, float))
                                             - np.atleast_1d(np.asarray(s, float)))),
        ambient_dim=None)
    set_rows = []
    for t in admissible:
        di = d_param.fn(s0, t)
        dh = _ref_hausdorff(d, A0, slice_at(t), budget=budget, rng=rng).value
        set_rows.append((t, di, dh))
    set_conv = {eps: _delta_search(set_rows, eps) for eps in eps_grid}
    pf = ParamFamily(index_distance=d_param, member=slice_at)
    V = ValueFunction(mode="inf", family=pf, objective=f)
    cont = empirical_value_continuity(V, s0, admissible, eps_grid, budget=budget, rng=rng)
    open_ok, convex_ok = True, True
    for t in admissible:
        t_arr = np.atleast_1d(np.asarray(t, float))
        for _ in range(4):
            pert = t_arr + rng.uniform(-1e-4, 1e-4, size=t_arr.shape)
            if slice_at(pert) is None:
                open_ok = False
    for i in range(len(admissible)):
        for j in range(i + 1, len(admissible)):
            mid = 0.5 * (np.atleast_1d(np.asarray(admissible[i], float))
                         + np.atleast_1d(np.asarray(admissible[j], float)))
            if slice_at(mid) is None:
                convex_ok = False
    return dict(admissible=admissible, excluded=excluded,
                set_convergence=set_conv, continuity=cont,
                interval_open=open_ok, interval_convex=convex_ok,
                passed=(cont["verdict"] == "pass"
                        and all(v is not None for v in set_conv.values())
                        and open_ok and convex_ok))


# ---------------------------------------------------------------------------
# the sets
# ---------------------------------------------------------------------------

def _cloud(rng, n, dim, flat=False):
    """n points in dim, some of them repeated; one entry per point if flat."""
    P = rng.uniform(-3.0, 3.0, (n, dim)) * rng.choice([1e-3, 1.0, 1e3])
    P[rng.random(n) < 0.3] = P[0]
    return FiniteCloud(P[:, 0] if flat else P)


def _disk(center, radius, marked=True):
    center = np.asarray(center, float)
    member = (row_form(lambda X: np.linalg.norm(X - center, axis=1) <= radius) if marked
              else lambda x: bool(np.linalg.norm(x - center) <= radius))
    return ImplicitSampled(
        member=member, dim=len(center), witness=center,
        sampler=lambda n, rg: center + rg.uniform(-radius, radius, (n, len(center))))


def _slab(rng, dim):
    return AffineSlab(rng.standard_normal(dim), rng.standard_normal((dim, 1)), box_halfwidth=2.0)


BOX = GaugeSet.from_halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                               [1.0, 2.0, 0.5, 1.5])


# ---------------------------------------------------------------------------
# sets.hausdorff: one distance matrix serves both directions
# ---------------------------------------------------------------------------

@SETTINGS
@given(seed=SEEDS, dim=st.integers(1, 5), na=st.integers(1, 12), nb=st.integers(1, 12),
       flat=st.booleans(), dist=st.sampled_from(["euclidean", "euclidean-any", "absolute"]))
def test_cloud_hausdorff_equals_the_two_pass_body(seed, dim, na, nb, flat, dist):
    rng = np.random.default_rng(seed)
    if dist == "absolute":
        dim = 1
    d = {"euclidean": euclidean(dim), "euclidean-any": euclidean(), "absolute": absolute()}[dist]
    A, B = _cloud(rng, na, dim, flat and dim == 1), _cloud(rng, nb, dim, flat and dim == 1)
    got = hausdorff(d, A, B)
    assert got == _ref_hausdorff(d, A, B) and got.mode == "exact"
    assert hausdorff(d, B, A) == got


@SETTINGS
@given(seed=SEEDS, dim=st.integers(1, 5), bad=st.sampled_from([math.inf, -math.inf, math.nan]),
       shared=st.booleans(), dist=st.sampled_from(["euclidean", "absolute"]))
def test_infinite_and_nan_coordinates_raise_as_before(seed, dim, bad, shared, dist):
    rng = np.random.default_rng(seed)
    if dist == "absolute":
        dim = 1
    d = euclidean(dim) if dist == "euclidean" else absolute()
    P, Q = _cloud(rng, 5, dim).points.copy(), _cloud(rng, 4, dim).points.copy()
    k = int(rng.integers(dim))
    P[int(rng.integers(5)), k] = bad
    if shared:
        Q[int(rng.integers(4)), k] = bad   # inf - inf, a NaN distance
    if math.isnan(bad):   # a cloud refuses NaN coordinates when it is built
        with pytest.raises(ValueError, match="NaN"):
            FiniteCloud(P)
        return
    A, B = FiniteCloud(P), FiniteCloud(Q)
    got = _outcome(hausdorff, d, A, B)
    assert got == _outcome(_ref_hausdorff, d, A, B)
    if math.isnan(bad) or shared:
        assert got is ValueError
    else:
        assert got.value == INF


@SETTINGS
@given(seed=SEEDS, dim=st.integers(2, 3), budget=st.integers(1, 300), explicit=st.booleans(),
       kinds=st.sampled_from([("disk", "disk"), ("cloud", "disk"), ("disk", "cloud"),
                              ("disk", "slab"), ("slab", "slab"), ("slab", "cloud")]))
def test_sampled_hausdorff_equals_the_two_pass_body(seed, dim, budget, explicit, kinds):
    rng = np.random.default_rng(seed)
    make = {"disk": lambda: _disk(rng.standard_normal(dim), rng.uniform(0.1, 2.0),
                                  marked=rng.random() < 0.5),
            "cloud": lambda: _cloud(rng, int(rng.integers(1, 40)), dim),
            "slab": lambda: _slab(rng, dim)}
    A, B = (make[k]() for k in kinds)
    d = euclidean(dim)
    draw = (lambda: np.random.default_rng(seed)) if explicit else (lambda: None)
    got = hausdorff(d, A, B, budget=budget, rng=draw())
    assert got == _ref_hausdorff(d, A, B, budget=budget, rng=draw())


@SETTINGS
@given(seed=SEEDS, n=st.integers(1, 30), kind=st.sampled_from(["interval", "axis", "slab"]),
       swap=st.booleans())
def test_cloud_and_closed_form_hausdorff_equal_the_two_pass_body(seed, n, kind, swap):
    rng = np.random.default_rng(seed)
    if kind == "interval":
        d, S = absolute(), IntervalUnion([(-1.0, 0.5), (2.0, 2.0), (3.0, 4.5)])
        A = _cloud(rng, n, 1, flat=rng.random() < 0.5)
    else:
        dim = int(rng.integers(2, 5))
        d, A = euclidean(dim), _cloud(rng, n, dim)
        S = (AxisSegments({0: (1.5, True), dim - 1: (0.5, False)}, dim=dim) if kind == "axis"
             else _slab(rng, dim))
    A, B = (S, A) if swap else (A, S)
    assert hausdorff(d, A, B) == _ref_hausdorff(d, A, B)


@SETTINGS
@given(seed=SEEDS, na=st.integers(1, 10), nb=st.integers(1, 10))
def test_row_form_hausdorff_keeps_both_directions(seed, na, nb):
    rng = np.random.default_rng(seed)
    d = gauge_distance(BOX)
    A, B = _cloud(rng, na, 2), _cloud(rng, nb, 2)
    assert hausdorff(d, A, B) == _ref_hausdorff(d, A, B)


def test_one_block_at_a_time(monkeypatch):
    monkeypatch.setattr(sets, "_CROSS", 3)   # a cross of 3 rows and columns, many rows swept
    rng = np.random.default_rng(5)
    A, B = _cloud(rng, 40, 3), _cloud(rng, 25, 3)
    for X, Y in ((A, B), (B, A)):
        assert hausdorff(euclidean(3), X, Y) == _ref_hausdorff(euclidean(3), X, Y)


# ---------------------------------------------------------------------------
# optima: one objective pass per exact set
# ---------------------------------------------------------------------------

PIECES = (LinearPiece(-math.inf, 0.0, -1.0, 0.0), LinearPiece(0.0, 2.0, 0.5, 0.0),
          LinearPiece(2.0, math.inf, -2.0, 5.0))


def _objectives(counter):
    def rows(X):
        counter.append(len(X))
        return np.sin(3.0 * X[:, 0]) + 0.1 * X.sum(axis=1)

    def point(x):
        counter.append(1)
        return float(np.sin(3.0 * np.ravel(x)[0]) + 0.1 * np.sum(x))

    hooked = ObjectiveFn(fn=row_form(rows), regularity=Lipschitz(3.5), name="hooked",
                         exact_sup=lambda A: 1.25 if isinstance(A, IntervalUnion) else None)
    return {"rows": ObjectiveFn(fn=row_form(rows), regularity=Lipschitz(3.5), name="rows"),
            "point": ObjectiveFn(fn=point, regularity=UniformModulus(lambda e: e / 3.5)),
            "pieces": piecewise_linear_objective(PIECES),
            "hooked": hooked,
            "continuous": ObjectiveFn(fn=point, name="continuous")}


def _one_d_sets(rng):
    return {"cloud": lambda: _cloud(rng, int(rng.integers(1, 9)), 1, flat=rng.random() < 0.5),
            "probes": lambda: list(rng.uniform(-3.0, 3.0, int(rng.integers(1, 6)))),
            "interval": lambda: IntervalUnion([(rng.uniform(-3.0, 0.0), rng.uniform(0.0, 1.0)),
                                               (2.5, rng.uniform(2.5, 4.0))]),
            "disk": lambda: _disk([float(rng.uniform(-1, 1))], float(rng.uniform(0.1, 2.0)))}


SET_KINDS = st.sampled_from(["cloud", "probes", "interval", "disk"])
PAIR_KINDS = st.sampled_from(["cloud", "interval", "disk"])   # set models, for D_H


@SETTINGS
@given(seed=SEEDS, kind=st.sampled_from(["rows", "point", "pieces", "hooked"]),
       set_kind=SET_KINDS, explicit=st.booleans())
def test_sup_and_inf_over_equal_the_one_extreme_body(seed, kind, set_kind, explicit):
    rng = np.random.default_rng(seed)
    f = _objectives([])[kind]
    A = _one_d_sets(rng)[set_kind]()
    for op, want_max in ((sup_over, True), (inf_over, False)):
        draw = (lambda: np.random.default_rng(seed)) if explicit else (lambda: None)
        got, ref = (_outcome(op, f, A, budget=64, rng=draw()),
                    _outcome(_ref_extreme, f, A, 64, draw(), want_max))
        assert repr(got) == repr(ref)


@SETTINGS
@given(seed=SEEDS, kind=st.sampled_from(["rows", "point", "pieces", "hooked", "continuous"]),
       kinds=st.lists(st.tuples(PAIR_KINDS, PAIR_KINDS), min_size=1, max_size=3),
       explicit=st.booleans())
def test_stability_rows_equal_the_four_call_loop(seed, kind, kinds, explicit):
    rng = np.random.default_rng(seed)
    f = _objectives([])[kind]
    make = _one_d_sets(rng)
    pairs = [(make[a](), make[b]()) for a, b in kinds]
    kw = dict(eps=0.5, diagnostic=kind == "continuous", budget=48)
    draw = (lambda: np.random.default_rng(seed)) if explicit else (lambda: None)
    got = _outcome(check_finite_stability, f, absolute(), pairs, rng=draw(), **kw)
    ref = _outcome(_ref_check_finite_stability, f, absolute(), pairs, rng=draw(), **kw)
    if ref is ValueError:
        assert got is ValueError
    else:
        assert got.columns == ref.columns and got.rows == ref.rows


def test_nan_objectives_raise_in_the_stability_loop():
    f = ObjectiveFn(fn=lambda x: math.nan if float(x) > 1.0 else 0.0, regularity=Lipschitz(1.0))
    pairs = [(FiniteCloud([0.0, 0.5]), FiniteCloud([0.0, 2.0]))]
    with pytest.raises(ValueError, match="NaN"):
        check_finite_stability(f, absolute(), pairs)


def test_one_objective_call_per_exact_set(monkeypatch):
    tables, candidates = [], optima._piecewise_candidates
    monkeypatch.setattr(optima, "_piecewise_candidates",
                        lambda tab, A: tables.append(A) or candidates(tab, A))
    A, Ap = IntervalUnion([(0.0, 1.0)]), IntervalUnion([(0.5, 2.5)])
    check_finite_stability(piecewise_linear_objective(PIECES), absolute(), [(A, Ap)])
    assert tables == [A, Ap]
    calls = []
    f = _objectives(calls)["rows"]
    A, Ap = FiniteCloud([0.0, 1.0, 2.0]), FiniteCloud([0.5, 1.5])
    check_finite_stability(f, absolute(), [(A, Ap)])
    assert calls == [3, 2]
    calls.clear()
    disk = _disk([0.5], 1.0)
    check_finite_stability(f, absolute(), [(A, disk)], budget=32)
    assert len(calls) == 2 and calls[0] == 3   # the sampled set is drawn once for both extremes


# ---------------------------------------------------------------------------
# linear.example_mixed_constraints: one LP per distinct sampled parameter
# ---------------------------------------------------------------------------

def _counted_linprog(monkeypatch):
    """The b_eq bytes of every linprog call of ``linear``, in call order."""
    keys, orig = [], linear.linprog

    def counted(c, **kw):
        keys.append(np.asarray(kw["b_eq"], float).tobytes())
        return orig(c, **kw)
    monkeypatch.setattr(linear, "linprog", counted)
    return keys


def _mixed_box_args(C):
    f = ObjectiveFn(fn=lambda x: float(x[1]) ** 2 + float(x[0]),
                    regularity=Lipschitz(3.0), bounded_below=True)
    probes = [[t] for t in np.linspace(-0.9, 0.9, 19)]
    return (f, [[1.0, 0.0]], C, probes), dict(s0=[0.0], budget=512)


@pytest.mark.parametrize("C", [
    GaugeSet.from_halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0] * 4),
    GaugeSet.from_vertices([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
], ids=["halfspaces", "vertices"])
def test_mixed_box_solves_one_lp_per_distinct_parameter(monkeypatch, C):
    keys = _counted_linprog(monkeypatch)
    args, kw = _mixed_box_args(C)
    ref = _ref_example_mixed_constraints(*args, rng=np.random.default_rng(11), **kw)
    ref_keys = list(keys)
    keys.clear()
    failed, witness = [], linear._witness_admits

    def recorded(lm, A_hs, b_hs, t, x):
        ok = witness(lm, A_hs, b_hs, t, x)
        if not ok:
            failed.append(np.asarray(t, float).tobytes())
        return ok
    monkeypatch.setattr(linear, "_witness_admits", recorded)
    got = linear.example_mixed_constraints(*args, rng=np.random.default_rng(11), **kw)
    assert got == ref and got["passed"]
    # 307 LPs with one per slice, 152 with one per distinct parameter, 19 now:
    # s0 and the probes, then only the openness and midpoint parameters whose
    # witness failed (none here: every slice keeps a margin of at least 0.09)
    probe_keys = [np.asarray(t, float).tobytes() for t in [*args[3], kw["s0"]]]
    assert keys == list(dict.fromkeys(probe_keys)) + failed and len(keys) < len(ref_keys)
    assert failed == [] and len(keys) == 19


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(seed=SEEDS, dim=st.integers(2, 3), n_probes=st.integers(1, 5), vertices=st.booleans())
def test_mixed_examples_equal_the_one_lp_per_slice_body(seed, dim, n_probes, vertices):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, dim)
    C = (GaugeSet.from_vertices(np.vstack([np.diag(w), -np.diag(w)])) if vertices
         else GaugeSet.from_halfspaces(np.vstack([np.eye(dim), -np.eye(dim)]),
                                       np.concatenate([w, w])))
    L = rng.standard_normal((1, dim))
    f = ObjectiveFn(fn=row_form(lambda X: X.sum(axis=1)), regularity=Lipschitz(math.sqrt(dim)),
                    bounded_below=True)
    probes = [[float(t)] for t in rng.uniform(-2.0, 2.0, n_probes)] + [[0.0]]
    kw = dict(s0=[0.0], budget=64)
    with pytest.MonkeyPatch.context() as monkeypatch:
        keys = _counted_linprog(monkeypatch)
        got = linear.example_mixed_constraints(f, L, C, probes, rng=np.random.default_rng(seed),
                                               **kw)
    assert len(keys) == len(set(keys))
    ref = _ref_example_mixed_constraints(f, L, C, probes, rng=np.random.default_rng(seed), **kw)
    assert got == ref

