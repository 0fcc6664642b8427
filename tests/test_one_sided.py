"""One-sided stability rows: each change against its own direction of D_asyH.

Under ``Lipschitz(lam)``, for any two nonempty sets A and A',

    sup f(A) - sup f(A'), inf f(A') - inf f(A) <= lam D_asyH(A, A'),
    sup f(A') - sup f(A), inf f(A) - inf f(A') <= lam D_asyH(A', A).

``check_finite_stability`` reads both directions from the one sweep of
``sets._hausdorff`` and gives each Lipschitz row the smallest of the four
slacks as ``one_sided_slack``; a row whose ingredients are all exact takes
its verdict from it.  The property below checks, at the true Lambda, that
both directions and the four extremes equal brute-force values and that
every one-sided inequality holds, over random clouds under absolute() and
euclidean() (sizes past the sweep's cross included) and over piece tables
on interval unions.

The property runs derandomized.  With ``OPTSTAB_RANDOMIZE=1`` it draws at
the ``--hypothesis-seed`` given to pytest instead, so a failure seen at a
fresh seed can be replayed with that seed.
"""

import dataclasses
import os

import numpy as np
import pytest
import scipy.spatial.distance as ssd
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import instances, sets
from optstab.distances import absolute, euclidean
from optstab.extreal import row_form, scale
from optstab.optima import (TOL_OPT, LinearPiece, Lipschitz, ObjectiveFn,
                            check_finite_stability, domain_transfer_check,
                            piecewise_linear_objective)
from optstab.sets import FiniteCloud, ImplicitSampled, IntervalUnion, asym_hausdorff

SETTINGS = settings(max_examples=60, deadline=None, database=None,
                    derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")
SEEDS = st.integers(0, 2 ** 32 - 1)
# past sets._CROSS on both sides, the sweep prunes before it finishes a side
SIZES = st.one_of(st.integers(1, 40), st.integers(sets._CROSS + 1, sets._CROSS + 60))


def _cloud_directions(P, Q):
    """D_asyH(P, Q) and D_asyH(Q, P) from the whole cdist matrix."""
    D = ssd.cdist(P.reshape(len(P), -1), Q.reshape(len(Q), -1))
    return float(D.min(axis=1).max()), float(D.min(axis=0).max())


def _union_distance(x, B):
    """|x - B| by a loop over B's intervals."""
    return min(max(iv.lo - x, 0.0, x - iv.hi) for iv in B.intervals)


def _union_directions(A, B):
    """D_asyH(A, B) and D_asyH(B, A) by a loop: on each interval of one set,
    the distance to the other peaks at an end of the interval or at the
    midpoint of a gap of the other set that lies in it."""
    def one(X, Y):
        ends = [e for iv in Y.intervals for e in (iv.lo, iv.hi)]
        mids = [0.5 * (hi + lo) for hi, lo in zip(ends[1::2], ends[2::2])]
        return max(_union_distance(x, Y) for iv in X.intervals
                   for x in [iv.lo, iv.hi, *(m for m in mids if iv.lo <= m <= iv.hi)])
    return one(A, B), one(B, A)


def _union_values(f, A):
    """f at every end of A's intervals and every breakpoint inside them:
    each extreme of a piecewise-linear f over A is among them."""
    breaks = [t for p in f.pieces for t in (p.lo, p.hi)]
    return [f(x) for iv in A.intervals
            for x in [iv.lo, iv.hi, *(b for b in breaks if iv.lo <= b <= iv.hi)]]


def _random_union(rng):
    ends = np.sort(rng.uniform(0.0, 100.0, 2 * int(rng.integers(1, 6))))
    return IntervalUnion(list(zip(ends[::2].tolist(), ends[1::2].tolist())))


def _pair(rng, kind, n_a, n_b):
    """(f, d, A, A', values of f on A, values of f on A', the two directions)."""
    if kind == "unions":
        f = instances.random_piecewise_objective(rng)
        A, Ap = _random_union(rng), _random_union(rng)
        return (f, absolute(), A, Ap, _union_values(f, A), _union_values(f, Ap),
                _union_directions(A, Ap))
    if kind == "absolute":
        f, d = instances.random_piecewise_objective(rng), absolute()
        P, Q = rng.uniform(0.0, 100.0, n_a), rng.uniform(0.0, 100.0, n_b)
        fP, fQ = [f(x) for x in P], [f(x) for x in Q]
    else:
        dim = int(rng.integers(1, 4))
        c = rng.standard_normal(dim)
        f = ObjectiveFn(fn=row_form(lambda X: X @ c),
                        regularity=Lipschitz(float(np.linalg.norm(c))), name="c.x")
        d = euclidean(dim)
        P, Q = rng.standard_normal((n_a, dim)), rng.standard_normal((n_b, dim)) + c
        fP, fQ = P @ c, Q @ c
    return f, d, FiniteCloud(P), FiniteCloud(Q), fP, fQ, _cloud_directions(P, Q)


@SETTINGS
@given(seed=SEEDS, kind=st.sampled_from(["absolute", "euclidean", "unions"]),
       n_a=SIZES, n_b=SIZES)
def test_one_sided_rows_equal_brute_force_and_hold_at_the_true_lambda(seed, kind, n_a, n_b):
    rng = np.random.default_rng(seed)
    f, d, A, Ap, fA, fAp, (d_to, d_from) = _pair(rng, kind, n_a, n_b)
    got_to, got_from, exact = sets._hausdorff(d, A, Ap, sets._draws(sets.DEFAULT_BUDGET, None))
    assert (got_to, got_from, exact) == (d_to, d_from, True)
    assert asym_hausdorff(d, A, Ap).value == d_to and asym_hausdorff(d, Ap, A).value == d_from
    row = check_finite_stability(f, d, [(A, Ap)]).rows[0]
    sA, sAp, iA, iAp = max(fA), max(fAp), min(fA), min(fAp)
    assert (row["D_H"], row["sup_A"], row["sup_Ap"], row["inf_A"], row["inf_Ap"]) == (
        max(d_to, d_from), sA, sAp, iA, iAp)
    lam = f.regularity.lam
    to, back = scale(lam, d_to) + TOL_OPT, scale(lam, d_from) + TOL_OPT
    slacks = [to - (sA - sAp), to - (iAp - iA), back - (sAp - sA), back - (iA - iAp)]
    assert all(s >= 0 for s in slacks), slacks
    assert row["one_sided_slack"] == min(slacks)
    assert row["verdict"] == "pass"


def _seed_2024_draws():
    """The (f, A, A') of 2,000 rows of ``optstab run stability`` at seed 2024."""
    rng = np.random.default_rng(2024)
    return [(instances.random_piecewise_objective(rng), instances.random_cloud(rng),
             instances.random_cloud(rng)) for _ in range(2000)]


def test_seed_2024_rows_fail_only_under_a_false_lambda():
    # the CLI's exact cloud rows, with Lambda scaled down to a false value:
    # the one-sided verdict catches every false Lambda the symmetric slack
    # catches, and more
    d = absolute()
    draws = _seed_2024_draws()
    counts = {}
    for k in (1.0, 0.5, 0.25):
        rows = [check_finite_stability(
            dataclasses.replace(f, regularity=Lipschitz(k * f.regularity.lam)), d,
            [(A, Ap)]).rows[0] for f, A, Ap in draws]
        assert all(r["one_sided_slack"] <= r["slack"] for r in rows)
        counts[k] = (sum(r["slack"] < 0 for r in rows), sum(r["verdict"] == "fail" for r in rows))
    assert counts == {1.0: (0, 0), 0.5: (256, 369), 0.25: (883, 1040)}


@pytest.mark.parametrize("kind", ["unions", "clouds"])
@pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
def test_domain_transfer_needs_only_the_one_direction(kind, eps):
    # A' sits mostly inside A: D_asyH(A', A) = 0.5 < delta = 1 <= D_H = 4
    d = absolute()
    f = piecewise_linear_objective([LinearPiece(-100.0, 100.0, 1.0, 0.0)], name="id")
    if kind == "unions":
        A, Ap = IntervalUnion([(0.0, 10.0)]), IntervalUnion([(4.0, 10.5)])
    else:
        A, Ap = FiniteCloud(np.arange(0.0, 10.5, 0.5)), FiniteCloud(np.arange(4.0, 11.0, 0.5))
    assert asym_hausdorff(d, Ap, A).value == 0.5 and asym_hausdorff(d, A, Ap).value == 4.0
    assert domain_transfer_check(f, d, A, 1.0, Ap, eps) == (10.5 <= 10.0 + eps)
    with pytest.raises(ValueError, match=r"D_asyH\(A', A\) = 0.5 >= delta = 0.5"):
        domain_transfer_check(f, d, A, 0.5, Ap, eps)


def test_an_inequality_with_both_sides_infinite_holds_with_slack_zero():
    # f(x) = x from {0} to {inf}: inf f(A') - inf f(A) = inf <= Lambda D_asyH(A, A') = inf
    f = ObjectiveFn(fn=lambda x: float(np.ravel(x)[0]), regularity=Lipschitz(1.0))
    row = check_finite_stability(f, absolute(), [(FiniteCloud([0.0]),
                                                  FiniteCloud([np.inf]))]).rows[0]
    assert (row["D_H"], row["sup_Ap"], row["inf_Ap"]) == (np.inf, np.inf, np.inf)
    assert row["one_sided_slack"] == 0.0 and row["verdict"] == "pass"
    assert row["bound"] == np.inf and row["slack"] == 0.0


def test_a_sampled_row_with_both_sides_infinite_passes_with_slack_zero(tmp_path):
    # A' draws +inf beside its witness 5: the row is sampled, so it takes its
    # verdict from slack, which is inf - inf without the both-infinite rule
    f = ObjectiveFn(fn=lambda x: float(np.ravel(x)[0]), regularity=Lipschitz(1.0))
    Ap = ImplicitSampled(member=lambda x: bool(float(x[0]) >= 5.0),
                         sampler=lambda n, rg: np.full(n, np.inf), dim=1, witness=[5.0])
    rep = check_finite_stability(f, absolute(), [(FiniteCloud([0.0]), FiniteCloud([np.inf])),
                                                 (FiniteCloud([0.0]), Ap)], budget=16)
    sampled = rep.rows[1]
    assert (sampled["D_H"], sampled["sup_Ap"], sampled["inf_Ap"]) == (np.inf, np.inf, 5.0)
    assert [(r["bound"], r["slack"], r["verdict"]) for r in rep.rows] == [(np.inf, 0.0, "pass")] * 2
    rep.to_csv(tmp_path / "rows.csv")
    assert "nan" not in (tmp_path / "rows.csv").read_text()


def test_an_exact_hook_beside_a_sampled_distance_keeps_the_symmetric_verdict():
    # A = {0, -5} against a sampled [-1, 1] whose sup hook says 1: the draw
    # misses the end 1, so D_asyH(A', A) reads below 1 and the one-sided
    # form fails at the true Lambda; D_H (about 4, from -5) covers the change
    segment = ImplicitSampled(member=lambda x: bool(-1.0 <= float(x[0]) <= 1.0),
                              sampler=lambda n, rg: rg.uniform(-1.0, 1.0, n), dim=1,
                              witness=[0.0])
    f = ObjectiveFn(fn=lambda x: float(np.ravel(x)[0]), regularity=Lipschitz(1.0),
                    exact_sup=lambda S: 1.0 if S is segment else None)
    row = check_finite_stability(f, absolute(), [(FiniteCloud([0.0, -5.0]), segment)],
                                 budget=16).rows[0]
    assert row["sup_Ap"] == 1.0 and row["one_sided_slack"] < 0 <= row["slack"]
    assert row["verdict"] == "pass"
