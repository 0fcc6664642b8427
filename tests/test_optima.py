import math

import numpy as np
import pytest

from optstab.distances import PseudoDistance, absolute, euclidean
from optstab.extreal import INF, NEG_INF, row_form
from optstab.instances import (oscillating_blocks, oscillating_objective, random_cloud,
                               random_piecewise_objective)
from optstab.optima import (LinearPiece, Lipschitz, ObjectiveFn, UniformModulus,
                            check_finite_stability, check_infinite_escape,
                            domain_transfer_check, inf_over,
                            minimizer_set_instability_demo,
                            piecewise_linear_objective, sup_over)
from optstab.sets import FiniteCloud, ImplicitSampled, Interval, IntervalUnion, hausdorff
from paper_examples import constant_infinite
from piecewise_reference import piece_value


def test_empty_probe_conventions():
    f = ObjectiveFn(fn=lambda x: float(x), name="id")
    assert sup_over(f, []).value == NEG_INF
    assert inf_over(f, []).value == INF


def test_constant_objective_on_cloud():
    f = ObjectiveFn(fn=lambda x: 7.25, name="const")
    A = FiniteCloud([1.0, 2.0, 3.0])
    assert sup_over(f, A).value == 7.25
    assert inf_over(f, A).value == 7.25


def test_oscillating_instance_exact_values():
    K = 60
    f = oscillating_objective(K)
    A = oscillating_blocks(K)
    assert sup_over(f, A).value == 0.0
    assert inf_over(f, A).value == 0.0
    for j in (2, 17, 50):
        A_j = oscillating_blocks(K, extended_j=j)
        assert sup_over(f, A_j).value == 1.0
        assert inf_over(f, A_j).value == -1.0


def test_oscillating_objective_continuity_at_breakpoints():
    K = 20
    f = oscillating_objective(K)
    for k in range(2, K + 1):
        for t in (2.0 * k, 2.0 * k + 1.0,
                  (2.0 * k + 1.0) + 1.0 / (2.0 * k),
                  (2.0 * k + 1.0) + 1.0 / k, 2.0 * k + 2.0):
            # adjacent pieces agree at the breakpoint
            left = f(t - 1e-12)
            right = f(t + 1e-12)
            assert abs(left - right) < 1e-9 * (1 + 4 * k)
    # dip and spike values exact
    k = 5
    assert f((2.0 * k + 1.0) + 1.0 / (2.0 * k)) == -1.0
    assert f((2.0 * k + 1.0) + 1.0 / k) == 1.0


def test_oscillating_slopes_match_construction():
    f = oscillating_objective(10)
    for k in (2, 7):
        a = 2.0 * k + 1.0
        p1 = a + 1.0 / (2.0 * k)
        p2 = a + 1.0 / k
        pieces = {(p.lo, p.hi): p.slope for p in f.pieces}
        assert pieces[(a, p1)] == pytest.approx(-2.0 * k, rel=1e-9)
        assert pieces[(p1, p2)] == pytest.approx(4.0 * k, rel=1e-9)
        assert pieces[(p2, 2.0 * k + 2.0)] == pytest.approx(k / (1.0 - k), rel=1e-9)


def test_negation_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_piecewise_objective(rng)
        A = random_cloud(rng)
        assert sup_over(f.negated(), A).value == pytest.approx(
            -inf_over(f, A).value)
    f = oscillating_objective(10)
    A = oscillating_blocks(10, extended_j=4)
    assert sup_over(f.negated(), A).value == -inf_over(f, A).value


def test_monotonicity_under_inclusion():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = random_piecewise_objective(rng)
        B = random_cloud(rng, max_points=20)
        pts = np.atleast_1d(B.points)
        k = int(rng.integers(1, len(pts) + 1))
        A = FiniteCloud(pts[:k])
        assert sup_over(f, A).value <= sup_over(f, B).value + 1e-12
        assert inf_over(f, A).value >= inf_over(f, B).value - 1e-12


def test_finite_stability_lipschitz_transfer():
    rng = np.random.default_rng(2)
    d = absolute()
    for _ in range(50):
        f = random_piecewise_objective(rng)
        A, Ap = random_cloud(rng), random_cloud(rng)
        rep = check_finite_stability(f, d, [(A, Ap)])
        assert rep.passed, rep.rows


def test_finite_stability_identical_pair():
    d = absolute()
    f = random_piecewise_objective(np.random.default_rng(3))
    A = random_cloud(np.random.default_rng(4))
    rep = check_finite_stability(f, d, [(A, A)])
    assert rep.rows[0]["D_H"] == 0.0
    assert rep.passed


def test_finite_stability_uniform_modulus():
    d = absolute()
    # f(x) = x is uniformly continuous with delta(eps) = eps
    f = ObjectiveFn(fn=lambda x: float(x),
                    regularity=UniformModulus(lambda e: e),
                    pieces=(LinearPiece(-1e6, 1e6, 1.0, 0.0),), name="id")
    A = FiniteCloud([0.0, 1.0])
    Ap = FiniteCloud([0.05, 1.05])
    rep = check_finite_stability(f, d, [(A, Ap)], eps=0.2)
    assert rep.rows[0]["verdict"] == "pass"
    far = FiniteCloud([5.0])
    rep2 = check_finite_stability(f, d, [(A, far)], eps=0.2)
    assert rep2.rows[0]["verdict"] == "skipped"  # hypothesis D_H < delta unmet


@pytest.mark.parametrize("diagnostic", [False, True])
def test_uniform_modulus_without_eps_is_refused(diagnostic):
    f = ObjectiveFn(fn=lambda x: float(x), regularity=UniformModulus(lambda e: e),
                    pieces=(LinearPiece(-1e6, 1e6, 1.0, 0.0),), name="id")
    A = FiniteCloud([0.0, 1.0])
    with pytest.raises(ValueError, match="requires a target eps"):
        check_finite_stability(f, absolute(), [(A, A)], diagnostic=diagnostic)


def test_continuous_only_refused_unless_diagnostic():
    d = absolute()
    f = oscillating_objective(20)
    A = oscillating_blocks(20)
    A_j = oscillating_blocks(20, extended_j=10)
    with pytest.raises(ValueError):
        check_finite_stability(f, d, [(A, A_j)])
    rep = check_finite_stability(f, d, [(A, A_j)], diagnostic=True)
    assert rep.rows[0]["verdict"] == "violation"
    assert rep.rows[0]["D_H"] == pytest.approx(0.1, abs=1e-12)


def test_neg_inf_hausdorff_inconsistent_with_lipschitz():
    d = PseudoDistance(name="neg-inf", fn=lambda x, y: NEG_INF, ambient_dim=1)
    f = ObjectiveFn(fn=lambda x: float(x), regularity=Lipschitz(1.0), name="id")
    with pytest.raises(ValueError):
        check_finite_stability(f, d, [(FiniteCloud([0.0]), FiniteCloud([1.0]))])


def test_infinite_escape_sup():
    d = absolute()
    f = piecewise_linear_objective([LinearPiece(-2e9, 2e9, 1.0, 0.0)], name="id")
    A = IntervalUnion([Interval(0.0, 1e9)])
    shifted = IntervalUnion([Interval(0.5, 1e9 + 0.5)])
    rep = check_infinite_escape(f, d, A, mu=100.0, candidates=[shifted],
                                witness_seq=lambda lv: lv + 1.0)
    assert rep["delta"] == pytest.approx(1.0)
    assert rep["f_witness"] > 101.0
    assert rep["passed"]


def test_infinite_escape_inf_mirror():
    d = absolute()
    f = piecewise_linear_objective([LinearPiece(-2e9, 2e9, 1.0, 0.0)], name="id")
    A = IntervalUnion([Interval(-1e9, 0.0)])
    shifted = IntervalUnion([Interval(-1e9 - 0.5, -0.5)])
    rep = check_infinite_escape(f, d, A, mu=-100.0, candidates=[shifted],
                                witness_seq=lambda lv: lv - 1.0, mode="inf")
    assert rep["mode"] == "inf"
    assert rep["passed"]


@pytest.mark.parametrize("mode", ["INF", "max", ""])
def test_infinite_escape_refuses_an_unknown_mode(mode):
    # mode="INF" ran the sup check and returned mode "sup", passed True
    f = piecewise_linear_objective([LinearPiece(-2e9, 2e9, 1.0, 0.0)], name="id")
    A = IntervalUnion([Interval(0.0, 1e9)])
    with pytest.raises(ValueError, match="mode must be"):
        check_infinite_escape(f, absolute(), A, mu=100.0, candidates=[A],
                              witness_seq=lambda lv: lv + 1.0, mode=mode)


def test_infinite_escape_requires_certificate():
    d = absolute()
    f = piecewise_linear_objective([LinearPiece(0.0, 1.0, 1.0, 0.0)], name="id")
    A = IntervalUnion([Interval(0.0, 1.0)])
    with pytest.raises(ValueError):
        # the claimed witness does not beat the level
        check_infinite_escape(f, d, A, mu=100.0, candidates=[],
                              witness_seq=lambda lv: 0.5)


def test_domain_transfer_check():
    d = absolute()
    f = piecewise_linear_objective([LinearPiece(-100.0, 100.0, 1.0, 0.0)],
                                   name="id")
    A = IntervalUnion([Interval(0.0, 1.0)])
    Ap = IntervalUnion([Interval(0.05, 1.05)])
    assert domain_transfer_check(f, d, A, delta=0.1, Ap=Ap, eps=0.1)
    assert domain_transfer_check(f, d, A, delta=0.1, Ap=A, eps=0.1)
    with pytest.raises(ValueError):
        domain_transfer_check(f, d, A, delta=0.01, Ap=Ap, eps=0.01)


def test_minimizer_set_instability_demo():
    rep = minimizer_set_instability_demo(eps=0.1)
    assert rep["argmin_A"] == pytest.approx([0.0, math.pi])
    assert rep["argmin_Ape"] == pytest.approx([0.0])
    assert rep["d_h_argmins"] == pytest.approx(math.pi)
    assert rep["d_asy_argmins"] == 0.0
    for eps in (0.4, 0.2, 0.1, 0.05):
        r = minimizer_set_instability_demo(eps=eps)
        assert r["d_h_sets"] == pytest.approx(eps, abs=1e-12)
        assert r["d_asy_argmins"] == 0.0


def test_verdict_report_csv(tmp_path):
    d = absolute()
    f = random_piecewise_objective(np.random.default_rng(5))
    rep = check_finite_stability(
        f, d, [(random_cloud(np.random.default_rng(6)),
                random_cloud(np.random.default_rng(7)))])
    p = tmp_path / "report.csv"
    rep.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0].startswith("pair_id,D_H,sup_A")
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    for col in ("pair_id", "D_H", "sup_A", "sup_Ap", "inf_A", "inf_Ap", "bound", "slack"):
        float(row[col])
    assert row["delta_used"] == "" and row["verdict"] == "pass"


def test_zero_lipschitz_on_infinite_distance_passes():
    # 0 * inf = 0: a constant objective moves by nothing, whatever D_H is
    f = ObjectiveFn(fn=lambda x: 1.0, regularity=Lipschitz(0.0))
    rep = check_finite_stability(f, constant_infinite(),
                                 [(FiniteCloud([0.0]), FiniteCloud([5.0]))], tol=1e-9)
    row = rep.rows[0]
    assert row["D_H"] == INF
    assert row["bound"] == 1e-9
    assert row["verdict"] == "pass"


@pytest.mark.parametrize("A", [[0.0, 1.0, 2.0], FiniteCloud([0.0, 1.0, 2.0]),
                               IntervalUnion([Interval(0.0, 2.0)])],
                         ids=["probe-list", "finite-cloud", "sampled"])
def test_nan_objective_values_raise(A):
    f = ObjectiveFn(fn=lambda x: math.nan if float(x) > 0.5 else 0.0)
    for op in (sup_over, inf_over):
        with pytest.raises(ValueError, match="NaN"):
            op(f, A)


@pytest.mark.parametrize("hook", ["exact_sup", "exact_inf"])
def test_nan_from_an_exact_hook_raises(hook):
    # a NaN hook value must not come back as OptValue(nan, None, "exact")
    f = ObjectiveFn(fn=lambda x: 0.0, **{hook: lambda A: math.nan})
    op = sup_over if hook == "exact_sup" else inf_over
    with pytest.raises(ValueError, match="NaN"):
        op(f, IntervalUnion([(0.0, 1.0)]))


def test_zero_slope_at_an_infinite_endpoint_is_zero():
    # 0 * (+/-inf) = 0: the piece covers the union, so its value is 5
    f = piecewise_linear_objective([LinearPiece(-INF, INF, 0.0, 5.0)])
    for A in (IntervalUnion([(INF, INF)]), IntervalUnion([(-INF, -INF)]),
              IntervalUnion([(-INF, INF)])):
        for op in (sup_over, inf_over):
            out = op(f, A)
            assert (out.value, out.mode) == (5.0, "exact")
    assert piece_value(LinearPiece(-INF, 0.0, -0.0, 1.0), -INF) == 1.0
    assert piece_value(LinearPiece(0.0, INF, -2.0, 1.0), INF) == -INF
    # an anchored piece with an infinite end keeps a finite intercept
    p = LinearPiece.from_anchors(-INF, 1.0, 3.0, 3.0)
    assert (p.slope, p.intercept, piece_value(p, -INF), piece_value(p, 0.0)) == (0.0, 3.0, 3.0, 3.0)


def test_from_anchors_refuses_a_slope_or_intercept_that_overflows():
    # anchors 0 and 1 on a piece 2.2e-311 wide: slope 1 / 2.2e-311 = inf and
    # intercept +inf, and inf_over at t = 0 used to read OptValue(inf, 'exact')
    with pytest.raises(ValueError, match="infinite slope or intercept"):
        LinearPiece.from_anchors(-2.2e-311, 2.2e-313, 0.0, 1.0)
    with pytest.raises(ValueError, match="infinite slope or intercept"):
        LinearPiece.from_anchors(0.0, 2.2e-309, 0.0, 1.0)   # slope inf, intercept 0
    with pytest.raises(ValueError, match="infinite slope or intercept"):
        # slope 5.6e307, intercept 10 times that
        LinearPiece.from_anchors(-10.0, math.nextafter(-10.0, 0.0), 0.0, 1e293)
    # a narrow piece whose slope is a float, and infinite ends or anchors, are kept
    p = LinearPiece.from_anchors(0.0, 1e-300, 0.0, 1e-10)
    assert (p.slope, piece_value(p, 0.0), piece_value(p, 1e-300)) == (1e290, 0.0, 1e-10)
    assert LinearPiece.from_anchors(0.0, 1.0, 0.0, INF).slope == INF
    assert LinearPiece.from_anchors(-INF, 1.0, 3.0, 3.0).intercept == 3.0


def test_from_anchors_halves_finite_ends_whose_width_overflows():
    # hi - lo = inf used to give slope 0 and intercept 0: sup_over at t = 0
    # read OptValue(0.0, 'exact') where the line through the anchors is 5e307
    p = LinearPiece.from_anchors(-1e308, 1e308, 0.0, 1e308)
    assert (p.slope, p.intercept) == (0.5, 5e307)
    out = sup_over(piecewise_linear_objective([p]), FiniteCloud([[0.0]]))
    assert (out.value, out.mode) == (5e307, "exact")
    # a rise that overflows as well
    p = LinearPiece.from_anchors(-1.5e308, 1.5e308, -1.5e308, 1.5e308)
    assert (p.slope, p.intercept) == (1.0, 0.0)
    assert piece_value(p, 1e308) == 1e308
    # the widest piece: a subnormal slope, rounded, but never zero for a rise
    hi = math.nextafter(INF, 0.0)
    p = LinearPiece.from_anchors(-hi, hi, 0.0, 1.0)
    assert p.slope > 0.0 and p.intercept == pytest.approx(0.5)


@pytest.mark.parametrize("lo, hi, val_lo, val_hi", [
    (0.0, 1.0, 0.1, 0.7), (-3.5, 2.25, 1e300, -1e300), (1e-300, 3e-300, 0.0, 1.0),
    (-1e307, 1e307, 2.0, -5.0), (-INF, 1.0, 3.0, 3.0), (0.0, INF, 1.0, 1.0)])
def test_from_anchors_keeps_the_bits_of_pieces_of_finite_width(lo, hi, val_lo, val_hi):
    slope = 0.0 if hi == lo else (val_hi - val_lo) / (hi - lo)
    p = LinearPiece.from_anchors(lo, hi, val_lo, val_hi)
    assert p.slope == slope and math.copysign(1.0, p.slope) == math.copysign(1.0, slope)


def test_sup_and_inf_share_one_default_draw_of_a_sampled_set():
    # with rng None, both extremes read the same default_rng(0) draw: one
    # objective pass serves both, with the bits of two separate calls
    calls = []

    def f_rows(X):
        calls.append(len(X))
        return np.sin(3.0 * X[:, 0]) + X[:, 1]
    f = ObjectiveFn(fn=row_form(f_rows), regularity=Lipschitz(4.0))
    disk = ImplicitSampled(member=lambda x: bool(np.dot(x, x) <= 1.0),
                           sampler=lambda n, rg: rg.uniform(-1, 1, (n, 2)), dim=2,
                           witness=[0.0, 0.0])
    A = FiniteCloud([[0.0, 0.0], [0.5, 0.5]])
    row = check_finite_stability(f, euclidean(2), [(A, disk)], budget=64).rows[0]
    assert len(calls) == 2
    sup, inf = sup_over(f, disk, budget=64), inf_over(f, disk, budget=64)
    assert (row["sup_Ap"], row["inf_Ap"]) == (sup.value, inf.value)
    assert sup.mode == inf.mode == "sampled"
    # an explicit rng draws the set once per pair too: D_H and both extremes
    # read that draw, which a single call from the same seed also makes
    calls.clear()
    row = check_finite_stability(f, euclidean(2), [(A, disk)], budget=64,
                                 rng=np.random.default_rng(5)).rows[0]
    assert len(calls) == 2
    seeded = dict(budget=64, rng=np.random.default_rng(5))
    assert row["D_H"] == hausdorff(euclidean(2), A, disk, **seeded).value
    seeded["rng"] = np.random.default_rng(5)
    assert row["sup_Ap"] == sup_over(f, disk, **seeded).value
    seeded["rng"] = np.random.default_rng(5)
    assert row["inf_Ap"] == inf_over(f, disk, **seeded).value


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.nan), (INF, -INF)])
def test_empty_or_nan_pieces_are_refused(lo, hi):
    with pytest.raises(ValueError):
        LinearPiece(lo, hi, 1.0, 0.0)


@pytest.mark.parametrize("lam", [math.nan, -1.0, -INF])
def test_lipschitz_refuses_a_nan_or_negative_constant(lam):
    # Lipschitz(nan) and Lipschitz(-1.0) were built, and refused only by
    # scale at the first verdict
    with pytest.raises(ValueError, match="Lipschitz constant"):
        Lipschitz(lam)


def test_lipschitz_takes_zero_and_inf():
    assert Lipschitz(0.0).lam == 0.0 and Lipschitz(INF).lam == INF
