import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab import ladder
from optstab.cli import main
from optstab.extreal import INF
from optstab.gauges import GaugeSet
from optstab.instances import exp_problem, quartic_problem
from optstab.ladder import SmoothProblem, build_ladder, hessian_sup, solve_radius


def test_quartic_hessian_sup_closed_form():
    P = quartic_problem()
    assert hessian_sup(P, 2.0)[0] == pytest.approx(4.0)
    assert hessian_sup(P, 0.0)[0] == 0.0


def test_quadratic_hessian_sup_constant():
    P = SmoothProblem(f=lambda x: 1.5 * float(np.atleast_1d(x)[0]) ** 2,
                      grad=lambda x: np.array([3.0 * float(np.atleast_1d(x)[0])]),
                      hess_norm=lambda x: 3.0, dim=1, y0=[0.0],
                      hessian_sup_closed_form=lambda t: 3.0,
                      hessian_sup_bound=3.0)
    assert hessian_sup(P, 0.0)[0] == 3.0
    assert hessian_sup(P, 100.0)[0] == 3.0


def test_hessian_sup_monotone_in_radius_sampled():
    # no closed form: sampled mode, still nondecreasing on a grid
    P = SmoothProblem(f=lambda x: float(np.atleast_1d(x)[0]) ** 4 / 12.0,
                      grad=lambda x: np.array([float(np.atleast_1d(x)[0]) ** 3 / 3.0]),
                      hess_norm=lambda x: float(np.atleast_1d(x)[0]) ** 2,
                      dim=1, y0=[0.0])
    rng = np.random.default_rng(0)
    prev = -1.0
    for t in (0.5, 1.0, 2.0, 4.0):
        v, mode = hessian_sup(P, t, rng=rng)
        assert mode == "sampled"
        assert v >= prev - 1e-12
        assert v <= t * t + 1e-9  # sampled sup is a lower bound on the true sup
        assert v >= t * t * 0.95  # and close after local refinement
        prev = v


@pytest.mark.parametrize("y0", [[0.2], [0.3, -1.7], [1e3, 0.0, -2.5]], ids=["1d", "2d", "3d"])
def test_every_boundary_sample_is_in_the_ball(monkeypatch, y0):
    # before, the ball filter dropped up to half of the sphere samples to rounding
    seen = []
    hess_values = ladder._hess_values
    monkeypatch.setattr(ladder, "_hess_values",
                        lambda P, X: seen.append(np.array(X)) or hess_values(P, X))
    free = SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.zeros(len(y0)),
                         hess_norm=lambda x: float(np.dot(x, x)), dim=len(y0), y0=y0)
    boxed = dataclasses.replace(free, U_box=(np.array(y0) - 0.5, np.array(y0) + 10.0))
    for t in (0.1, 0.7, 1.7, 3.3):
        seen.clear()
        hessian_sup(free, t, rng=np.random.default_rng(0))
        sphere = seen[1]                      # seen[0] is y0 alone
        assert len(sphere) == ladder.HESSIAN_SAMPLES
        r = np.linalg.norm(sphere - free.y0, axis=1)
        assert (r <= t).all() and (r >= t * (1.0 - 1e-9)).all()
        seen.clear()
        hessian_sup(boxed, t, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(seen[1], sphere[boxed.feasible(sphere)])


def test_solve_radius_quartic():
    P = quartic_problem()
    assert solve_radius(P, 4.0) == pytest.approx(2.0, abs=1e-6)
    assert solve_radius(P, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_solve_radius_exponential_instance():
    P = exp_problem()
    assert solve_radius(P, 10.0) == pytest.approx(math.log(10.0), abs=1e-5)


def test_solve_radius_requires_lambda_above_base():
    P = quartic_problem()
    with pytest.raises(ValueError):
        solve_radius(P, 0.0)


def test_build_ladder_quartic():
    P = quartic_problem()
    result = build_ladder(P, list(range(1, 11)), rng=np.random.default_rng(1),
                          n_pairs=2000)
    for k, t in enumerate(result.radii, start=1):
        assert t == pytest.approx(math.sqrt(k), abs=1e-6)
    assert result.passed
    # radii increase and become unbounded with the constants
    assert all(b >= a for a, b in zip(result.radii, result.radii[1:]))
    assert result.radii[9] > 2 * result.radii[0]


def test_build_ladder_rejects_nonincreasing():
    P = quartic_problem()
    with pytest.raises(ValueError):
        build_ladder(P, [1.0, 1.0, 2.0])


def test_build_ladder_short_circuit_quadratic():
    P = SmoothProblem(f=lambda x: 1.5 * float(np.atleast_1d(x)[0]) ** 2,
                      grad=lambda x: np.array([3.0 * float(np.atleast_1d(x)[0])]),
                      hess_norm=lambda x: 3.0, dim=1, y0=[0.0],
                      hessian_sup_bound=3.0)
    result = build_ladder(P, [4.0, 5.0], rng=np.random.default_rng(2),
                          n_pairs=2000)
    assert result.short_circuit == 3.0
    assert result.constants == (3.0,)
    assert result.radii == (INF,)
    assert result.passed


def test_ladder_2d_radial_quartic_with_constraint():
    # ||x||^4 / 12: Hessian norm is ||x||^2 (radial), constrained to a box
    C = GaugeSet.from_halfspaces(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [5.0, 5.0, 5.0, 5.0])

    def h(x):
        return float(np.dot(x, x))

    P = SmoothProblem(
        f=lambda x: float(np.dot(x, x)) ** 2 / 12.0,
        grad=lambda x: (float(np.dot(x, x)) / 3.0) * np.asarray(x, float),
        hess_norm=h, dim=2, y0=[0.0, 0.0], C=C,
        hessian_sup_closed_form=lambda t: min(t, 5.0 * math.sqrt(2.0)) ** 2)
    result = build_ladder(P, [1.0, 2.0, 4.0], rng=np.random.default_rng(3),
                          n_pairs=2000)
    assert result.passed


def test_base_point_must_be_feasible():
    C = GaugeSet.from_ball(1.0, 1)
    with pytest.raises(ValueError):
        SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.zeros(1),
                      hess_norm=lambda x: 0.0, dim=1, y0=[5.0], C=C)


def test_ladder_table_export(tmp_path):
    cfg = tmp_path / "ladder.json"
    cfg.write_text(json.dumps({"kind": "ladder", "seed": 7, "n_levels": 2,
                               "out_dir": str(tmp_path)}))
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "ladder.csv").read_text().strip().splitlines()
    assert lines[0] == "k,lambda_k,t_k,expected_t,worst_ratio,verdict"
    assert len(lines) == 3
    for line in lines[1:]:
        k, lam, t, _, ratio, verdict = line.split(",")
        assert float(lam) == float(k)
        assert float(t) == pytest.approx(math.sqrt(float(k)), abs=1e-5)
        assert 0.0 <= float(ratio) <= float(lam) * (1 + 1e-6)
        assert verdict == "pass"


def _nan_grad_problem():
    # closed-form Hessian sup 1 + t, so only the sampled gradient check runs
    return SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.array([math.nan]),
                         hess_norm=lambda x: 1.0, dim=1, y0=[0.0],
                         hessian_sup_closed_form=lambda t: 1.0 + t)


def test_nan_gradient_fails_the_level():
    # before, max(worst, nan) kept worst: passed=True with worst_ratio 0.0
    with pytest.raises(ValueError, match="NaN"):
        build_ladder(_nan_grad_problem(), [2.0], rng=np.random.default_rng(0),
                     n_pairs=50)


def test_nan_hessian_norm_raises():
    # before, v > best skipped a NaN and the sampled sup ignored it
    P = SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.zeros(1),
                      hess_norm=lambda x: math.nan if abs(float(x[0])) > 0.5 else 1.0,
                      dim=1, y0=[0.0])
    with pytest.raises(ValueError, match="NaN"):
        hessian_sup(P, 1.0, rng=np.random.default_rng(0))
    P0 = SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.zeros(1),
                       hess_norm=lambda x: math.nan, dim=1, y0=[0.0])
    for t in (0.0, 1.0):
        with pytest.raises(ValueError, match="NaN"):
            hessian_sup(P0, t)


# ---------------------------------------------------------------------------
# ITP radius search: sweep counts, the stopping rule and the bracket
# ---------------------------------------------------------------------------

def _counted_sweeps(monkeypatch):
    """The radii of every hessian_sup call of ``ladder``, in call order."""
    radii, orig = [], ladder.hessian_sup
    monkeypatch.setattr(ladder, "hessian_sup",
                        lambda P, t, rng=None: radii.append(t) or orig(P, t, rng=rng))
    return radii


@pytest.mark.parametrize("seed", [3, 11, 29, 47])
def test_itp_sweeps_per_level_on_the_sampled_quartic(monkeypatch, seed):
    # the benchmark's ladder shape: ||x||^4 / 12 on a box, Hessian sup sampled;
    # bisection took 24-26 sweeps per level here
    radii = _counted_sweeps(monkeypatch)
    rng = np.random.default_rng(seed)
    for lam in (1.0, 2.0, 4.0):
        C = GaugeSet.from_halfspaces(np.vstack([np.eye(2), -np.eye(2)]), rng.uniform(2.5, 4.0, 4))
        P = SmoothProblem(f=lambda x: float(np.dot(x, x)) ** 2 / 12.0,
                          grad=lambda x: (float(np.dot(x, x)) / 3.0) * np.asarray(x, float),
                          hess_norm=lambda x: float(np.dot(x, x)), dim=2, y0=[0.0, 0.0], C=C)
        radii.clear()
        res = build_ladder(P, [lam], rng=np.random.default_rng(int(rng.integers(2 ** 31))),
                           n_pairs=500)
        assert len(radii) <= 10
        assert res.passed and abs(res.radii[0] - math.sqrt(lam)) <= 1e-5


@pytest.mark.parametrize("lam", [1.0, 2.0, 5.0, 10.0])
def test_itp_sweeps_on_the_closed_form_quartic(monkeypatch, lam):
    # bisection took 23-26 calls of the closed form t^2
    radii = _counted_sweeps(monkeypatch)
    assert solve_radius(quartic_problem(), lam) == pytest.approx(math.sqrt(lam), abs=1e-6)
    assert len(radii) <= 10


def test_solve_radius_stops_when_the_bracket_holds_no_float(monkeypatch):
    # a tol far below the float spacing of the radius: once lo and hi are
    # adjacent floats the bracket cannot shrink, and the search used to loop
    # for ever.  It now stops there; the counter raises instead of hanging
    # the test if it does not.
    radii, orig = [], ladder.hessian_sup

    def counted(P, t, rng=None):
        radii.append(t)
        if len(radii) > 200:
            raise AssertionError("solve_radius does not stop")
        return orig(P, t, rng=rng)
    monkeypatch.setattr(ladder, "hessian_sup", counted)
    t = solve_radius(quartic_problem(), 2.0, tol=1e-30)
    assert t == radii[-1] and abs(t - math.sqrt(2.0)) <= 2 * math.ulp(math.sqrt(2.0))
    assert len(radii) <= 70   # bisection reaches adjacent floats in about 60


def _radial_form(draw):
    """(g, lam): g a closed-form radial sup on t >= 0 with g(0) < lam, from
    one of four families, all crossing lam near a root t* in [1e-3, 1e3]."""
    lam = draw(st.floats(1e-3, 1e3))
    root = 10.0 ** draw(st.floats(-3, 3))
    p = draw(st.floats(0.5, 8))
    kind = draw(st.sampled_from(["power", "flat", "steep", "noisy"]))
    if kind == "power":
        return (lambda t: lam * (t / root) ** p), lam
    if kind == "flat":                     # zero up to c, then a power
        c = root * draw(st.floats(0.0, 0.99))
        return (lambda t: lam * (max(t - c, 0.0) / (root - c)) ** p), lam
    if kind == "steep":                    # a jump to 2 lam, or an exponential
        if draw(st.booleans()):
            return (lambda t: 2.0 * lam if t >= root else 0.0), lam
        k = draw(st.floats(1.0, 50.0)) / root
        return (lambda t: lam * math.exp(min(k * (t - root), 700.0))), lam
    e, w = draw(st.floats(0.0, 0.5)), draw(st.floats(1.0, 1e4))
    return (lambda t: lam * (t / root) ** p * (1.0 + e * math.sin(w * t))), lam


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data(), st.floats(0.0, 100.0), st.floats(-8, -2))
def test_itp_stops_by_the_rule_inside_the_bracket_within_its_bound(data, t_hint, log_tol):
    g, lam = _radial_form(data.draw)
    tol, calls = 10.0 ** log_tol, []
    P = SmoothProblem(f=lambda x: 0.0, grad=lambda x: np.zeros(1), hess_norm=lambda x: 0.0,
                      dim=1, y0=[0.0],
                      hessian_sup_closed_form=lambda t: calls.append((t, g(t))) or g(t))
    t = solve_radius(P, lam, t_hint=t_hint, tol=tol)
    # replay the expansion: doubling from max(t_hint, 1) until g(hi) >= lam
    assert calls[0] == (0.0, g(0.0))
    lo, hi, i = 0.0, max(t_hint, 1.0), 1
    v_lo, v_hi = calls[0][1], g(hi)
    while v_hi < lam:
        assert calls[i][0] == hi
        lo, hi, v_lo, v_hi, i = hi, 2.0 * hi, v_hi, g(2.0 * hi), i + 1
    assert calls[i][0] == hi
    w0, steps = hi - lo, calls[i + 1:]
    # replay the search: every point inside the bracket, the rule met last only
    for j, (x, v) in enumerate(steps):
        assert v_lo < lam <= v_hi
        assert lo <= x <= hi
        stop = abs(v - lam) <= tol or hi - lo < tol * 1e-3
        assert stop == (j == len(steps) - 1)
        if v < lam:
            lo, v_lo = x, v
        else:
            hi, v_hi = x, v
    assert t == steps[-1][0] > 0.0
    # at most n0 sweeps more than bisection's worst case
    n_bisect = 1
    while w0 / 2.0 ** (n_bisect - 1) >= tol * 1e-3:
        n_bisect += 1
    assert len(steps) <= n_bisect + ladder.ITP_N0
