import json
import math

import numpy as np
import pytest

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
