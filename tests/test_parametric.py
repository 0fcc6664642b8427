import numpy as np
import pytest

from optstab.distances import absolute, euclidean
from optstab.instances import norm_objective, oscillating_blocks, oscillating_objective
from optstab.linear import affine_family, decompose
from optstab.optima import Lipschitz, ObjectiveFn
from optstab.parametric import (ParamFamily, ValueFunction,
                                certify_value_lipschitz,
                                empirical_value_continuity,
                                eval_value_function)
from optstab.sets import FiniteCloud, Interval, IntervalUnion
from sampled_references import empirical_hausdorff_limsup, measured_lipschitz_ratio


def _affine_abs_family():
    lm = decompose([[1.0, 0.0]])
    fam = affine_family(lm)
    return fam.as_param_family(absolute(), alpha=1.0), fam


def test_affine_value_function_is_abs():
    pf, _ = _affine_abs_family()
    V = ValueFunction(mode="inf", family=pf, objective=norm_objective(2))
    for t in (-3.0, -0.5, 0.0, 1.25, 7.0):
        got = eval_value_function(V, [t])
        assert got.mode == "exact"
        assert got.value == pytest.approx(abs(t))


def test_constant_family_value_constant():
    A = FiniteCloud([[0.0, 0.0], [1.0, 1.0]])
    pf = ParamFamily(index_distance=absolute(), member=lambda t: A,
                     hausdorff_rate=lambda t, s: 1.0)
    V = ValueFunction(mode="sup", family=pf, objective=norm_objective(2))
    vals = [eval_value_function(V, t).value for t in (-1.0, 0.0, 2.0)]
    assert max(vals) == min(vals)


def test_empirical_hausdorff_limsup_affine():
    pf, _ = _affine_abs_family()
    probes = [[t] for t in np.linspace(-0.5, 0.5, 21) if t != 0]
    rep = empirical_hausdorff_limsup(pf, euclidean(2), [0.0], probes, eps=0.1)
    assert rep["verdict"] == "pass"
    assert rep["delta"] is not None and rep["delta"] > 0


def test_empirical_hausdorff_limsup_constant_family():
    A = IntervalUnion([Interval(0.0, 1.0)])
    pf = ParamFamily(index_distance=absolute(), member=lambda t: A)
    rep = empirical_hausdorff_limsup(pf, absolute(), 0.0,
                                     [0.01, 0.2, 0.5], eps=0.05)
    assert rep["verdict"] == "pass"
    assert rep["delta"] == pytest.approx(0.05)  # the first (largest) level


def test_certify_value_lipschitz_affine():
    pf, _ = _affine_abs_family()
    V = ValueFunction(mode="inf", family=pf, objective=norm_objective(2))
    rng = np.random.default_rng(0)
    pairs = [([float(a)], [float(b)]) for a, b in rng.uniform(-5, 5, (100, 2))]
    rep = certify_value_lipschitz(V, pairs)
    assert rep.passed
    ratio = measured_lipschitz_ratio(V, pairs)
    assert ratio <= 1.0 * (1 + 1e-9)


def test_certify_refuses_without_rate():
    lm = decompose([[1.0, 0.0]])
    fam = affine_family(lm)
    pf = fam.as_param_family(absolute())  # no alpha declared
    V = ValueFunction(mode="inf", family=pf, objective=norm_objective(2))
    with pytest.raises(ValueError):
        certify_value_lipschitz(V, [([0.0], [1.0])])


def test_empirical_value_continuity_affine():
    pf, _ = _affine_abs_family()
    V = ValueFunction(mode="inf", family=pf, objective=norm_objective(2))
    probes = [[t] for t in np.linspace(-1, 1, 41) if t != 0]
    rep = empirical_value_continuity(V, [0.0], probes, eps_grid=[0.5, 0.1])
    assert rep["verdict"] == "pass"
    assert rep["value"] == pytest.approx(0.0)


def test_negative_control_oscillating_family():
    """The sets converge in Hausdorff distance, yet the value function jumps:
    the failure is attributable to the objective regularity, not the sets."""
    K = 40
    f = oscillating_objective(K)
    d = absolute()

    def member(u):  # u = 1/j for integer j, u = 0 -> unperturbed blocks
        if u == 0.0:
            return oscillating_blocks(K)
        return oscillating_blocks(K, extended_j=round(1.0 / u))

    pf = ParamFamily(index_distance=absolute(), member=member)
    probes = [1.0 / j for j in range(5, 36)]
    limsup = empirical_hausdorff_limsup(pf, d, 0.0, probes, eps=0.1)
    assert limsup["verdict"] == "pass"  # the SETS do converge

    V = ValueFunction(mode="inf", family=pf, objective=f)
    for u in probes:
        assert abs(eval_value_function(V, u).value
                   - eval_value_function(V, 0.0).value) == 1.0
    cont = empirical_value_continuity(V, 0.0, probes, eps_grid=[0.5])
    assert cont["verdict"] == "inconclusive"
    # the report's attribution: regularity, not set convergence
    from optstab.optima import ContinuousOnly
    assert isinstance(f.regularity, ContinuousOnly)


def test_empty_member_rejected():
    pf = ParamFamily(index_distance=absolute(),
                     member=lambda t: IntervalUnion([Interval(0.0, 1.0)]))
    assert pf.set_at(0.0) is not None


@pytest.mark.parametrize("hook", [None, "norm", "reads-the-set"])
def test_a_none_member_is_refused_as_empty(hook):
    pf = ParamFamily(index_distance=absolute(),
                     member=lambda t: None if t > 1 else FiniteCloud([t]),
                     hausdorff_rate=lambda t, s: 1.0)
    f = norm_objective(1) if hook == "norm" else ObjectiveFn(
        fn=lambda x: float(np.ravel(x)[0]), regularity=Lipschitz(1.0),
        exact_inf=(lambda A: float(A.points.min())) if hook else None)
    V = ValueFunction(mode="inf", family=pf, objective=f)
    for call in (lambda: eval_value_function(V, 2.0),
                 lambda: empirical_value_continuity(V, 0.0, [2.0], [0.5]),
                 lambda: certify_value_lipschitz(V, [(0.0, 2.0)])):
        with pytest.raises(ValueError, match=r"family member at t=2.0 is empty"):
            call()

