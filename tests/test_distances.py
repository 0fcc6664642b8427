import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.distances import (IDENTITY, NONNEGATIVE, SYMMETRIC, TRIANGLE,
                               PseudoDistance, absolute, binding_energy,
                               energy_ladder, euclidean, eval_distance,
                               eval_distances, gauge_distance)
from optstab.extreal import INF, check_extended_real
from optstab.gauges import GaugeSet
from paper_examples import constant_infinite
from sampled_references import check_documented_properties


def test_euclidean_basics():
    d = euclidean(2)
    assert eval_distance(d, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
    assert eval_distance(d, [1.0, 1.0], [1.0, 1.0]) == 0.0


def test_dimension_mismatch_rejected():
    d = euclidean(2)
    with pytest.raises(ValueError):
        eval_distance(d, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_absolute():
    d = absolute()
    assert eval_distance(d, 2.0, -1.0) == 3.0


def test_energy_ladder_is_signed_and_asymmetric():
    d = energy_ladder()
    up = eval_distance(d, 1, 2)
    assert up == pytest.approx(10.2)
    assert eval_distance(d, 2, 1) == pytest.approx(-10.2)
    assert eval_distance(d, 3, 3) == 0.0
    assert binding_energy(1) == -13.6


def test_energy_ladder_triangle_equality():
    d = energy_ladder()
    # the signed transition cost is additive along any path
    for (x, y, z) in [(1, 3, 2), (2, 5, 4), (1, 2, 6)]:
        assert eval_distance(d, x, y) == pytest.approx(
            eval_distance(d, x, z) + eval_distance(d, z, y))


def test_gauge_distance_asymmetric():
    C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
    d = gauge_distance(C)
    assert eval_distance(d, [0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-10)
    assert eval_distance(d, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5, abs=1e-10)
    assert eval_distance(d, [0.0, 0.0], [0.0, 1.0]) == INF


def test_constant_infinite():
    d = constant_infinite()
    assert eval_distance(d, 0.0, 0.0) == INF


def test_property_spot_checks():
    rng = np.random.default_rng(0)
    triples = [(rng.standard_normal(2), rng.standard_normal(2),
                rng.standard_normal(2)) for _ in range(50)]
    res = check_documented_properties(euclidean(2), triples)
    assert res == {SYMMETRIC: True, NONNEGATIVE: True, TRIANGLE: True,
                   IDENTITY: True}


def test_property_check_detects_violation():
    from optstab.distances import PseudoDistance
    d = PseudoDistance(name="signed", fn=lambda x, y: float(y) - float(x),
                       ambient_dim=1, properties=frozenset({NONNEGATIVE}))
    res = check_documented_properties(d, [(1.0, 0.0, 0.5)])
    assert res[NONNEGATIVE] is False


# ---------------------------------------------------------------------------
# eval_distances: all the pairs in one call, with the bits of one pair at a time
# ---------------------------------------------------------------------------

_DISTANCES = {
    "euclidean": euclidean,
    "euclidean-free": lambda dim: euclidean(),
    "absolute": lambda dim: absolute(),
    "energy": lambda dim: energy_ladder(),
    "gauge": lambda dim: gauge_distance(GaugeSet.from_halfspaces(
        np.vstack([np.eye(dim), -2.0 * np.eye(dim)]), np.ones(2 * dim))),
    "callable": lambda dim: PseudoDistance("sum-gap", lambda x, y: float(np.sum(y) - np.sum(x))),
    "constant-inf": constant_infinite,
}
_ONE_DIM = {"absolute", "energy"}
# one-point references for the row-form kernels of euclidean() and
# absolute(): the bodies those kernels had in their one-point form
_ONE_POINT = {
    "euclidean": lambda x, y: np.linalg.norm(y - x),
    "euclidean-free": lambda x, y: np.linalg.norm(y - x),
    "absolute": lambda x, y: abs(y - x),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(_DISTANCES)), dim=st.integers(1, 12), n=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e6]),
       scalars=st.booleans(), inf=st.booleans())
def test_eval_distances_equals_eval_distance_pair_by_pair(name, dim, n, seed, scale,
                                                          scalars, inf):
    dim = 1 if name in _ONE_DIM else dim
    d = _DISTANCES[name](dim)
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((2, n, dim)) * scale
    if name == "energy":
        X, Y = rng.integers(1, 6, (2, n, 1)).astype(float)
    elif inf:
        X[0, 0] = INF   # a lone inf: an infinite distance (or a NaN, refused)
    xs, ys = (list(X[:, 0]), list(Y[:, 0])) if scalars and dim == 1 else (list(X), list(Y))
    one = _ONE_POINT.get(name, lambda x, y: eval_distance(d, x, y))
    try:
        want = [check_extended_real(np.squeeze(one(x, y))) for x, y in zip(xs, ys)]
    except ValueError:
        with pytest.raises(ValueError):
            eval_distances(d, xs, ys)
        return
    got = eval_distances(d, xs, ys)
    singles = [eval_distance(d, x, y) for x, y in zip(xs, ys)]
    assert got.dtype == float and got.tolist() == want == singles
    assert ([np.float64(v).tobytes() for v in got] == [np.float64(v).tobytes() for v in singles]
            == [np.float64(v).tobytes() for v in want])


def test_eval_distances_refusals_and_empty_input():
    d = euclidean(2)
    assert eval_distances(d, [], []).shape == (0,)
    with pytest.raises(ValueError):
        eval_distances(d, [[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="NaN"):
        eval_distances(d, [[0.0, 0.0], [INF, 0.0]], [[1.0, 1.0], [INF, 1.0]])
    with pytest.raises(ValueError, match="NaN"):
        eval_distances(absolute(), [0.0, np.nan], [1.0, 1.0])


@pytest.mark.parametrize("d, xs, ys", [
    (euclidean(), [[0.0, 0.0], [INF, 0.0]], [[1.0, 1.0], [INF, 1.0]]),
    (absolute(), [[0.0], [-INF]], [[1.0], [-INF]]),
])
def test_inf_minus_inf_is_refused_without_a_warning(d, xs, ys):
    # before, the kernels' Y - X emitted a RuntimeWarning ahead of the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="NaN"):
            eval_distances(d, xs, ys)
