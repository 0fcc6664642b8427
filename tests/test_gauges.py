import numpy as np
import pytest

from optstab.extreal import INF
from optstab.gauges import (GaugeSet, InvalidGaugeError, as_magnitude,
                            conjugate_gauge, minkowski_gauge)


def test_segment_gauge_goldens():
    C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
    assert minkowski_gauge(C, [3.0, 0.0]) == pytest.approx(3.0, abs=1e-10)
    assert minkowski_gauge(C, [-4.0, 0.0]) == pytest.approx(2.0, abs=1e-10)
    assert minkowski_gauge(C, [1.0, 1.0]) == INF


def test_segment_gauge_is_asymmetric():
    C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
    x = np.array([1.0, 0.0])
    assert minkowski_gauge(C, x) == pytest.approx(1.0, abs=1e-10)
    assert minkowski_gauge(C, -x) == pytest.approx(0.5, abs=1e-10)


def test_ball_gauge_is_scaled_norm():
    C = GaugeSet.from_ball(2.0, 3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert minkowski_gauge(C, x) == pytest.approx(np.linalg.norm(x) / 2.0)


def test_halfspace_gauge_closed_form():
    # unit square [-1, 1]^2
    A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    C = GaugeSet.from_halfspaces(A, [1.0, 1.0, 1.0, 1.0])
    assert minkowski_gauge(C, [0.5, 0.25]) == pytest.approx(0.5)
    assert minkowski_gauge(C, [-3.0, 1.0]) == pytest.approx(3.0)
    assert minkowski_gauge(C, [0.0, 0.0]) == 0.0


def test_halfspace_zero_offset_forces_infinity():
    # C = {x : x2 <= 0, -x2 <= 1, |x1| <= 1}: a slab below the axis
    C = GaugeSet.from_halfspaces(
        [[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0]],
        [0.0, 1.0, 1.0, 1.0])
    assert minkowski_gauge(C, [0.0, 1.0]) == INF
    assert minkowski_gauge(C, [0.5, -0.5]) == pytest.approx(0.5)


def test_invalid_gauges_rejected():
    with pytest.raises(InvalidGaugeError):
        GaugeSet.from_halfspaces([[1.0, 0.0]], [-1.0])
    with pytest.raises(InvalidGaugeError):
        GaugeSet.from_vertices([[1.0, 1.0], [2.0, 1.0]])  # hull misses 0
    with pytest.raises(InvalidGaugeError):
        GaugeSet.from_ball(0.0, 2)
    with pytest.raises(InvalidGaugeError):
        GaugeSet.from_oracle(lambda x: bool(np.linalg.norm(x - 5) <= 1), 1, 10.0)


def test_oracle_gauge_matches_ball_closed_form():
    ball = GaugeSet.from_ball(1.5, 2)
    oracle = GaugeSet.from_oracle(
        lambda x: bool(np.linalg.norm(x) <= 1.5), 2, bounding_radius=1.5)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(2) * 3
        assert minkowski_gauge(oracle, x) == pytest.approx(
            minkowski_gauge(ball, x), abs=1e-8)


def test_positive_homogeneity():
    C = GaugeSet.from_vertices([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.standard_normal(2)
        lam = rng.uniform(0.1, 5.0)
        assert minkowski_gauge(C, lam * x) == pytest.approx(
            lam * minkowski_gauge(C, x), rel=1e-7)


def test_subadditivity_for_convex_set():
    C = GaugeSet.from_halfspaces(
        [[1.0, 1.0], [-1.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0])
    rng = np.random.default_rng(3)
    for _ in range(30):
        x, y = rng.standard_normal(2), rng.standard_normal(2)
        assert minkowski_gauge(C, x + y) <= (
            minkowski_gauge(C, x) + minkowski_gauge(C, y) + 1e-9)


def test_conjugate_gauge():
    C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
    assert conjugate_gauge(C, [3.0, 0.0]) == pytest.approx(1.5, abs=1e-10)
    assert conjugate_gauge(lambda x: float(np.abs(x).max()), [-2.0, 1.0]) == 2.0


def test_vertex_hull_contains():
    C = GaugeSet.from_vertices([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert C.contains([0.25, 0.25])
    assert not C.contains([0.9, 0.9])


def test_as_magnitude():
    C = GaugeSet.from_ball(1.0, 2)
    mag = as_magnitude(C)
    assert mag(np.array([3.0, 4.0])) == pytest.approx(5.0)


@pytest.mark.parametrize("C", [
    GaugeSet.from_halfspaces([[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 1, 1]),
    GaugeSet.from_ball(1.0, 2),
    GaugeSet.from_vertices([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
    GaugeSet.from_oracle(lambda x: float(np.linalg.norm(x)) <= 1.0, 2, 1.0),
], ids=["halfspaces", "ball", "vertices", "oracle"])
@pytest.mark.parametrize("x", [[np.nan, 0.0], [[0.5, 0.0], [np.nan, 0.0]]],
                         ids=["point", "rows"])
def test_nan_coordinates_raise(C, x):
    # before, the one-point box gauge of [nan, 0] was 0.0 and contains was False
    with pytest.raises(ValueError, match="NaN"):
        minkowski_gauge(C, x)
    with pytest.raises(ValueError, match="NaN"):
        C.contains(x)
