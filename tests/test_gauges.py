import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gauge_reference
from optstab.distances import gauge_distance
from optstab.extreal import INF, row_form
from optstab.gauges import (GaugeSet, InvalidGaugeError, as_magnitude,
                            conjugate_gauge, minkowski_gauge)
from optstab.linear import decompose, restricted_inverse_egi
from optstab.sets import FiniteCloud, hausdorff


def test_segment_gauge_goldens():
    C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
    assert minkowski_gauge(C, [3.0, 0.0]) == 3.0
    assert minkowski_gauge(C, [-4.0, 0.0]) == 2.0
    assert minkowski_gauge(C, [1.0, 1.0]) == INF


def test_segment_gauge_is_asymmetric():
    C = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
    x = np.array([1.0, 0.0])
    assert minkowski_gauge(C, x) == pytest.approx(1.0, abs=1e-10)
    assert minkowski_gauge(C, -x) == pytest.approx(0.5, abs=1e-10)


SEGMENT = GaugeSet.from_vertices([[-2.0, 0.0], [1.0, 0.0]])
UNIT_DISK = GaugeSet.from_oracle(lambda x: float(np.linalg.norm(x)) <= 1.0, 2, 1.0)


@pytest.mark.parametrize("C, x, expected", [
    (SEGMENT, [0.0, 1e-9], INF),
    (SEGMENT, [0.0, 1e-7], INF),
    (UNIT_DISK, [3e-9, 4e-9], 5e-9),
    (UNIT_DISK, [3e-6, 4e-6], 5e-6),
], ids=["segment-1e-9", "segment-1e-7", "disk-5e-9", "disk-5e-6"])
def test_gauges_near_the_origin(C, x, expected):
    # before, the segment gave 0.0 at both points, the disk 0.0 and 5.0000004e-6
    assert minkowski_gauge(C, x) == pytest.approx(expected, rel=1e-9, abs=0.0)
    assert minkowski_gauge(C, np.array([x])).tolist() == [minkowski_gauge(C, x)]


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


# a cone {x2 <= x1, x2 <= -x1} cut at x2 = -1: two zero offsets
CONE = GaugeSet.from_halfspaces([[-1.0, 1.0], [1.0, 1.0], [0.0, -1.0]], [0.0, 0.0, 1.0])


@pytest.mark.parametrize("C", [CONE, SEGMENT], ids=["cone", "segment"])
def test_positive_homogeneity_at_every_scale(C):
    # a zero-offset row compares a_i . x with tol ||x||; with the absolute
    # tol, the cone gave lambda * 0.999 at (1, -0.999) for lambda <= 1e-7
    rng = np.random.default_rng(4)
    X = np.vstack([[[1.0, -0.999], [0.5, -2.0], [1e-3, -1.0], [2.0, 0.0], [-3.0, 1e-3],
                    [1.0, 1e-3]], rng.standard_normal((20, 2))])
    base = minkowski_gauge(C, X)
    assert np.isinf(base).any() and np.isfinite(base).any()
    for lam in np.logspace(-12, 6, 19):
        scaled = minkowski_gauge(C, lam * X)
        assert np.array_equal(np.isinf(scaled), np.isinf(base))
        finite = np.isfinite(base)
        assert scaled[finite] == pytest.approx(lam * base[finite], rel=1e-12, abs=0.0)


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


@pytest.mark.parametrize("build, message", [
    # a NaN offset gave a gauge of +inf at [1, 0.5], a NaN row a gauge of NaN
    (lambda: GaugeSet.from_halfspaces([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0]),
     "offsets must not be NaN"),
    (lambda: GaugeSet.from_halfspaces([[np.nan, 0.0], [0.0, 1.0]], [1.0, 1.0]),
     "rows must be finite"),
    (lambda: GaugeSet.from_halfspaces([[INF, 0.0], [0.0, 1.0]], [1.0, 1.0]),
     "rows must be finite"),
    # the gauge of a NaN-radius ball was NaN
    (lambda: GaugeSet.from_ball(np.nan, 2), "radius must be positive"),
    # NaN vertices ended in the hull's SVD, which did not converge
    (lambda: GaugeSet.from_vertices([[np.nan, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
     "vertices must be finite"),
], ids=["nan-offset", "nan-row", "inf-row", "nan-radius", "nan-vertex"])
def test_gauge_constructors_refuse_nan(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_an_infinite_offset_is_an_unconstraining_row():
    C = GaugeSet.from_halfspaces([[1.0, 0.0], [0.0, 1.0]], [INF, 2.0])
    assert minkowski_gauge(C, [5.0, 1.0]) == 0.5


BOX = GaugeSet.from_halfspaces([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0] * 4)
SQUARE = GaugeSet.from_vertices([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
STRIP = GaugeSet.from_halfspaces([[1.0, 0.0], [0.0, 1.0]], [INF, 1.0])   # x1 <= inf, x2 <= 1
HALF = GaugeSet.from_halfspaces([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0])    # x2 <= 0, x1 <= 1


INFINITE_COORDINATES = [
    (BOX, [INF, 0.0], INF),
    (BOX, [0.0, -INF], INF),
    (SQUARE, [INF, 0.0], INF),
    (SQUARE, [-INF, 0.0], INF),
    (STRIP, [INF, 0.5], 0.5),
    (STRIP, [-INF, -3.0], 0.0),
    (HALF, [-INF, 0.0], 0.0),     # every multiple of C reaches out to x1 = -inf
    (HALF, [-INF, 1.0], INF),     # a b_i = 0 row with a_i . x = 1 > 0
    (HALF, [INF, -1.0], INF),
]
INFINITE_IDS = ["box", "box-down", "square", "square-left", "strip", "strip-left", "half-in",
                "half-above", "half-right"]


@pytest.mark.parametrize("C, x, want", INFINITE_COORDINATES, ids=INFINITE_IDS)
def test_the_gauge_at_an_infinite_coordinate_is_an_extended_real(C, x, want):
    # a 0 coefficient times +-inf made the gauge NaN (0 * inf), and so did a
    # row with b_i = +inf (inf / inf)
    assert minkowski_gauge(C, x) == want
    assert conjugate_gauge(C, np.negative(x)) == want


@pytest.mark.parametrize("C, x, want", INFINITE_COORDINATES, ids=INFINITE_IDS)
def test_membership_at_an_infinite_coordinate_agrees_with_the_gauge(C, x, want):
    # membership formed X @ A.T, so 0 * inf made a row NaN and the point was
    # outside: STRIP held [inf, 0.5] at gauge 0.5 but not as a member
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert C.contains(x) == (want <= 1.0)
        assert C.contains(np.array([x, [0.0, 0.0]])).tolist() == [want <= 1.0, True]


def test_an_infinite_row_of_a_batch_leaves_the_others_bit_for_bit():
    X = np.array([[0.5, 0.25], [INF, 0.0], [-0.3, 0.7], [0.0, -INF]])
    for C in (BOX, SQUARE, STRIP, HALF):
        got = minkowski_gauge(C, X)
        assert not np.isnan(got).any()
        assert got.tolist() == [minkowski_gauge(C, x) for x in X]
        finite = minkowski_gauge(C, X[[0, 2]])
        assert got[[0, 2]].tobytes() == finite.tobytes()


def test_the_gauge_refuses_inf_minus_inf():
    C = GaugeSet.from_halfspaces([[1.0, 1.0], [-1.0, 0.0]], [1.0, 1.0])
    with pytest.raises(ValueError, match="inf - inf"):
        minkowski_gauge(C, [INF, -INF])
    with pytest.raises(ValueError, match="inf - inf"):
        minkowski_gauge(C, np.array([[0.0, 0.0], [-INF, INF]]))
    with pytest.raises(ValueError, match="inf - inf"):
        C.contains([INF, -INF])


GAUGE_SETTINGS = settings(max_examples=200, deadline=None, database=None,
                          derandomize=os.environ.get("OPTSTAB_RANDOMIZE") != "1")


def _outcome(fn, *args):
    """fn's value as its type and bytes, or the type and message of the
    ValueError it raised.  A zero gauge is read as +0.0: the sign of a zero
    row max is not a value, and over 8 or more offsets the row-major max of
    the masked copy takes it from numpy's SIMD lane order (a -0.0 quotient
    beside a 0.0 one), the column-major max from the last zero column."""
    try:
        v = fn(*args)
    except ValueError as e:
        return type(e), str(e)
    a = np.asarray(v)
    return type(v), (a + 0.0 if a.dtype == float else a).tobytes()


def _polytope_gauge(rng, kind, dim):
    """A halfspace set whose offsets hold 0s and +infs, or the hull of
    vertices around 0, flat ones included (their facet form has b_i = 0)."""
    if kind == "vertices":
        V = rng.standard_normal((dim + 1 + int(rng.integers(0, 5)), dim))
        V = V - V.mean(axis=0)
        if dim > 1 and rng.uniform() < 0.3:   # in a hyperplane through 0
            V[:, -1] = 0.0
        return GaugeSet.from_vertices(V * 10.0 ** rng.integers(-2, 3))
    m = int(rng.integers(1, 9))
    b = rng.uniform(0.1, 2.0, m) * rng.choice([1.0, 0.0, INF], m, p=[0.6, 0.2, 0.2])
    return GaugeSet.from_halfspaces(rng.standard_normal((m, dim)), b)


def _points(rng, C, n, special):
    """n rows: random points at many scales and the vertices, with some
    coordinates replaced by 0, -0, +-inf or NaN."""
    X = rng.standard_normal((n, C.dim)) * 10.0 ** rng.integers(-12, 6, (n, 1))
    if C.vertices is not None:
        X[: len(C.vertices)] = C.vertices[:n]
    hit = rng.uniform(size=X.shape) < special
    X[hit] = rng.choice([0.0, -0.0, INF, -INF, np.nan], hit.sum(), p=[0.3, 0.3, 0.18, 0.18, 0.04])
    return X


@GAUGE_SETTINGS
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["halfspaces", "vertices"]),
       dim=st.integers(1, 4), n=st.integers(1, 30), special=st.sampled_from([0.0, 0.1, 0.5]),
       one=st.booleans())
def test_the_polytope_kernel_equals_the_masked_quotient(seed, kind, dim, n, special, one):
    """The column-major halfspace/vertex kernel against ``gauge_reference``.
    Derandomized; with ``OPTSTAB_RANDOMIZE=1`` it draws at the
    ``--hypothesis-seed`` given to pytest."""
    rng = np.random.default_rng(seed)
    C = _polytope_gauge(rng, kind, dim)
    X = _points(rng, C, n, special)
    x = X[0] if one else X
    assert _outcome(minkowski_gauge, C, x) == _outcome(gauge_reference.minkowski_gauge, C, x)
    assert _outcome(C.contains, x) == _outcome(gauge_reference.contains, C, x)


# the l1 ball and a skewed box, each as a one-point oracle and as its row form
ORACLE_TWINS = {
    "l1": (lambda x: np.abs(x).sum() <= 1.0,
           row_form(lambda X: np.abs(X).sum(axis=1) <= 1.0)),
    "box": (lambda x: bool(-0.5 <= x[0] <= 2.0 and -1.0 <= x[1] <= 0.25),
            row_form(lambda X: (X[:, 0] >= -0.5) & (X[:, 0] <= 2.0)
                     & (X[:, 1] >= -1.0) & (X[:, 1] <= 0.25))),
}


def _bytes(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_TWINS))
def test_row_form_oracle_members_equal_their_one_point_twins(name):
    """A row-form member is called on rows, never on one point; every
    membership, gauge, gauge-distance Hausdorff value and EGI constant keeps
    the bits of the one-point twin."""
    one, rows = (GaugeSet.from_oracle(m, 2, 2.5) for m in ORACLE_TWINS[name])
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 2)) * 10.0 ** rng.integers(-3, 2, (40, 1))
    X[:3] = [[0.0, 0.0], [2.0, 0.0], [-0.0, -1.0]]
    assert one.contains(X).tolist() == rows.contains(X).tolist()
    assert [one.contains(x) for x in X] == [rows.contains(x) for x in X]
    assert _bytes(minkowski_gauge(one, X)) == _bytes(minkowski_gauge(rows, X))
    assert _bytes([minkowski_gauge(one, x) for x in X[:8]]) == _bytes(
        [minkowski_gauge(rows, x) for x in X[:8]])
    A, B = FiniteCloud(X[:12]), FiniteCloud(X[12:30])
    h_one, h_rows = (hausdorff(gauge_distance(C), A, B) for C in (one, rows))
    assert (_bytes(h_one.value), h_one.mode) == (_bytes(h_rows.value), h_rows.mode)
    lm = decompose(rng.standard_normal((2, 2)))
    c_one, c_rows = (restricted_inverse_egi(lm, C, C, rng=np.random.default_rng(3),
                                            n_eta_samples=200).constant for C in (one, rows))
    assert _bytes(c_one) == _bytes(c_rows)
