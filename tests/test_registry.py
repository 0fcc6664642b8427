"""The closed-form registry of ``optstab.sets``.

Closed forms and cdist sweeps are chosen by the ``metric`` a distance's
kernel marks on itself, never by the distance's name or by the kernel
object: an unmarked kernel with the same values gets neither.  Each registry
entry is checked here against a brute-force finite discretization of the
sets.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from optstab.distances import PseudoDistance, _absolute, _euclidean, absolute, euclidean
from optstab.extreal import row_form
from optstab.sets import (_CLOSED_FORMS, AffineSlab, AxisSegments, FiniteCloud,
                          ImplicitSampled, IntervalUnion, asym_hausdorff,
                          hausdorff, point_set_distance)

STEP = 0.01
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _l1(x, y):
    return float(np.abs(np.asarray(y, float) - np.asarray(x, float)).sum())


def _disk(dim=2):
    return ImplicitSampled(member=lambda x: bool(np.linalg.norm(x) <= 1.0),
                           sampler=lambda n, rg: rg.uniform(-1, 1, size=(n, dim)),
                           dim=dim, witness=np.zeros(dim))


# ---------------------------------------------------------------------------
# regressions: dispatch by kernel, reshaping of 1-D samples, dimension checks
# ---------------------------------------------------------------------------

def test_name_alone_does_not_select_a_closed_form():
    d = PseudoDistance(name="euclidean", fn=_l1, ambient_dim=2)
    A = AxisSegments({0: (1, True), 1: (1, True)}, dim=2)
    rep = point_set_distance(d, np.array([2.0, 1.0]), A)
    assert rep.value == 2.0
    assert rep.mode != "exact"


def test_one_dimensional_samples_are_points_not_one_row():
    A = IntervalUnion([(0.0, 1.0)])
    rep = hausdorff(euclidean(1), A, IntervalUnion([(0.0, 1.0)]))
    assert rep.mode == "sampled"
    assert rep.value < 1e-2


def test_dimension_mismatch_raises_on_cloud_and_sampled_paths():
    d = euclidean(3)
    cloud = FiniteCloud(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        hausdorff(d, cloud, FiniteCloud(np.ones((2, 2))))
    with pytest.raises(ValueError):
        hausdorff(d, _disk(), _disk(), budget=32, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        hausdorff(d, AxisSegments({0: (1.0, True)}, dim=2), AxisSegments({1: (1.0, True)}, dim=2))


# the one-point bodies the two kernels had before they were written in row form
_ONE_POINT = {_euclidean: lambda x, y: np.linalg.norm(y - x), _absolute: lambda x, y: abs(y - x)}


@pytest.mark.parametrize("kernel, dim", [(_euclidean, 1), (_euclidean, 3), (_absolute, 1)])
def test_cdist_kernel_matches_the_per_pair_loop(kernel, dim):
    rng = np.random.default_rng(dim)
    size = (lambda n: n) if dim == 1 else (lambda n: (n, dim))
    A, B = FiniteCloud(rng.standard_normal(size(40))), FiniteCloud(rng.standard_normal(size(25)))
    fast = PseudoDistance(name="kernel", fn=kernel, ambient_dim=dim)
    loop = PseudoDistance(name="loop", fn=_ONE_POINT[kernel], ambient_dim=dim)
    assert hausdorff(fast, A, B).mode == "exact"
    assert hausdorff(fast, A, B).value == pytest.approx(hausdorff(loop, A, B).value, rel=1e-14)


@pytest.mark.parametrize("d, bad, good", [
    (euclidean(2), [[np.nan, 0.0]], [[0.0, 0.0]]),
    (absolute(), [np.nan], [0.0]),
])
def test_nan_coordinates_raise_on_the_cdist_path(d, bad, good):
    # a cloud refuses NaN coordinates when it is built; a NaN query point
    # reaches the distance path
    for make in (lambda: hausdorff(d, FiniteCloud(bad), FiniteCloud(good)),
                 lambda: hausdorff(d, FiniteCloud(good), FiniteCloud(bad)),
                 lambda: point_set_distance(d, good[0], FiniteCloud(bad))):
        with pytest.raises(ValueError, match="NaN"):
            make()
    with pytest.raises(ValueError, match="NaN"):
        point_set_distance(d, bad[0], FiniteCloud(good))


def test_nan_query_point_raises_before_a_closed_form():
    with pytest.raises(ValueError, match="NaN"):
        point_set_distance(absolute(), np.nan, IntervalUnion([(0.0, 1.0)]))
    with pytest.raises(ValueError, match="NaN"):
        hausdorff(euclidean(2), FiniteCloud([[np.nan, 0.0]]),
                  AxisSegments({0: (1.0, True)}, dim=2))


def test_cdist_reduction_in_row_blocks_keeps_the_values(monkeypatch):
    from optstab import sets
    rng = np.random.default_rng(3)
    A, B = FiniteCloud(rng.standard_normal((37, 2))), FiniteCloud(rng.standard_normal((11, 2)))
    whole = asym_hausdorff(euclidean(2), A, B).value
    monkeypatch.setattr(sets, "_CDIST_BLOCK", 25)
    assert asym_hausdorff(euclidean(2), A, B).value == whole


@pytest.mark.parametrize("d, shape", [(euclidean(2), (50, 2)), (absolute(), (50,))],
                         ids=["euclidean", "absolute"])
def test_point_distances_keep_every_cdist_call_within_the_block(monkeypatch, d, shape):
    # a query set wider than the block is tiled along both axes
    from scipy.spatial import distance
    from optstab import sets
    rng = np.random.default_rng(4)
    A = FiniteCloud(rng.standard_normal(shape))
    x = rng.standard_normal(shape[1:])
    probe = FiniteCloud(rng.standard_normal((7,) + shape[1:]))

    def both():
        return point_set_distance(d, x, A).value, asym_hausdorff(d, probe, A).value

    (value, one_sided) = both()
    assert one_sided == max(point_set_distance(d, p, A).value for p in probe.points)
    sizes, cdist = [], distance.cdist
    monkeypatch.setattr(distance, "cdist",
                        lambda P, Q, metric: sizes.append(len(P) * len(Q)) or cdist(P, Q, metric))
    monkeypatch.setattr(sets, "_CDIST_BLOCK", 10)
    (tiled_value, tiled_one_sided) = both()
    assert sizes and max(sizes) <= 10
    assert np.float64(tiled_value).tobytes() == np.float64(value).tobytes()
    assert np.float64(tiled_one_sided).tobytes() == np.float64(one_sided).tobytes()


def test_sampled_cloud_side_samples_the_other_set_once():
    calls = []
    disk = _disk()
    B = ImplicitSampled(member=disk.member,
                        sampler=lambda n, rg: calls.append(n) or disk.sampler(n, rg),
                        dim=2, witness=np.zeros(2))
    A = FiniteCloud(np.random.default_rng(1).standard_normal((5, 2)))
    rep = asym_hausdorff(euclidean(2), A, B, budget=16, rng=np.random.default_rng(0))
    assert rep.mode == "sampled"
    assert calls == [16]


def test_registry_keys_are_the_constructor_kernels():
    # the keys are the metrics the constructors' kernels mark, never a function
    assert euclidean(2).fn is _euclidean and absolute().fn is _absolute
    assert (_euclidean.metric, _absolute.metric) == ("euclidean", "cityblock")
    assert {metric for (_, metric) in _CLOSED_FORMS} == {"euclidean", "cityblock"}


def test_every_registry_entry_has_a_brute_force_check():
    entries = {(t.__name__, metric, what)
               for (t, metric), forms in _CLOSED_FORMS.items() for what in forms}
    assert entries == {(t, metric, what) for t, metric in [("IntervalUnion", "cityblock"),
                                                          ("AxisSegments", "euclidean"),
                                                          ("AxisSegments", "cityblock"),
                                                          ("AffineSlab", "euclidean"),
                                                          ("AffineSlab", "cityblock")]
                       for what in ("point", "asym")}


def test_an_unmarked_copy_of_the_euclidean_kernel_gets_no_closed_form_and_no_sweep(monkeypatch):
    from scipy.spatial import distance
    copy = row_form(lambda X, Y: _euclidean(X, Y))   # the same values, no mark
    d = PseudoDistance(name="euclidean", fn=copy, ambient_dim=2)
    x = np.array([2.0, 1.0])
    segments = AxisSegments({0: (1, True), 1: (1, True)}, dim=2)
    slab = AffineSlab([0.0, 1.0], [[1.0], [0.0]], box_halfwidth=2.0)
    for A in (segments, slab):
        assert point_set_distance(euclidean(2), x, A).mode == "exact"
        assert point_set_distance(d, x, A, budget=64).mode == "sampled"
    rng = np.random.default_rng(5)
    A, B = FiniteCloud(rng.standard_normal((40, 2))), FiniteCloud(rng.standard_normal((30, 2)))
    swept = hausdorff(euclidean(2), A, B), asym_hausdorff(euclidean(2), A, B)
    monkeypatch.setattr(distance, "cdist", lambda *a, **k: pytest.fail("cdist was called"))
    for got, want in zip((hausdorff(d, A, B), asym_hausdorff(d, A, B)), swept):
        assert got.mode == "exact"
        assert got.value == pytest.approx(want.value, rel=1e-14)


# ---------------------------------------------------------------------------
# brute-force discretizations (closures of the sets, endpoints included)
# ---------------------------------------------------------------------------

def _grid(lo, hi):
    return np.linspace(lo, hi, max(2, int(np.ceil((hi - lo) / STEP)) + 1))


def _interval_points(A: IntervalUnion) -> np.ndarray:
    return np.concatenate([_grid(iv.lo, iv.hi) for iv in A.intervals])[:, None]


def _axis_points(A: AxisSegments) -> np.ndarray:
    pts = [np.zeros((1, A.dim))]
    for k, (u, _) in A.extents.items():
        seg = np.zeros((len(_grid(0.0, u)), A.dim))
        seg[:, k] = _grid(0.0, u)
        pts.append(seg)
    return np.vstack(pts)


def _line_points(p, direction, half_width):
    return p + _grid(-half_width, half_width)[:, None] * direction


def _dist_matrix(P, Q):
    return np.sqrt(((P[:, None, :] - Q[None, :, :]) ** 2).sum(axis=2))


def _brute_asym(P, Q):
    return _dist_matrix(P, Q).min(axis=1).max()


@st.composite
def interval_unions(draw):
    n = draw(st.integers(1, 4))
    cur = draw(st.floats(-5, 5))
    ivs = []
    for i in range(n):
        lo = cur + (0.0 if i == 0 else draw(st.floats(0, 3)))
        hi = lo + draw(st.floats(0, 3))
        point = hi == lo    # a point needs both ends closed: (a, a] is empty
        ivs.append((lo, hi, point or draw(st.booleans()), point or draw(st.booleans())))
        cur = hi
    return IntervalUnion(ivs)


@st.composite
def axis_segments(draw, dim):
    axes = draw(st.sets(st.integers(0, dim - 1), min_size=1))
    extents = {k: (draw(st.floats(0, 3)), draw(st.booleans())) for k in axes}
    assume(any(e != (0.0, False) for e in extents.values()))   # not only empty [0, 0)
    return AxisSegments(extents, dim=dim)


coords = st.floats(-3, 3)


@SETTINGS
@given(interval_unions(), interval_unions(), coords)
def test_interval_union_closed_forms_match_brute_force(A, B, x):
    d = absolute()
    pa, pb = _interval_points(A), _interval_points(B)
    rep = point_set_distance(d, x, A)
    assert rep.mode == "exact"
    assert rep.value == pytest.approx(np.abs(pa - x).min(), abs=STEP)
    rep = asym_hausdorff(d, A, B)
    assert rep.mode == "exact"
    assert rep.value == pytest.approx(_brute_asym(pa, pb), abs=STEP)


def _distance(dim):
    # the CLI's choice: absolute() in dimension 1, else euclidean()
    return absolute() if dim == 1 else euclidean(dim)


@SETTINGS
@given(st.integers(1, 4).flatmap(
    lambda dim: st.tuples(axis_segments(dim), axis_segments(dim),
                          st.lists(coords, min_size=dim, max_size=dim))))
def test_axis_segment_closed_forms_match_brute_force(case):
    A, B, x = case
    d = _distance(A.dim)
    pa, pb = _axis_points(A), _axis_points(B)
    rep = point_set_distance(d, np.array(x), A)
    assert rep.mode == "exact"
    assert rep.value == pytest.approx(_dist_matrix(np.array([x]), pa).min(), abs=STEP)
    rep = asym_hausdorff(d, A, B)
    assert rep.mode == "exact"
    assert rep.value == pytest.approx(_brute_asym(pa, pb), abs=STEP)


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda dim: st.tuples(*[st.lists(coords, min_size=dim, max_size=dim)] * 4)),
    st.booleans())
def test_affine_slab_closed_forms_match_brute_force(vectors, has_kernel):
    p, q, x, direction = (np.array(v) for v in vectors)
    norm = np.linalg.norm(direction)
    if not has_kernel or norm < 0.1:
        direction = np.zeros_like(p)
    else:
        direction = direction / norm
    K = direction[:, None] if direction.any() else np.zeros((len(p), 0))
    A, B = AffineSlab(p, K), AffineSlab(q, K)
    d = _distance(len(p))
    # |coefficients| of the nearest points stay below 4 * 3 * sqrt(3) < 25
    pa = _line_points(p, direction, 25.0)
    rep = point_set_distance(d, x, A)
    assert rep.mode == "exact"
    assert rep.value == pytest.approx(_dist_matrix(x[None, :], pa).min(), abs=STEP)
    # parallel slabs are a constant distance apart, so a piece of A suffices
    rep = asym_hausdorff(d, A, B)
    assert rep.mode == "exact"
    assert rep.value == pytest.approx(
        _brute_asym(_line_points(p, direction, 1.0), _line_points(q, direction, 25.0)),
        abs=STEP)


def test_non_parallel_slabs_fall_back_to_sampling():
    A = AffineSlab([0.0, 0.0], [[1.0], [0.0]], box_halfwidth=2.0)
    B = AffineSlab([0.0, 1.0], [[1.0], [1.0]], box_halfwidth=2.0)
    rep = asym_hausdorff(euclidean(2), A, B, budget=64, rng=np.random.default_rng(0))
    assert rep.mode == "sampled"


# ---------------------------------------------------------------------------
# the array point forms against the per-point forms they replaced
# ---------------------------------------------------------------------------

def _ref_dist_to_axis_segments(x, A: AxisSegments) -> float:
    x = np.asarray(x, dtype=float).ravel()
    sq = float(x @ x)
    best = np.inf
    for m, (u, _) in A.extents.items():
        s = min(max(x[m], 0.0), u) if m < x.shape[0] else 0.0
        xm = x[m] if m < x.shape[0] else 0.0
        best = min(best, np.sqrt(sq - xm * xm + (xm - s) ** 2))
    return best


def _ref_dist_to_slab(x, A: AffineSlab) -> float:
    return float(np.linalg.norm(np.asarray(x, float).ravel() - A.project(x)))


def _point_form(A, d):
    return _CLOSED_FORMS[(type(A), d.fn.metric)]["point"]


POINT_TOL = 1e-12


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    axis_segments(dim), st.lists(st.lists(coords, min_size=dim, max_size=dim), max_size=20),
    st.lists(st.floats(0, 1), max_size=5))))
def test_axis_segment_point_form_matches_the_per_point_form(case):
    A, free, fractions = case
    # free points, the tips u_k e_k, and points t u_k e_k along the segments
    P = [np.array(x) for x in free]
    for k, (u, _) in A.extents.items():
        P += [A.point(k, u)] + [A.point(k, t * u) for t in fractions]
    P = np.array(P)
    d = _distance(A.dim)
    got = _point_form(A, d)(P, A)
    ref = np.array([_ref_dist_to_axis_segments(p, A) for p in P])
    np.testing.assert_allclose(got, ref, rtol=0, atol=POINT_TOL)
    assert np.all(got[len(free):] == 0.0)
    if A.dim == 1:  # absolute() measures 1-D points given one per entry
        np.testing.assert_allclose(_point_form(A, d)(P[:, 0], A), ref, rtol=0, atol=POINT_TOL)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda dim: st.tuples(
    st.lists(coords, min_size=dim, max_size=dim),
    st.lists(st.lists(coords, min_size=dim, max_size=dim), max_size=dim),
    st.lists(st.lists(coords, min_size=dim, max_size=dim), max_size=20),
    st.lists(st.lists(coords, min_size=dim, max_size=dim), max_size=5))))
def test_slab_point_form_matches_the_per_point_form(case):
    p, columns, free, coefficients = (np.array(v, dtype=float) for v in case)
    dim = len(p)
    K = columns.T if len(columns) else np.zeros((dim, 0))
    if K.shape[1] and np.linalg.matrix_rank(K) < K.shape[1]:
        K = np.zeros((dim, 0))
    A = AffineSlab(p, K)
    # free points, then p and points p + K u of the slab itself
    coefficients = coefficients.reshape(-1, dim)[:, :A.kernel_basis.shape[1]]
    P = np.vstack([free.reshape(-1, dim), p, p + coefficients @ A.kernel_basis.T])
    d = _distance(dim)
    got = _point_form(A, d)(P, A)
    ref = np.array([_ref_dist_to_slab(x, A) for x in P])
    np.testing.assert_allclose(got, ref, rtol=0, atol=POINT_TOL)
    assert np.all(got[len(free):] <= POINT_TOL)
