import json
import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from optstab.distances import absolute, energy_ladder, euclidean
from optstab.extreal import INF
from optstab.instances import segment_sine_objective
from optstab.optima import LinearPiece, piecewise_linear_objective, sup_over
from optstab.sets import (AffineSlab, AxisSegments, DistanceReport,
                          FiniteCloud, ImplicitSampled, Interval, IntervalUnion,
                          asym_hausdorff, hausdorff, load_set,
                          point_set_distance, save_set)


def _cloud_hausdorff_oracle(P, Q):
    """Independent symmetric Hausdorff for point clouds via the full
    pairwise distance matrix."""
    D = cdist(np.atleast_2d(P), np.atleast_2d(Q))
    return max(D.min(axis=1).max(), D.min(axis=0).max())


def test_finite_cloud_hausdorff_matches_cdist_oracle():
    rng = np.random.default_rng(0)
    d = euclidean(3)
    for _ in range(25):
        P = rng.standard_normal((rng.integers(1, 20), 3))
        Q = rng.standard_normal((rng.integers(1, 20), 3))
        got = hausdorff(d, FiniteCloud(P), FiniteCloud(Q))
        assert got.mode == "exact"
        assert got.value == pytest.approx(_cloud_hausdorff_oracle(P, Q))


def test_asym_hausdorff_is_one_sided():
    d = absolute()
    A = FiniteCloud([0.0])
    B = FiniteCloud([0.0, 10.0])
    assert asym_hausdorff(d, A, B).value == 0.0
    assert asym_hausdorff(d, B, A).value == 10.0
    assert hausdorff(d, A, B).value == 10.0


def test_point_set_distance_orientation():
    d = energy_ladder()  # asymmetric signed distance
    A = FiniteCloud([1.0, 2.0])
    from_point = point_set_distance(d, 3.0, A, orientation="from_point")
    to_point = point_set_distance(d, 3.0, A, orientation="to_point")
    # from 3: inf over a of d(3, a) = min(E(1)-E(3), E(2)-E(3)) = E(1)-E(3)
    assert from_point.value == pytest.approx(-13.6 + 13.6 / 9)
    assert to_point.value == pytest.approx(min(13.6 - 13.6 / 9, 3.4 - 13.6 / 9))


def test_interval_union_distance_brute_force():
    d = absolute()
    A = IntervalUnion([Interval(0.0, 1.0), Interval(3.0, 4.0)])
    B = IntervalUnion([Interval(1.5, 2.0)])
    # brute-force oracle on a fine grid
    ga = np.arange(0.0, 4.0001, 1e-4)
    ga = ga[[(0 <= x <= 1) or (3 <= x <= 4) for x in ga]]
    gb = np.arange(1.5, 2.0001, 1e-4)
    oracle = max(np.min(np.abs(ga[:, None] - gb[None, :]), axis=1).max(),
                 np.min(np.abs(gb[:, None] - ga[None, :]), axis=1).max())
    got = hausdorff(d, A, B)
    assert got.mode == "exact"
    assert got.value == pytest.approx(oracle, abs=1e-3)


def test_interval_union_overlap_gives_zero_gap():
    d = absolute()
    A = IntervalUnion([Interval(0.0, 2.0)])
    B = IntervalUnion([Interval(1.0, 3.0)])
    # a point of the overlap lies in both sets
    assert point_set_distance(d, 1.5, A).value == point_set_distance(d, 1.5, B).value == 0.0
    assert hausdorff(d, A, B).value == pytest.approx(1.0)


def test_interval_union_rejects_overlapping_members():
    with pytest.raises(ValueError):
        IntervalUnion([Interval(0.0, 2.0), Interval(1.0, 3.0)])


@pytest.mark.parametrize("closed_lo, closed_hi", [(False, True), (True, False), (False, False)],
                         ids=["(1, 1]", "[1, 1)", "(1, 1)"])
def test_a_point_interval_with_an_open_end_is_refused(closed_lo, closed_hi):
    # the closed point [1, 1] has sup 1.0; with an open end the empty set once
    # got that value too, labelled "exact"
    f = piecewise_linear_objective([LinearPiece(0.0, 2.0, 1.0, 0.0)])
    assert sup_over(f, IntervalUnion([Interval(1.0, 1.0)])).value == 1.0
    with pytest.raises(ValueError, match=r"interval [\[(]1.0, 1.0[\])] is empty"):
        Interval(1.0, 1.0, closed_lo, closed_hi)
    with pytest.raises(ValueError, match="is empty"):
        IntervalUnion([(1.0, 1.0, closed_lo, closed_hi), (2.0, 3.0)])


def test_axis_segments_of_only_empty_segments_are_refused():
    # every [0, 0) is empty; the model once gave sup 0.0 with mode "exact"
    with pytest.raises(ValueError, match=r"empty \[0, 0\)"):
        AxisSegments({0: (0.0, False), 1: (0.0, False)}, dim=2)
    # one closed segment beside an empty one holds the origin
    A = AxisSegments({0: (0.0, False), 1: (0.0, True)}, dim=2)
    got = sup_over(segment_sine_objective(2), A)
    assert (got.value, got.mode) == (0.0, "exact")


@pytest.mark.parametrize("args, message", [
    # hausdorff(euclidean(2), ., line) read DistanceReport(nan, "exact")
    (([math.nan, 0.0], [[1.0], [0.0]]), "particular point must be finite"),
    # _orthonormal turned [[nan], [0]] into [[1], [-0]]: D_H read 1.0 "exact"
    (([0.0, 0.0], [[math.nan], [0.0]]), "kernel basis must be finite"),
    (([0.0, 0.0], [[1.0], [0.0]], math.nan), "half-width must not be NaN"),
], ids=["particular", "kernel", "box"])
def test_affine_slabs_refuse_nan(args, message, tmp_path):
    with pytest.raises(ValueError, match=message):
        AffineSlab(*args)
    doc = dict(zip(["particular", "kernel_basis", "box_halfwidth"], args), kind="affine_slab")
    doc.setdefault("box_halfwidth", 1e3)
    (tmp_path / "slab.json").write_text(json.dumps(doc))   # NaN is written as the literal NaN
    with pytest.raises(ValueError, match=message):
        load_set(tmp_path / "slab.json")


def test_axis_segments_refuse_a_nan_extent():
    # NaN passed the old check u < 0: D_H read 0.0 and sup 0.0, both "exact"
    with pytest.raises(ValueError, match="nonnegative"):
        AxisSegments({0: (math.nan, True)}, dim=2)
    with pytest.raises(ValueError, match="nonnegative"):
        AxisSegments({0: (1.0, True), 1: (math.nan, False)})
    B = AxisSegments({0: (1.0, True)}, dim=2)
    assert hausdorff(euclidean(2), B, B) == DistanceReport(0.0, "exact")


def test_axis_segments_exact_vs_sampled():
    d = euclidean(4)
    A = AxisSegments({0: (1.0, True), 1: (1.0, True), 2: (1.0, True)}, dim=4)
    B = AxisSegments({0: (1.5, True), 1: (1.0, True), 2: (1.0, True)}, dim=4)
    got = hausdorff(d, A, B)
    assert got.mode == "exact"
    assert got.value == pytest.approx(0.5)
    # brute oracle: densely sample both unions of segments
    ts = np.linspace(0, 1, 2001)
    pa = np.zeros((3 * len(ts), 4))
    pb = np.zeros((3 * len(ts), 4))
    for k in range(3):
        pa[k * len(ts):(k + 1) * len(ts), k] = ts
        pb[k * len(ts):(k + 1) * len(ts), k] = ts * (1.5 if k == 0 else 1.0)
    assert got.value == pytest.approx(_cloud_hausdorff_oracle(pa, pb), abs=1e-3)


def test_axis_segments_half_open_uses_closure():
    d = euclidean(3)
    A = AxisSegments({0: (1.0, True)}, dim=3)
    B = AxisSegments({0: (1.5, False)}, dim=3)  # half-open tip
    assert hausdorff(d, A, B).value == pytest.approx(0.5)


def test_affine_slab_parallel_distance():
    d = euclidean(2)
    A = AffineSlab([0.0, 0.0], [[0.0], [1.0]])  # the x2-axis
    B = AffineSlab([3.0, 7.0], [[0.0], [1.0]])  # vertical line x1 = 3
    got = hausdorff(d, A, B)
    assert got.mode == "exact"
    assert got.value == pytest.approx(3.0)


def test_affine_slab_projection():
    A = AffineSlab([1.0, 0.0], [[0.0], [1.0]])
    p = A.project([5.0, 2.0])
    assert p == pytest.approx([1.0, 2.0])


@pytest.mark.parametrize("particular, basis, rows", [
    ([0.0, 0.0, 0.0], [[1.0, 2.0, 3.0]], 1),
    ([0.0, 0.0, 0.0], [1.0, 2.0], 2),
    ([0.0, 0.0], [[1.0], [0.0], [0.0]], 3),
])
def test_affine_slab_refuses_a_basis_of_another_dim(particular, basis, rows):
    # a 1-D basis is one column; the check runs after that promotion
    with pytest.raises(ValueError, match=f"{rows} rows.*dim {len(particular)}"):
        AffineSlab(particular, basis)
    assert AffineSlab([0.0, 0.0], [1.0, 2.0]).kernel_basis.shape == (2, 1)


def test_point_to_affine_slab_is_exact_projection():
    d = euclidean(3)
    A = AffineSlab(np.zeros(3), np.eye(3)[:, :2], box_halfwidth=5.0)
    rep = point_set_distance(d, np.array([1.0, 2.0, 3.0]), A)
    assert rep.mode == "exact"
    assert rep.value == pytest.approx(3.0)  # the component off the plane


def test_sampled_distance_monotone_in_budget():
    d = euclidean(2)
    A = ImplicitSampled(
        member=lambda x: bool(np.linalg.norm(x) <= 1.0),
        sampler=lambda n, rg: rg.uniform(-1, 1, size=(n, 2)),
        dim=2, witness=[0.0, 0.0])
    x = np.array([3.0, 0.0])
    prev = INF
    for budget in (16, 64, 256, 1024):
        rep = point_set_distance(d, x, A, budget=budget,
                                 rng=np.random.default_rng(7))
        assert rep.mode == "sampled"
        assert rep.value <= prev + 1e-12
        prev = rep.value
    assert prev == pytest.approx(2.0, abs=0.05)


def _counted_disk(center, calls):
    center = np.asarray(center, float)

    def member(x):
        calls[0] += 1
        return bool(np.linalg.norm(x - center) <= 1.0)
    A = ImplicitSampled(member=member, dim=2, witness=center,
                        sampler=lambda n, rg: center + rg.uniform(-1, 1, size=(n, 2)))
    calls[0] = 0
    return A


def test_hausdorff_samples_each_set_once():
    # before, each direction drew both sets: D_H(A, A) was 0.17 at budget
    # 256, and each oracle ran 2 * budget times
    d, budget = euclidean(2), 256
    calls_a, calls_b = [0], [0]
    A = _counted_disk([0.0, 0.0], calls_a)
    B = _counted_disk([0.5, 0.0], calls_b)
    same = hausdorff(d, A, A, budget=budget, rng=np.random.default_rng(1))
    assert same.mode == "sampled" and same.value == 0.0
    assert calls_a == [budget]
    calls_a[0] = 0
    for C in (FiniteCloud([[3.0, 0.0]]), AxisSegments({0: (1.0, True)}, dim=2), B):
        hausdorff(d, A, C, budget=budget, rng=np.random.default_rng(1))
        assert calls_a == [budget]
        calls_a[0] = 0
    assert calls_b == [budget]


def _levels(lo, hi):
    return ImplicitSampled(member=lambda x: lo <= x[0] <= hi, dim=1, witness=[float(lo)],
                           sampler=lambda n, rg: rg.integers(1, 12, size=(n, 1)).astype(float))


@pytest.mark.parametrize("path", ["cloud-sampled", "sampled-sampled"])
def test_energy_ladder_hausdorff_matches_brute_force(path):
    # before, a sampled set of levels raised TypeError: its points are rows
    d, budget = energy_ladder(), 40
    A = FiniteCloud([2.0, 5.0, 9.0]) if path == "cloud-sampled" else _levels(1, 4)
    B = _levels(3, 7)
    energy = lambda n: -13.6 / n ** 2  # noqa: E731
    for seed in range(5):
        draws = np.random.default_rng(seed)
        a = A.points if path == "cloud-sampled" else A.sample(budget, draws)[:, 0]
        b = B.sample(budget, draws)[:, 0]
        fwd = (energy(b)[None, :] - energy(a)[:, None]).min(axis=1).max()
        bwd = (energy(a)[None, :] - energy(b)[:, None]).min(axis=1).max()
        out = hausdorff(d, A, B, budget=budget, rng=np.random.default_rng(seed))
        assert out.mode == "sampled" and out.value == max(fwd, bwd)
        one_sided = asym_hausdorff(d, A, B, budget=budget, rng=np.random.default_rng(seed))
        assert one_sided.value == fwd


def test_energy_levels_below_one_raise():
    with pytest.raises(ValueError, match="levels"):
        hausdorff(energy_ladder(), FiniteCloud([0.0, 2.0]), FiniteCloud([1.0]))


def test_distance_report_exact_requires_zero_error():
    with pytest.raises(ValueError):
        DistanceReport(value=1.0, mode="exact", sample_budget=0,
                       certified_error=0.5)


def test_empty_cloud_rejected():
    with pytest.raises(ValueError):
        FiniteCloud([])


def test_serialization_roundtrips(tmp_path):
    d = euclidean(2)
    models = [FiniteCloud([[0.0, 1.0], [2.0, 3.0]]),
              IntervalUnion([Interval(0.0, 1.0), Interval(2.0, 3.0)]),
              AxisSegments({0: (1.0, True), 1: (2.0, False)}, dim=2),
              AffineSlab([1.0, 0.0], [[0.0], [1.0]])]
    for i, m in enumerate(models):
        p = tmp_path / f"set{i}.json"
        save_set(m, p)
        m2 = load_set(p)
        assert type(m2) is type(m)
        if not isinstance(m, AxisSegments) or True:
            w = np.atleast_1d(m.witness())
            w2 = np.atleast_1d(m2.witness())
            assert w == pytest.approx(w2)
