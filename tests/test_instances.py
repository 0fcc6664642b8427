import math

import numpy as np
import pytest

from optstab.extreal import INF
from optstab.instances import (CatalogError, build, catalog_names, describe,
                               norm_objective, segment_sine_objective, axis_segment_family)
from optstab.optima import inf_over, sup_over
from optstab.sets import AffineSlab, AxisSegments, hausdorff


def test_catalog_lists_all_names():
    names = catalog_names()
    assert set(names) == {"ce33", "ce34", "minset_sin", "gauge_segment",
                          "affine_whole", "mixed_box", "disk_polygon",
                          "quartic_ladder", "energy_ladder"}


def test_every_entry_builds_and_self_tests():
    for name in catalog_names():
        entry = build(name)
        # one table names the entry and gives the text `optstab describe` prints
        assert entry.name == name and entry.description == describe(name) != ""
        entry.self_test()  # idempotent


def test_unknown_name_rejected():
    with pytest.raises(CatalogError):
        build("nonsense")
    with pytest.raises(CatalogError):
        describe("nonsense")


def test_ce33_goldens_across_j():
    for j in (2, 10, 50):
        entry = build("ce33", K=60, j=j)
        g = dict((q, a) for q, _, a in entry.goldens)
        assert g["INF_f(A_j)"] == -1.0
        assert g["SUP_f(A_j)"] == 1.0
        assert g["INF_f(A)"] == 0.0 and g["SUP_f(A)"] == 0.0
        assert abs(g["D_H(A, A_j)"] - 1.0 / j) < 1e-12


def test_ce34_goldens_across_j():
    for j in (2, 7, 50):
        entry = build("ce34", K=60, j=j)
        g = dict((q, a) for q, _, a in entry.goldens)
        assert g["INF_f(A_j)"] == -1.0
        assert g["SUP_f(A_j)"] == 1.0
        assert g["INF_f(A)"] == 0.0 and g["SUP_f(A)"] == 0.0
        assert abs(g["D_H(A, A_j)"] - 1.0 / j) < 1e-12


def test_ce34_hausdorff_monotone_to_zero():
    K = 60
    d = build("ce34").objects["distance"]
    A = axis_segment_family(K)
    prev = INF
    for j in range(2, 51):
        dh = hausdorff(d, A, axis_segment_family(K, extended_j=j)).value
        assert dh < prev
        prev = dh
    assert prev == pytest.approx(1.0 / 50.0, abs=1e-12)


def test_ce34_objective_pointwise():
    K = 10
    f = segment_sine_objective(K)
    e2 = np.zeros(K)
    e2[1] = 1.0
    assert f(0.5 * e2) == 0.0
    assert f(e2) == 0.0
    # on the extended part of axis k=2: g(t) = sin(2*pi/(1.5 - t))
    x = 1.25 * e2
    assert f(x) == pytest.approx(math.sin(2 * math.pi / 0.25))
    with pytest.raises(ValueError):
        f(np.ones(K))  # not on an axis


def test_ce34_witnesses_attain_extremes():
    K = 12
    j = 5
    f = segment_sine_objective(K)
    c = 1.0 + 1.0 / j
    t_sup = c - 4.0 / (4.0 * j + 1.0)
    t_inf = c - 4.0 / (4.0 * j + 3.0)
    x = np.zeros(K)
    x[j - 1] = t_sup
    assert f(x) == pytest.approx(1.0, abs=1e-12)
    x[j - 1] = t_inf
    assert f(x) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("extents", [
    {1: (1.5, False)},                          # the open tip of axis 2
    {0: (1.0, True), 2: (4.0 / 3.0, False)},
    {1: (1.2, True)},
    {1: (1.2, False)},
    {0: (0.5, True), 3: (1.1, False)},
    {0: (1.01, True)},                          # no stationary point before u
    {2: (1.02, False)},                         # the sup is the open end's limit
], ids=["tip", "unit-and-tip", "closed", "open", "short-and-open", "rising-closed",
        "rising-open"])
def test_segment_sine_hooks_match_a_dense_grid(extents):
    K = 4
    f = segment_sine_objective(K)
    A = AxisSegments(extents, dim=K)
    sup, inf = sup_over(f, A), inf_over(f, A)
    assert sup.mode == inf.mode == "exact"
    values = []
    for k0, (u, closed) in extents.items():
        c = 1.0 + 1.0 / (k0 + 1)
        # a uniform grid, and points at 1e-1 ... 1e-13 below the end
        t = np.concatenate([np.linspace(0.0, u, 2_000_001), u - np.logspace(-1, -13, 300)])
        t = t[(t >= 0.0) & ((t <= u) if closed else (t < u))]
        g = np.where(t <= 1.0, 0.0, np.sin(2.0 * np.pi / (c - t)))
        for i in range(0, len(t), len(t) // 40):
            x = np.zeros(K)
            x[k0] = t[i]
            assert f.fn(x) == pytest.approx(g[i], abs=1e-9)
        values.append(g)
    values = np.concatenate(values)
    assert sup.value - 1e-6 <= values.max() <= sup.value + 1e-12
    assert inf.value - 1e-12 <= values.min() <= inf.value + 1e-6


@pytest.mark.parametrize("p, K", [
    ([3.0, 4.0], np.zeros((2, 0))),
    ([1.0, 2.0, 2.0], [[1.0], [1.0], [0.0]]),
    ([1.0, -2.0, 0.5], [[1.0, 0.0], [1.0, 1.0], [0.0, 2.0]]),
], ids=["point", "line", "plane"])
def test_norm_objective_hooks_match_brute_force(p, K):
    f = norm_objective(len(p))
    A = AffineSlab(p, K)
    K = np.asarray(K, dtype=float).reshape(len(p), -1)
    sup, inf = sup_over(f, A), inf_over(f, A)
    assert sup.mode == inf.mode == "exact"
    if K.shape[1] == 0:
        assert sup.value == inf.value == 5.0
        return
    # the slab's points over a grid of coefficients (the nearest one lies inside)
    axis = np.linspace(-4.0, 4.0, 801 if K.shape[1] == 1 else 401)
    coeffs = np.stack(np.meshgrid(*[axis] * K.shape[1]), axis=-1).reshape(-1, K.shape[1])
    norms = np.linalg.norm(np.asarray(p) + coeffs @ K.T, axis=1)
    assert inf.value - 1e-12 <= norms.min() <= inf.value + 1e-3
    assert sup.value == INF
    far = [np.linalg.norm(np.asarray(p) + r * K[:, 0]) for r in (1e2, 1e4, 1e6)]
    assert far[0] < far[1] < far[2] and far[2] > 1e5


def test_gauge_segment_goldens():
    entry = build("gauge_segment")
    g = dict((q, a) for q, _, a in entry.goldens)
    assert g["M_C((3,0))"] == pytest.approx(3.0, abs=1e-10)
    assert g["M_C((-4,0))"] == pytest.approx(2.0, abs=1e-10)
    assert g["M_C((1,1))"] == INF


def test_disk_polygon_golden_values():
    entry = build("disk_polygon", m_seq=(3, 4, 64))
    for (q, expected, actual), m in zip(entry.goldens, (3, 4, 64)):
        assert expected == pytest.approx(2.0 - math.cos(math.pi / m))
        assert abs(actual - expected) < 1e-12


def test_energy_ladder_golden():
    entry = build("energy_ladder")
    g = dict((q, a) for q, _, a in entry.goldens)
    assert g["d(1, 2)"] == pytest.approx(10.2)
    assert g["d(2, 1)"] == pytest.approx(-10.2)
    assert g["D_H({2}, {1})"] == pytest.approx(10.2)


def test_self_test_detects_corruption():
    entry = build("gauge_segment")
    entry.goldens.append(("bogus", 1.0, 2.0))
    with pytest.raises(AssertionError):
        entry.self_test()
