import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.distances import absolute, euclidean
from optstab.gauges import GaugeSet
from optstab.instances import norm_objective, random_rank_deficient_matrix
from optstab.linear import (BOX_SCALE, EGI, TOL_HOFFMAN, affine_family, check_gauge_subadditivity,
                            decompose, example_mixed_constraints,
                            example_whole_space, hoffman_check,
                            kernel_projector_identity_residual,
                            load_matrix_txt,
                            penrose_residuals, pseudo_inverse,
                            restricted_inverse_egi, sampled_worst_ratio,
                            save_matrix_txt)
from optstab.optima import Lipschitz, ObjectiveFn, inf_over
from optstab.sets import AffineSlab, hausdorff


def test_decompose_diag():
    lm = decompose(np.diag([2.0, 0.0]))
    assert lm.rank == 1
    assert abs(lm.kernel_basis[:, 0]) == pytest.approx([0.0, 1.0])
    assert abs(lm.range_basis[:, 0]) == pytest.approx([1.0, 0.0])


def test_decompose_row():
    lm = decompose([[1.0, 0.0]])
    assert lm.rank == 1
    assert abs(lm.kernel_basis[:, 0]) == pytest.approx([0.0, 1.0])


def test_decompose_known_rank_product():
    rng = np.random.default_rng(0)
    L = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 6))
    assert decompose(L).rank == 3


def test_decompose_rejects_nonfinite():
    with pytest.raises(ValueError):
        decompose([[1.0, np.inf]])


def test_decompose_basis_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        L = random_rank_deficient_matrix(rng)
        lm = decompose(L)
        if lm.kernel_basis.shape[1] > 0:
            assert np.linalg.norm(L @ lm.kernel_basis) <= lm.tol_lin * 10
        for j in range(lm.rank):
            assert np.allclose(L @ lm.preimages[:, j], lm.range_basis[:, j],
                               atol=lm.tol_lin * 10)


def test_pseudo_inverse_diag():
    lm = decompose(np.diag([2.0, 0.0]))
    E = pseudo_inverse(lm)
    assert np.allclose(lm.pinv, np.diag([0.5, 0.0]))
    assert E([4.0, 0.0]) == pytest.approx([2.0, 0.0])


def test_pseudo_inverse_row():
    E = pseudo_inverse(decompose([[1.0, 0.0]]))
    assert E([3.0]) == pytest.approx([3.0, 0.0])


def test_penrose_identities_random():
    rng = np.random.default_rng(2)
    for _ in range(60):
        L = random_rank_deficient_matrix(rng)
        lm = decompose(L)
        tol = 1e-9 * (1.0 + float(np.linalg.norm(L)))
        assert all(v < tol for v in penrose_residuals(lm).values())
        assert kernel_projector_identity_residual(lm) < tol


def test_egi_defining_property_both_kinds():
    rng = np.random.default_rng(3)
    for _ in range(20):
        L = random_rank_deficient_matrix(rng, max_dim=6)
        lm = decompose(L)
        if lm.rank == 0:
            continue
        egis = [pseudo_inverse(lm),
                restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, L.shape[1]),
                                       GaugeSet.from_ball(1.0, L.shape[0]),
                                       rng=rng, n_eta_samples=100)]
        for E in egis:
            for _ in range(10):
                t = L @ rng.standard_normal(L.shape[1])
                assert np.linalg.norm(L @ E(t) - t) < 1e-9 * (1 + np.linalg.norm(t))


def test_egi_rejects_out_of_range():
    E = pseudo_inverse(decompose([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        E([0.0, 1.0])


def test_restricted_inverse_certificate_row():
    lm = decompose([[1.0, 0.0]])
    E = restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, 2),
                               GaugeSet.from_ball(1.0, 1))
    assert E.lipschitz_cert["kappa"] == 1.0
    assert E.lipschitz_cert["mode"] == "exact-ball"
    assert E.constant >= 1.0 - 1e-12  # true Lipschitz constant is 1
    assert E([3.0]) == pytest.approx([3.0, 0.0])


def test_restricted_inverse_certificate_identity():
    lm = decompose(np.eye(2))
    E = restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, 2),
                               GaugeSet.from_ball(1.0, 2))
    assert E.constant >= 1.0 - 1e-12
    rng = np.random.default_rng(5)
    assert sampled_worst_ratio(E, GaugeSet.from_ball(1.0, 2),
                               GaugeSet.from_ball(1.0, 2), rng, 500) <= E.constant


def test_restricted_inverse_star_body_gauge():
    def s_y(y):
        y = np.abs(np.asarray(y, float))
        return float((y[0] * y[1] * y[2]) ** (1 / 3)
                     + (y[1] ** 2 * y[2] ** 3) ** 0.2
                     + math.sqrt(abs(y[2] ** 2 - y[0] ** 2))
                     + (math.sqrt(y[0]) + math.sqrt(y[1]) + math.sqrt(y[2])) ** 2)

    rng = np.random.default_rng(6)
    lm = decompose(np.eye(3))
    E = restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, 3), s_y,
                               rng=rng, n_eta_samples=5000)
    assert np.isfinite(E.constant)
    assert E.lipschitz_cert["mode"] == "sampled-inflated"
    ratio = sampled_worst_ratio(E, GaugeSet.from_ball(1.0, 3), s_y, rng, 10_000)
    assert E.constant >= ratio


def test_restricted_inverse_rejects_vanishing_gauge():
    lm = decompose(np.eye(2))
    with pytest.raises(ValueError):
        restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, 2),
                               lambda y: 0.0)


def test_rank_zero_map():
    # the range is {0}: the only parameter pair is (0, 0), both sets are R^3
    lm = decompose(np.zeros((2, 3)))
    E = pseudo_inverse(lm)
    rep = hoffman_check(affine_family(lm, E), E, GaugeSet.from_ball(1.0, 2),
                        [(np.zeros(2), np.zeros(2))])
    row, = rep.rows
    assert row["D_H"] == 0.0 and row["bound"] == TOL_HOFFMAN and row["verdict"] == "pass"
    with pytest.raises(ValueError, match="range"):
        restricted_inverse_egi(lm, GaugeSet.from_ball(1.0, 3), GaugeSet.from_ball(1.0, 2))


def test_gauge_subadditivity_spot_check():
    rng = np.random.default_rng(7)
    pairs = [(rng.uniform(-2, 2), rng.standard_normal(2),
              rng.uniform(-2, 2), rng.standard_normal(2)) for _ in range(50)]
    assert check_gauge_subadditivity(GaugeSet.from_ball(1.0, 2), 1.0, pairs)


def test_hoffman_row_tight():
    lm = decompose([[1.0, 0.0]])
    E = pseudo_inverse(lm)
    fam = affine_family(lm, E)
    rep = hoffman_check(fam, E, lambda y: float(np.linalg.norm(y)),
                        [([0.0], [1.0]), ([2.0], [2.0])])
    assert rep.passed
    # parallel-lines distance equals the bound exactly: tight to 1e-9
    assert rep.rows[0]["D_H"] == pytest.approx(1.0, abs=1e-9)
    assert rep.rows[0]["slack"] == pytest.approx(0.0, abs=1e-8)
    assert rep.rows[1]["D_H"] == 0.0


def test_hoffman_random_triples():
    rng = np.random.default_rng(8)
    for _ in range(25):
        L = random_rank_deficient_matrix(rng, max_dim=5)
        lm = decompose(L)
        if lm.rank == 0:
            continue
        E = pseudo_inverse(lm)
        fam = affine_family(lm, E)
        s = L @ rng.standard_normal(L.shape[1])
        t = L @ rng.standard_normal(L.shape[1])
        rep = hoffman_check(fam, E, lambda y: float(np.linalg.norm(y)),
                            [(s, t)], rng=rng)
        assert rep.passed, rep.rows


def test_hoffman_sampled_dh_matches_projection_formula():
    """Sampled D_H between parallel slabs agrees with the analytic distance
    (the kernel-complement component of the particular-solution shift)."""
    rng = np.random.default_rng(9)
    L = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    lm = decompose(L)
    E = pseudo_inverse(lm)
    fam = affine_family(lm, E)
    s = L @ rng.standard_normal(3)
    t = L @ rng.standard_normal(3)
    from optstab.sets import hausdorff
    dh = hausdorff(euclidean(3), fam.member(s), fam.member(t)).value
    analytic = float(np.linalg.norm(lm.pinv @ (s - t)))
    assert dh == pytest.approx(analytic, rel=1e-9)


def test_hoffman_nu_generalized_mode():
    lm = decompose([[1.0]])
    E = pseudo_inverse(lm)
    fam = affine_family(lm, E)
    nu = lambda s, t: 2.0 * math.sqrt(abs(float(s[0]) - float(t[0])))
    pairs = [([0.0], [x]) for x in (0.04, 0.25, 1.0)]
    rep = hoffman_check(fam, E, lambda y: float(np.linalg.norm(y)), pairs, nu=nu)
    assert rep.passed  # |s-t| <= 2 sqrt|s-t| on [0, 1]


def test_hoffman_translation_check_fails_on_a_wrong_shift():
    # the family's members sit at pinv t, the checked EGI claims 2 pinv t:
    # x - apply(t) leaves the kernel, however generous the bound is
    lm = decompose([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]])
    fam = affine_family(lm)
    bad = EGI(kind="pseudo_inverse", linmap=lm, apply=lambda t: 2.0 * lm.pinv @ t,
              lipschitz_cert=dict(constant=1e6))
    rep = hoffman_check(fam, bad, lambda y: float(np.linalg.norm(y)),
                        [([0.0, 0.0], [1.0, -2.0]), ([0.0, 0.0], [0.0, 0.0])],
                        rng=np.random.default_rng(3))
    wrong, zero = rep.rows
    assert wrong["slack"] > 0
    assert wrong["translation_ok"] is False and wrong["verdict"] == "fail"
    assert zero["translation_ok"] is True and zero["verdict"] == "pass"
    assert not rep.passed


def test_hoffman_rejects_out_of_range():
    lm = decompose([[1.0, 0.0], [0.0, 0.0]])
    E = pseudo_inverse(lm)
    fam = affine_family(lm, E)
    with pytest.raises(ValueError):
        fam.member([0.0, 1.0])


def test_example_whole_space():
    f = norm_objective(2)
    rep = example_whole_space(f, [[1.0, 0.0]],
                              GaugeSet.from_ball(1.0, 2),
                              GaugeSet.from_ball(1.0, 1),
                              probe_params=[[t] for t in
                                            np.linspace(-1, 1, 21)],
                              pair_params=[([float(a)], [float(b)])
                                           for a, b in
                                           np.random.default_rng(10).uniform(
                                               -3, 3, (30, 2))])
    assert rep["passed"]
    assert rep["constant"] == pytest.approx(1.0)


def test_example_whole_space_asymmetric_conjugate():
    f = norm_objective(2)
    s_t = lambda t: float(max(t[0], -2.0 * t[0]))  # conjugate is 2-Lipschitz
    rep = example_whole_space(f, [[1.0, 0.0]],
                              GaugeSet.from_ball(1.0, 2), s_t,
                              conj_beta=2.0,
                              probe_params=[[t] for t in
                                            np.linspace(-1, 1, 11)],
                              pair_params=[([0.0], [1.0]), ([-1.0], [0.5])])
    assert rep["constant"] == pytest.approx(2.0)
    assert rep["passed"]


def test_example_whole_space_refuses_unbounded_below():
    f = ObjectiveFn(fn=lambda x: float(x[0]), regularity=Lipschitz(1.0),
                    bounded_below=False, name="x1")
    with pytest.raises(ValueError):
        example_whole_space(f, [[1.0, 0.0]], GaugeSet.from_ball(1.0, 2),
                            GaugeSet.from_ball(1.0, 1), [], [])


def test_example_mixed_constraints_box():
    C = GaugeSet.from_halfspaces(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [1.0, 1.0, 1.0, 1.0])
    f = ObjectiveFn(fn=lambda x: float(x[1]) ** 2 + float(x[0]),
                    regularity=Lipschitz(3.0), bounded_below=True)
    probes = [[t] for t in np.linspace(-0.9, 0.9, 19)]
    rep = example_mixed_constraints(f, [[1.0, 0.0]], C, probes, s0=[0.0],
                                    budget=512, rng=np.random.default_rng(11))
    assert rep["passed"]
    assert rep["interval_open"] and rep["interval_convex"]
    assert not rep["excluded"]


def test_example_mixed_constraints_excludes_outside():
    C = GaugeSet.from_halfspaces(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [1.0, 1.0, 1.0, 1.0])
    f = norm_objective(2)
    rep = example_mixed_constraints(f, [[1.0, 0.0]], C,
                                    [[0.5], [2.0]], s0=[0.0],
                                    budget=256,
                                    rng=np.random.default_rng(12))
    assert any(abs(t[0] - 2.0) < 1e-12 for t, _ in rep["excluded"])


def test_matrix_txt_roundtrip(tmp_path):
    M = np.array([[1.0, 2.5], [3.0, -4.0]])
    p = tmp_path / "m.csv"
    save_matrix_txt(M, p)
    assert np.allclose(load_matrix_txt(p), M)


def test_certificate_export(tmp_path):
    E = restricted_inverse_egi(decompose([[1.0, 0.0]]),
                               GaugeSet.from_ball(1.0, 2),
                               GaugeSet.from_ball(1.0, 1))
    p = tmp_path / "cert.json"
    E.cert_to_json(p)
    import json
    doc = json.loads(p.read_text())
    assert {"kappa", "tau", "eta", "sigma", "constant", "mode"} <= set(doc)


# ---------------------------------------------------------------------------
# affine families: members share one orthonormalized kernel basis
# ---------------------------------------------------------------------------

def _ref_member(fam, t):
    # each member orthonormalizes the kernel basis afresh
    particular = fam.egi.apply(np.asarray(t, dtype=float).ravel())
    half = BOX_SCALE * (1.0 + float(np.linalg.norm(particular)))
    return AffineSlab(particular, fam.linmap.kernel_basis, box_halfwidth=half)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_members_equal_freshly_built_slabs(seed):
    rng = np.random.default_rng(seed)
    L = random_rank_deficient_matrix(rng, max_dim=5)
    lm = decompose(L)
    fam = affine_family(lm)
    s, t = (L @ rng.standard_normal(L.shape[1]) for _ in range(2))
    A, B = fam.member(s), fam.member(t)
    A0, B0 = _ref_member(fam, s), _ref_member(fam, t)
    for new, ref in ((A, A0), (B, B0)):
        assert np.array_equal(new.kernel_basis, ref.kernel_basis)
        assert np.array_equal(new.particular, ref.particular)
        assert new.box_halfwidth == ref.box_halfwidth
    assert A.kernel_basis is B.kernel_basis
    d = euclidean(L.shape[1])
    for budget in (64, 1):
        assert (hausdorff(d, A, B, budget=budget, rng=np.random.default_rng(seed))
                == hausdorff(d, A0, B0, budget=budget, rng=np.random.default_rng(seed)))
    exact = norm_objective(L.shape[1])
    sampled = ObjectiveFn(fn=lambda x: float(np.linalg.norm(x)))
    for f in (exact, sampled):
        new = inf_over(f, A, budget=64, rng=np.random.default_rng(seed))
        ref = inf_over(f, A0, budget=64, rng=np.random.default_rng(seed))
        assert new.value == ref.value and new.mode == ref.mode
        assert np.array_equal(new.witness, ref.witness)


def test_translated_slab_keeps_the_basis_and_checks_the_dim():
    A = AffineSlab([0.0, 0.0, 0.0], [[1.0], [1.0], [0.0]])
    B = A.translated([1.0, 2.0, 3.0], box_halfwidth=5.0)
    assert B.kernel_basis is A.kernel_basis
    assert B.particular.tolist() == [1.0, 2.0, 3.0] and B.box_halfwidth == 5.0
    with pytest.raises(ValueError, match="dim"):
        A.translated([1.0, 2.0], box_halfwidth=5.0)


def _with_own_basis(S: AffineSlab) -> AffineSlab:
    # the same slab, its basis copied into an array of its own
    T = S.translated(S.particular, S.box_halfwidth)
    object.__setattr__(T, "kernel_basis", S.kernel_basis.copy())
    return T


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_members_sharing_a_basis_skip_only_the_parallel_test(seed):
    # the shared basis skips the parallel test; copies of it take the full
    # test, which passes, and both give the same bits
    rng = np.random.default_rng(seed)
    L = random_rank_deficient_matrix(rng, max_dim=6)
    fam = affine_family(L)
    s, t = (L @ rng.standard_normal(L.shape[1]) for _ in range(2))
    A, B = fam.member(s), fam.member(t)
    A1, B1 = _with_own_basis(A), _with_own_basis(B)
    assert A.kernel_basis is B.kernel_basis and A1.kernel_basis is not B1.kernel_basis
    d = euclidean(L.shape[1])
    shared, copied = hausdorff(d, A, B, budget=8), hausdorff(d, A1, B1, budget=8)
    assert shared.mode == copied.mode == "exact"
    assert shared.value.hex() == copied.value.hex()


def test_members_of_families_with_other_kernels_fall_back_to_sampling():
    F, G = affine_family([[1.0, 0.0, 0.0]]), affine_family([[0.0, 0.0, 1.0]])
    A, B = F.member([1.0]), G.member([2.0])
    assert A.kernel_basis.shape == B.kernel_basis.shape == (3, 2)
    rep = hausdorff(euclidean(3), A, B, budget=32, rng=np.random.default_rng(0))
    assert rep.mode == "sampled"
