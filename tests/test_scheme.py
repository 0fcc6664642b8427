import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.cli import main
from optstab.distances import euclidean
from optstab.instances import disk_polygon_scheme, target_distance_objective
from optstab.optima import (ContinuousOnly, LinearPiece, Lipschitz, ObjectiveFn,
                            UniformModulus, inf_over, piecewise_linear_objective)
from optstab.scheme import SchemeInstance, build_inner_polygon_family, run_scheme
from optstab.sets import FiniteCloud, IntervalUnion, hausdorff
from paper_examples import build_inner_grid_family
from piecewise_reference import piecewise_eval


def test_polygon_family_sagitta():
    levels, hs = build_inner_polygon_family([4])
    assert hs[0] == pytest.approx(1.0 - math.cos(math.pi / 4))
    assert hs[0] == pytest.approx(0.29289321881345254)


def test_polygon_family_h_monotone():
    _, hs = build_inner_polygon_family(range(3, 257))
    assert all(b < a for a, b in zip(hs, hs[1:]))


def test_polygon_family_rejects_small_m():
    with pytest.raises(ValueError):
        build_inner_polygon_family([2])


def test_polygon_certified_h_dominates_sampled_hausdorff():
    """The certified sagitta equals D_H(disk, filled polygon); the sampled
    estimate must agree with it up to the sampling dispersion (the inner
    nearest-sample distance overestimates by at most the dispersion, the
    outer sup underestimates by at most the dispersion)."""
    from optstab.sets import ImplicitSampled
    rng = np.random.default_rng(0)
    disk = ImplicitSampled(
        member=lambda x: bool(np.linalg.norm(x) <= 1.0),
        sampler=lambda n, rg: rg.uniform(-1, 1, size=(n, 2)),
        dim=2, witness=[0.0, 0.0])
    d = euclidean(2)
    for m in (3, 8, 16):
        # filled regular m-gon, edge midpoint on the +x axis
        normals = np.column_stack([np.cos(2 * np.pi * np.arange(m) / m),
                                   np.sin(2 * np.pi * np.arange(m) / m)])
        apo = math.cos(math.pi / m)
        poly = ImplicitSampled(
            member=lambda x, N=normals, a=apo: bool(np.all(N @ x <= a)),
            sampler=lambda n, rg: rg.uniform(-1, 1, size=(n, 2)),
            dim=2, witness=[0.0, 0.0])
        h = 1.0 - apo
        dh = hausdorff(d, disk, poly, budget=4000, rng=rng).value
        assert dh == pytest.approx(h, abs=0.05)


def test_disk_scheme_values_and_brackets():
    m_seq = list(range(3, 65))
    cert = run_scheme(disk_polygon_scheme(m_seq))
    for m, r in zip(m_seq, cert.rows):
        assert abs(r["sigma_k"] - (2.0 - math.cos(math.pi / m))) < 1e-12
        # tightness: the measured error equals the certified h exactly
        assert abs((r["sigma_k"] - 1.0) - r["h_k"]) < 1e-12
        assert r["bracket_lo"] <= 1.0 <= r["bracket_hi"]
    assert cert.contains(1.0)


def test_disk_scheme_vertex_orientation_still_sound():
    m_seq = [3, 5, 9]
    cert = run_scheme(disk_polygon_scheme(m_seq, orientation="vertex"))
    for m, r in zip(m_seq, cert.rows):
        assert r["bracket_lo"] <= 1.0 <= r["bracket_hi"]
        # vertex orientation changes sigma but stays within the budget
        assert abs(r["sigma_k"] - 1.0) <= r["h_k"] + 1e-12


def test_constant_levels_trivial():
    A = FiniteCloud([[0.0, 0.0], [1.0, 0.0]])
    f = target_distance_objective([2.0, 0.0])
    S = SchemeInstance(objective=f, levels=(A, A, A), h_bounds=(0.0, 0.0, 0.0))
    cert = run_scheme(S)
    sigmas = [r["sigma_k"] for r in cert.rows]
    assert max(sigmas) == min(sigmas) == 1.0
    assert all(r["budget_k"] == 0.0 for r in cert.rows)


def test_continuous_only_objective_refused():
    f = ObjectiveFn(fn=lambda x: 0.0, regularity=ContinuousOnly())
    S = SchemeInstance(objective=f, levels=(FiniteCloud([0.0]),), h_bounds=(0.1,))
    with pytest.raises(ValueError):
        run_scheme(S)


def test_inconsistent_h_bounds_detected():
    # claim h = 0 for a genuinely displaced surrogate: brackets cannot agree
    f = target_distance_objective([2.0, 0.0])
    A1 = FiniteCloud([[0.0, 0.0]])
    A2 = FiniteCloud([[1.0, 0.0]])
    S = SchemeInstance(objective=f, levels=(A1, A2), h_bounds=(0.0, 0.0))
    with pytest.raises(ValueError):
        run_scheme(S)


def test_h_bounds_must_be_nonincreasing():
    f = target_distance_objective([2.0, 0.0])
    A = FiniteCloud([[0.0, 0.0]])
    with pytest.raises(ValueError):
        SchemeInstance(objective=f, levels=(A, A), h_bounds=(0.1, 0.2))


def test_grid_family_convex_system():
    # A = {x in R^2 : ||x|| <= 1, x1 + x2 <= 0.5}, f(x) = x1, min = -1 at (-1, 0)
    A_hs = [[1.0, 1.0]]
    b_hs = [0.5]
    meshes = [0.25, 0.125, 0.0625]
    levels, hs = build_inner_grid_family(A_hs, b_hs, ball_radius=1.0,
                                         mesh_seq=meshes,
                                         interior_point=[-0.25, -0.25])
    assert all(b < a for a, b in zip(hs, hs[1:]))
    f = ObjectiveFn(fn=lambda x: float(x[0]), regularity=Lipschitz(1.0),
                    name="x1")
    S = SchemeInstance(objective=f, levels=levels, h_bounds=hs, inner=True)
    cert = run_scheme(S)
    assert cert.contains(-1.0)
    # brackets shrink as the mesh refines
    widths = [r["bracket_hi"] - r["bracket_lo"] for r in cert.rows]
    assert widths[-1] < widths[0]


def test_grid_family_mesh_halving_halves_h():
    levels, hs = build_inner_grid_family([[1.0, 1.0]], [0.5], 1.0,
                                         [0.2, 0.1], [-0.25, -0.25])
    assert hs[1] == pytest.approx(hs[0] / 2.0)


def test_grid_family_refine_first_error():
    # thin slab of width below the mesh: no interior grid point certified
    with pytest.raises(ValueError):
        build_inner_grid_family([[0.0, 1.0], [0.0, -1.0]], [0.01, 0.01],
                                ball_radius=1.0, mesh_seq=[0.25],
                                interior_point=[0.0, 0.0])


def test_certificate_table_export(tmp_path):
    cfg = tmp_path / "scheme.json"
    cfg.write_text(json.dumps({"kind": "scheme", "instance": "disk_polygon",
                               "m_min": 3, "m_max": 4, "out_dir": str(tmp_path)}))
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "scheme_disk.csv").read_text().strip().splitlines()
    assert lines[0] == "m,h_k,sigma_k,tau_k,budget_k,bracket_lo,bracket_hi,verdict"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")[:-1]]
        assert cells[5] <= 1.0 <= cells[6]


def test_sampled_sigma_needs_a_declared_tolerance():
    from optstab.sets import ImplicitSampled
    disk = ImplicitSampled(member=lambda x: bool(np.linalg.norm(x) <= 1.0),
                           sampler=lambda n, rg: rg.uniform(-1, 1, size=(n, 2)),
                           dim=2, witness=[0.0, 0.0])
    f = target_distance_objective([2.0, 0.0])
    # the sampled inf over the disk is 1.01892, above the true value 1.0
    with pytest.raises(ValueError, match="sampled"):
        run_scheme(SchemeInstance(objective=f, levels=(disk,), h_bounds=(0.0,)))
    cert = run_scheme(SchemeInstance(objective=f, levels=(disk,), h_bounds=(0.0,),
                                     solver_tol=0.05))
    assert cert.contains(1.0)


# ---------------------------------------------------------------------------
# brackets hold the true optimum
# ---------------------------------------------------------------------------

def test_a_modulus_transfer_above_one_is_found():
    # f = 10 x needs eps > 10 for delta(eps) = eps / 10 to exceed h = 1;
    # before, the transfer stopped at 1 and the bracket was [9, 10]
    f = ObjectiveFn(fn=lambda x: 10.0 * float(np.ravel(x)[0]),
                    regularity=UniformModulus(lambda e: e / 10.0))
    S = SchemeInstance(objective=f, levels=(FiniteCloud([[1.0]]),), h_bounds=(1.0,),
                       inner=True)
    cert = run_scheme(S)
    assert cert.rows[0]["budget_k"] == 16.0
    assert cert.contains(0.0)


@pytest.mark.parametrize("inner, hi", [(False, math.inf), (True, 1.0 + 8 * np.finfo(float).eps)])
def test_a_modulus_that_never_exceeds_h_transfers_inf(inner, hi):
    # no eps has delta(eps) > h: the lower side is -inf, and an inner level
    # still bounds the infimum from above by sigma (before the upper side's
    # rounding slack was scaled by the infinite budget, it was +inf too)
    f = ObjectiveFn(fn=lambda x: float(np.ravel(x)[0]),
                    regularity=UniformModulus(lambda e: min(e, 0.5)))
    cert = run_scheme(SchemeInstance(objective=f, levels=(FiniteCloud([[1.0]]),),
                                     h_bounds=(1.0,), inner=inner))
    assert cert.rows[0]["budget_k"] == math.inf
    assert cert.final_bracket == (-math.inf, hi)


def test_a_piece_table_that_jumps_is_not_lipschitz():
    # the pieces jump from 0 to 1 at t = 1; before, they were declared
    # Lipschitz(0) and the bracket was [1 - 2e-15, 1 + 2e-15] around the true 0
    f = piecewise_linear_objective([LinearPiece(0.0, 1.0, 0.0, 0.0), LinearPiece(1.0, 2.0, 0.0, 1.0)])
    assert f.regularity == ContinuousOnly()
    assert inf_over(f, IntervalUnion([(1.0, 1.1)])).value == 0.0
    S = SchemeInstance(objective=f, levels=(FiniteCloud([[1.05]]),), h_bounds=(0.05,), inner=True)
    with pytest.raises(ValueError, match="regularity"):
        run_scheme(S)


@pytest.mark.parametrize("pieces, lam", [
    ([LinearPiece(0.0, 1.0, 2.0, 0.0), LinearPiece(1.0, 2.0, -1.0, 3.0)], 2.0),
    ([LinearPiece.from_anchors(0.0, 0.3, 0.0, 0.1), LinearPiece.from_anchors(0.3, 1.0, 0.1, -0.4)],
     abs(-0.5 / 0.7)),
    ([LinearPiece(-math.inf, 0.0, -1.0, 0.0), LinearPiece(0.0, math.inf, 0.5, 0.0)], 1.0),
])
def test_a_joined_piece_table_keeps_its_lipschitz_default(pieces, lam):
    assert piecewise_linear_objective(pieces[::-1]).regularity == Lipschitz(lam)


@pytest.mark.parametrize("pieces", [
    [LinearPiece(0.0, 1.0, 1.0, 0.0), LinearPiece(1.5, 2.0, 1.0, 0.0)],             # a gap
    [LinearPiece(0.0, 2.0, 0.0, 0.0), LinearPiece(1.0, 3.0, 0.0, 0.0)],             # overlap
    [LinearPiece(0.0, 1.0, 1.0, 0.0, val_hi=1.5), LinearPiece(1.0, 2.0, 0.0, 1.0)],  # an anchor
])
def test_gaps_overlaps_and_anchors_that_disagree_are_not_lipschitz(pieces):
    assert piecewise_linear_objective(pieces).regularity == ContinuousOnly()



def test_an_infinite_level_optimum_is_refused():
    # before, sigma = inf gave the bracket [nan, inf]
    f = ObjectiveFn(fn=lambda x: math.inf, regularity=Lipschitz(1.0))
    with pytest.raises(ValueError, match="not finite"):
        run_scheme(SchemeInstance(objective=f, levels=(FiniteCloud([[0.0]]),), h_bounds=(0.0,)))


def test_an_infinite_lipschitz_constant_at_h_zero_transfers_nothing():
    # 0 * inf = 0: before, the transfer was NaN and so was the bracket
    f = ObjectiveFn(fn=lambda x: 2.0, regularity=Lipschitz(math.inf))
    cert = run_scheme(SchemeInstance(objective=f, levels=(FiniteCloud([[0.0]]),), h_bounds=(0.0,)))
    assert cert.rows[0]["budget_k"] == 0.0 and cert.contains(2.0)


def _hausdorff_to_interval(a, b, pts) -> float:
    """D_H([a, b], pts) by hand: d(., pts) peaks over [a, b] at a, b or a
    midpoint of two neighbouring points."""
    p = np.sort(np.asarray(pts, float))
    xs = np.clip(np.r_[a, b, 0.5 * (p[1:] + p[:-1])], a, b)
    there = np.abs(xs[:, None] - p[None, :]).min(axis=1).max()
    back = np.maximum(np.maximum(a - p, p - b), 0.0).max()
    return float(max(there, back))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), cuts=st.lists(st.integers(-90, 90).map(lambda i: i / 10), max_size=5),
       ys=st.lists(st.floats(-3, 3), min_size=7, max_size=7), jump=st.sampled_from([0.0, 0.0, 0.5]),
       ab=st.tuples(st.floats(-5, 5), st.floats(-5, 5)), inner=st.booleans(),
       modulus=st.sampled_from(["lipschitz", "power", "cap"]),
       scale=st.floats(0.05, 1.0), power=st.floats(1.0, 3.0), cap=st.floats(0.01, 2.0))
def test_every_scheme_bracket_holds_the_brute_force_optimum(data, cuts, ys, jump, ab, inner,
                                                            modulus, scale, power, cap):
    xs = sorted({-10.0, 10.0, *cuts})
    pieces = [LinearPiece.from_anchors(lo, hi, ys[i] + (jump if i == 1 else 0.0), ys[i + 1])
              for i, (lo, hi) in enumerate(zip(xs, xs[1:]))]
    f = piecewise_linear_objective(pieces)
    a, b = sorted(ab)
    # the true inf over [a, b], at an end or a breakpoint inside
    true = min(piecewise_eval(f.pieces, t) for t in [a, b, *(x for x in xs if a < x < b)])
    lo, hi = (a, b) if inner else (a - 1.0, b + 1.0)
    clouds = [data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=6)) for _ in range(3)]
    hs = [_hausdorff_to_interval(a, b, c) * (1 + 1e-12) for c in clouds]
    order = np.argsort(hs)[::-1]
    levels = tuple(FiniteCloud([[v] for v in clouds[i]]) for i in order)
    h_bounds = tuple(hs[i] for i in order)
    if isinstance(f.regularity, ContinuousOnly):
        # only a table that jumps loses its Lipschitz default
        assert jump and len(xs) > 2 and ys[1] + jump != ys[1]
        with pytest.raises(ValueError, match="regularity"):
            run_scheme(SchemeInstance(objective=f, levels=levels, h_bounds=h_bounds))
        return
    lam = f.regularity.lam
    step = (lambda e: e / lam) if lam else (lambda e: math.inf)
    if modulus == "power":
        f = ObjectiveFn(fn=f.fn, pieces=f.pieces, regularity=UniformModulus(
            lambda e: scale * min(step(e), step(e) ** power)))
    elif modulus == "cap":
        f = ObjectiveFn(fn=f.fn, pieces=f.pieces, regularity=UniformModulus(
            lambda e: scale * min(step(e), cap)))
    cert = run_scheme(SchemeInstance(objective=f, levels=levels, h_bounds=h_bounds, inner=inner))
    for r in cert.rows:
        assert r["bracket_lo"] <= true <= r["bracket_hi"]
    assert cert.contains(true)
