import json
import math

import numpy as np
import pytest

from optstab.cli import main
from optstab.distances import euclidean
from optstab.instances import disk_polygon_scheme, target_distance_objective
from optstab.optima import ContinuousOnly, Lipschitz, ObjectiveFn, inf_over
from optstab.scheme import (SchemeInstance, build_inner_grid_family,
                            build_inner_polygon_family, run_scheme)
from optstab.sets import FiniteCloud, hausdorff


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
