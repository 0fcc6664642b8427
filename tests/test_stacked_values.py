"""The value-function verifiers on a stack of parameters, against the
per-pair loops they replaced.

``certify_value_lipschitz``, ``measured_lipschitz_ratio`` and
``empirical_value_continuity`` take phi at all their parameters through one
helper: a row-form family member (``AffineFamily.members``) and a row-form
exact hook (``norm_objective``'s) take the whole stack in one call each.
The reference loops below are the verifiers as they stood before, one
``eval_value_function`` call per parameter, run on a family whose member
and hooks are the per-parameter code of that time.  Both sides run on the
same LAPACK and BLAS, so ``==`` on the reports pins the arithmetic without
a build-dependent golden.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optstab.cli import main
from optstab.distances import absolute, eval_distance, euclidean
from optstab.extreal import INF, row_form, scale
from optstab.instances import (build, norm_objective, oscillating_blocks,
                               oscillating_objective, random_rank_deficient_matrix)
from optstab.linear import BOX_SCALE, affine_family, decompose
from optstab.optima import TOL_OPT, Lipschitz, ObjectiveFn, VerdictReport
from optstab.parametric import (ParamFamily, ValueFunction, _delta_search,
                                certify_value_lipschitz, empirical_value_continuity,
                                eval_value_function)
from optstab.sets import AffineSlab, FiniteCloud, ImplicitSampled, _norms
from sampled_references import measured_lipschitz_ratio

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# the per-parameter code the stacked path replaced
# ---------------------------------------------------------------------------

def _ref_member(fam, t) -> AffineSlab:
    particular = fam._particulars(np.asarray(t, dtype=float).ravel())
    half = BOX_SCALE * (1.0 + float(_norms(particular)))
    return fam.kernel_slab.translated(particular, box_halfwidth=half)


def _ref_norm_objective() -> ObjectiveFn:
    def exact_inf(A):
        if isinstance(A, AffineSlab):
            K = A.kernel_basis
            return float(np.linalg.norm(A.particular - K @ (K.T @ A.particular)))
        return None

    def exact_sup(A):
        if isinstance(A, AffineSlab):
            return INF if A.kernel_basis.shape[1] > 0 else float(np.linalg.norm(A.particular))
        return None

    return ObjectiveFn(fn=lambda x: float(np.linalg.norm(np.atleast_1d(x))),
                       regularity=Lipschitz(1.0), exact_inf=exact_inf,
                       exact_sup=exact_sup, bounded_below=True, name="norm")


def _ref_certify(V, sample_pairs, lam_of_pair=None, tol=TOL_OPT, rng=None) -> VerdictReport:
    F = V.family
    if lam_of_pair is None:
        lam_of_pair = lambda t, s: V.objective.regularity.lam
    rows = []
    for (t, s) in sample_pairs:
        di = eval_distance(F.index_distance, t, s)
        alpha = F.hausdorff_rate(t, s)
        lam = lam_of_pair(t, s)
        vt = eval_value_function(V, t, rng=rng).value
        vs = eval_value_function(V, s, rng=rng).value
        observed = abs(vt - vs)
        bound = scale(scale(alpha, lam), di) + tol
        slack = bound - observed
        rows.append(dict(t=t, s=s, d_I=di, bound=bound, observed=observed,
                         slack=slack, verdict="pass" if slack >= 0 else "fail"))
    return VerdictReport(["t", "s", "d_I", "bound", "observed", "slack", "verdict"], rows)


def _ref_ratio(V, sample_pairs, rng=None) -> float:
    worst = 0.0
    for (t, s) in sample_pairs:
        di = eval_distance(V.family.index_distance, t, s)
        if di <= 0:
            continue
        vt = eval_value_function(V, t, rng=rng).value
        vs = eval_value_function(V, s, rng=rng).value
        worst = max(worst, abs(vt - vs) / di)
    return worst


def _ref_continuity(V, t0, probes, eps_grid, rng=None) -> dict:
    v0 = eval_value_function(V, t0, rng=rng).value
    rows = []
    for t in probes:
        di = eval_distance(V.family.index_distance, t0, t)
        vt = eval_value_function(V, t, rng=rng).value
        rows.append((t, di, abs(vt - v0)))
    results = {eps: _delta_search(rows, eps) for eps in eps_grid}
    return dict(t0=t0, value=v0, deltas=results,
                verdict="pass" if all(v is not None for v in results.values())
                else "inconclusive")


def _ref_values(V, params) -> list:
    return [eval_value_function(V, t).value for t in params]


# ---------------------------------------------------------------------------
# affine families: the stacked path
# ---------------------------------------------------------------------------

def _affine_pair(L, mode, d):
    """(V on the stacked path, V on the per-parameter reference) for t -> {x : L x = t}."""
    fam = affine_family(decompose(L))
    pf = fam.as_param_family(d, alpha=fam.egi.constant)
    ref = ParamFamily(index_distance=d, member=lambda t: _ref_member(fam, t),
                      hausdorff_rate=pf.hausdorff_rate)
    return (ValueFunction(mode, pf, norm_objective(L.shape[1])),
            ValueFunction(mode, ref, _ref_norm_objective()))


@st.composite
def affine_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    L = random_rank_deficient_matrix(rng, max_dim=4)
    mode = draw(st.sampled_from(["inf", "sup"]))
    k = draw(st.integers(0, 6))
    T = rng.standard_normal((2 * k + 1, L.shape[1])) @ L.T * rng.choice([1e-3, 1.0, 1e3])
    if L.shape[0] == 1 and draw(st.booleans()):
        d, params = absolute(), [float(t[0]) for t in T]
    else:
        d, params = euclidean(L.shape[0]), [list(map(float, t)) for t in T]
    if draw(st.booleans()):
        params[1:k + 1] = params[k + 1:]   # pairs at distance 0
    return L, mode, d, params


@SETTINGS
@given(affine_cases())
def test_affine_reports_equal_the_per_pair_loops(case):
    L, mode, d, params = case
    V, ref = _affine_pair(L, mode, d)
    k = len(params) // 2
    pairs = list(zip(params[:k], params[k:2 * k]))
    probes = params[:2 * k]
    if np.isinf(_ref_values(ref, params)).any():
        # the sup over a slab with a kernel: phi = +inf is refused, never NaN
        for verify in (lambda: certify_value_lipschitz(V, pairs + [(params[-1], params[-1])]),
                       lambda: empirical_value_continuity(V, params[-1], probes, [0.5])):
            with pytest.raises(ValueError, match="at t="):
                verify()
        return
    assert certify_value_lipschitz(V, pairs) == _ref_certify(ref, pairs)
    # a row-form member with unmarked hooks: one hook call per member of the stack
    mixed = ValueFunction(mode, V.family, ref.objective)
    assert certify_value_lipschitz(mixed, pairs) == _ref_certify(ref, pairs)
    assert measured_lipschitz_ratio(V, pairs) == _ref_ratio(ref, pairs)
    got = empirical_value_continuity(V, params[-1], probes, [0.5, 1e-3])
    assert got == _ref_continuity(ref, params[-1], probes, [0.5, 1e-3])


def test_empty_pair_lists():
    V, ref = _affine_pair(np.array([[1.0, 0.0]]), "inf", absolute())
    rep = certify_value_lipschitz(V, [])
    assert rep == _ref_certify(ref, []) and rep.rows == [] and rep.passed
    assert measured_lipschitz_ratio(V, []) == _ref_ratio(ref, []) == 0.0
    assert empirical_value_continuity(V, 1.0, [], [0.5]) == _ref_continuity(ref, 1.0, [], [0.5])


def _counted(fn, calls, name):
    return row_form(lambda *a: (calls.append(name), fn(*a))[1])


def test_one_member_call_and_one_hook_call_per_verifier_call():
    fam = build("affine_whole").objects["family"]
    calls = []
    pf = ParamFamily(index_distance=absolute(), member=_counted(fam.members, calls, "member"),
                     hausdorff_rate=lambda t, s: 1.0)
    f = norm_objective(2)
    f = ObjectiveFn(fn=f.fn, regularity=f.regularity, bounded_below=True, name="norm",
                    exact_inf=_counted(f.exact_inf, calls, "hook"))
    V = ValueFunction("inf", pf, f)
    pairs = [(float(a), float(b)) for a, b in np.random.default_rng(3).uniform(-5, 5, (50, 2))]
    for verify in (lambda: certify_value_lipschitz(V, pairs),
                   lambda: measured_lipschitz_ratio(V, pairs),
                   lambda: empirical_value_continuity(V, 0.0, [t for t, _ in pairs], [0.5])):
        calls.clear()
        verify()
        assert calls == ["member", "hook"]


def test_an_infinite_phi_is_refused_and_named():
    entry = build("affine_whole")
    V = ValueFunction(mode="sup", family=entry.objects["family"].as_param_family(
        absolute(), alpha=1.0), objective=norm_objective(2))
    for verify in (lambda: certify_value_lipschitz(V, [(1.0, 2.0)]),
                   lambda: measured_lipschitz_ratio(V, [(1.0, 2.0)]),
                   lambda: empirical_value_continuity(V, 1.0, [2.0], [0.5])):
        with pytest.raises(ValueError, match=r"phi is inf at t=1\.0"):
            verify()


# ---------------------------------------------------------------------------
# unmarked families: one member per parameter, the rng drawn in the same order
# ---------------------------------------------------------------------------

def _constant_family():
    A = FiniteCloud([[0.0, 0.0], [1.0, 1.0]])
    pf = ParamFamily(index_distance=absolute(), member=lambda t: A,
                     hausdorff_rate=lambda t, s: 1.0)
    return ValueFunction("sup", pf, norm_objective(2)), [(-1.0, 0.5), (0.0, 2.0)], None


def _oscillating_family():
    K = 12

    def member(u):
        return oscillating_blocks(K) if u == 0.0 else oscillating_blocks(K, extended_j=round(1 / u))
    pf = ParamFamily(index_distance=absolute(), member=member, hausdorff_rate=lambda t, s: 1.0)
    us = [0.0] + [1.0 / j for j in range(2, K + 1)]
    return (ValueFunction("inf", pf, oscillating_objective(K)), list(zip(us, us[1:] + us[:1])),
            lambda t, s: 2.0)


def _sampled_family():
    """A disk of radius 1 around (t, 0), drawn from the verifier's rng."""
    def member(t):
        c = np.array([t, 0.0])
        return ImplicitSampled(member=lambda x: bool(np.linalg.norm(x - c) <= 1.0),
                               sampler=lambda n, rg: c + rg.uniform(-1, 1, (n, 2)),
                               dim=2, witness=c)
    f = ObjectiveFn(fn=lambda x: float(x[0] + 0.5 * x[1] ** 2), regularity=Lipschitz(2.0))
    pf = ParamFamily(index_distance=absolute(), member=member, hausdorff_rate=lambda t, s: 1.0)
    ts = np.random.default_rng(5).uniform(-2, 2, 12).tolist()
    return ValueFunction("sup", pf, f), list(zip(ts[:6], ts[6:])), None


@pytest.mark.parametrize("family", [_constant_family, _oscillating_family, _sampled_family])
def test_unmarked_families_keep_the_per_parameter_path(family):
    V, pairs, lam = family()
    probes = [s for _, s in pairs]
    runs = []
    for certify, ratio, continuity in (
            (certify_value_lipschitz, measured_lipschitz_ratio, empirical_value_continuity),
            (_ref_certify, _ref_ratio, _ref_continuity)):
        rng = np.random.default_rng(11)
        out = (certify(V, pairs, lam, rng=rng),
               ratio(V, pairs, rng=rng), continuity(V, pairs[0][0], probes, [0.5], rng=rng))
        runs.append((out, rng.bit_generator.state))
    assert runs[0] == runs[1]


def test_the_witness_reaches_an_unmarked_member_as_a_point():
    S = ImplicitSampled(member=lambda x: bool(abs(x[0]) <= 1.0),
                        sampler=lambda n, rg: rg.uniform(-2, 2, n), dim=1, witness=0.0)
    assert S.witness().shape == (1,)
    with pytest.raises(ValueError, match="witness of 2 coordinates"):
        ImplicitSampled(member=lambda x: True, sampler=lambda n, rg: rg.uniform(-1, 1, (n, 1)),
                        dim=1, witness=[0.0, 0.0])


# ---------------------------------------------------------------------------
# optstab run parametric: the same bytes as the reference loop
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 5, 301, 2024])
def test_cli_parametric_bytes_equal_the_reference_loop(tmp_path, seed):
    n_pairs = 40 + seed % 7
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"kind": "parametric", "seed": seed, "n_pairs": n_pairs,
                               "out_dir": str(tmp_path / "out")}))
    assert main(["run", str(cfg)]) == 0

    rng = np.random.default_rng(seed)
    entry = build("affine_whole")
    _, ref = _affine_pair(entry.objects["L"].matrix, "inf", absolute())
    pairs = [(float(a), float(b)) for a, b in rng.uniform(-5, 5, size=(n_pairs, 2))]
    rep = _ref_certify(ref, pairs, rng=rng)
    rep.to_csv(tmp_path / "ref.csv")
    summary = dict(kind="parametric", verdict="pass" if rep.passed else "fail", n_pairs=n_pairs)
    assert (tmp_path / "out" / "parametric.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "out" / "summary.json").read_text() == json.dumps(
        summary, indent=2, sort_keys=True)
