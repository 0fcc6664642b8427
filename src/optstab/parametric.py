"""Indexed constraint families and their optimal value functions.

A :class:`ParamFamily` maps a parameter t (living in a pseudo-distance
space) to a constraint set A_t; the associated :class:`ValueFunction` is
phi(t) = sup (or inf) of an objective over A_t.  The operations here
certify a Lipschitz constant for phi on sampled pairs and empirically probe
the set-convergence condition limsup_{t->t0} D_H(A_t0, A_t) <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distances import PseudoDistance, eval_distance
from .extreal import scale
from .optima import (TOL_OPT, Lipschitz, ObjectiveFn, OptValue, VerdictReport,
                     inf_over, sup_over)
from .sets import DEFAULT_BUDGET, SetModel, ball_around_set, hausdorff

MAX_HALVINGS = 20  # delta searches stop at eps / 2**MAX_HALVINGS


@dataclass(frozen=True)
class ParamFamily:
    index_distance: PseudoDistance
    member: Callable[[object], SetModel] = field(repr=False)
    admissible_class: str = "all-nonempty"  # | "all-nonempty-bounded" | "ball-closure"
    ball_radius: Optional[Callable[[object], float]] = field(default=None, repr=False)
    hausdorff_rate: Optional[Callable[[object, object], float]] = field(default=None, repr=False)

    def set_at(self, t) -> SetModel:
        A = self.member(t)
        w = A.witness()
        if w is None:
            raise ValueError(f"family member at t={t} is empty")
        return A

    def check_ball_closure(self, d_ambient: PseudoDistance, probes: Sequence,
                           probe_budget: int = 200,
                           rng: Optional[np.random.Generator] = None) -> bool:
        """On probe parameters, the closed ball B[A_t, r(t)] is nonempty."""
        if self.admissible_class != "ball-closure" or self.ball_radius is None:
            raise ValueError("family does not declare the ball-closure class")
        rng = rng if rng is not None else np.random.default_rng(0)
        for t in probes:
            A = self.set_at(t)
            r = self.ball_radius(t)
            ball = ball_around_set(d_ambient, A, r, A.sample(probe_budget, rng))
            if not ball:
                return False
        return True


@dataclass(frozen=True)
class ValueFunction:
    mode: str  # "sup" | "inf"
    family: ParamFamily
    objective: ObjectiveFn

    def __post_init__(self):
        if self.mode not in ("sup", "inf"):
            raise ValueError("mode must be 'sup' or 'inf'")


def _delta_search(rows: Sequence, eps: float) -> Optional[float]:
    """The largest delta in {eps, eps/2, ..., eps/2**MAX_HALVINGS} such that
    some (t, d_I, gap) row has d_I < delta and every such row has gap < eps;
    None if no level qualifies."""
    for level in range(MAX_HALVINGS + 1):
        delta = eps / 2.0 ** level
        inside = [gap for (_, di, gap) in rows if di < delta]
        if inside and all(gap < eps for gap in inside):
            return delta
    return None


def eval_value_function(V: ValueFunction, t, budget: int = DEFAULT_BUDGET,
                        rng: Optional[np.random.Generator] = None) -> OptValue:
    A = V.family.set_at(t)
    op = sup_over if V.mode == "sup" else inf_over
    return op(V.objective, A, budget=budget, rng=rng)


def empirical_hausdorff_limsup(F: ParamFamily, d_ambient: PseudoDistance,
                               t0, probes: Sequence, eps: float,
                               budget: int = DEFAULT_BUDGET,
                               rng: Optional[np.random.Generator] = None) -> dict:
    """Empirical probe of limsup_{t->t0} D_H(A_t0, A_t) <= 0.

    Searches delta on the geometric grid {eps, eps/2, ..., eps/2^20} for the
    largest level at which every probe with d_I(t0, t) < delta also has
    D_H(A_t0, A_t) < eps.  Failure at all levels is 'inconclusive', never a
    disproof: continuity cannot be refuted by finitely many probes.
    """
    A0 = F.set_at(t0)
    rows = []
    for t in probes:
        di = eval_distance(F.index_distance, t0, t)
        dh = hausdorff(d_ambient, A0, F.set_at(t), budget=budget, rng=rng).value
        rows.append((t, di, dh))
    delta = _delta_search(rows, eps)
    if delta is None:
        return dict(eps=eps, delta=None, verdict="inconclusive",
                    n_inside=0, rows=rows)
    return dict(eps=eps, delta=delta, verdict="pass",
                n_inside=sum(di < delta for (_, di, _) in rows), rows=rows)


def certify_value_lipschitz(V: ValueFunction, sample_pairs: Sequence,
                            lam_of_pair: Optional[Callable[[object, object], float]] = None,
                            tol: float = TOL_OPT,
                            budget: int = DEFAULT_BUDGET,
                            rng: Optional[np.random.Generator] = None) -> VerdictReport:
    """|phi(t) - phi(s)| <= alpha_{t,s} * Lambda_{t,s} * d_I(t,s) + tol per pair.

    alpha comes from the family's declared hausdorff_rate; Lambda from the
    objective's global Lipschitz constant unless a per-pair map is given.
    """
    F = V.family
    if F.hausdorff_rate is None:
        raise ValueError("family carries no hausdorff_rate; cannot certify")
    reg = V.objective.regularity
    if lam_of_pair is None:
        if not isinstance(reg, Lipschitz):
            raise ValueError("objective carries no Lipschitz regularity")
        lam_of_pair = lambda t, s: reg.lam

    columns = ["t", "s", "d_I", "bound", "observed", "slack", "verdict"]
    rows = []
    for (t, s) in sample_pairs:
        di = eval_distance(F.index_distance, t, s)
        alpha = F.hausdorff_rate(t, s)
        lam = lam_of_pair(t, s)
        vt = eval_value_function(V, t, budget=budget, rng=rng).value
        vs = eval_value_function(V, s, budget=budget, rng=rng).value
        observed = abs(vt - vs)
        bound = scale(scale(alpha, lam), di) + tol
        slack = bound - observed
        rows.append(dict(t=t, s=s, d_I=di, bound=bound, observed=observed,
                         slack=slack, verdict="pass" if slack >= 0 else "fail"))
    return VerdictReport(columns, rows)


def measured_lipschitz_ratio(V: ValueFunction, sample_pairs: Sequence,
                             budget: int = DEFAULT_BUDGET,
                             rng: Optional[np.random.Generator] = None) -> float:
    """sup over sampled pairs of |phi(t) - phi(s)| / d_I(t, s)."""
    worst = 0.0
    for (t, s) in sample_pairs:
        di = eval_distance(V.family.index_distance, t, s)
        if di <= 0:
            continue
        vt = eval_value_function(V, t, budget=budget, rng=rng).value
        vs = eval_value_function(V, s, budget=budget, rng=rng).value
        worst = max(worst, abs(vt - vs) / di)
    return worst


def empirical_value_continuity(V: ValueFunction, t0, probes: Sequence,
                               eps_grid: Sequence[float],
                               budget: int = DEFAULT_BUDGET,
                               rng: Optional[np.random.Generator] = None) -> dict:
    """For each eps on the grid, search for delta > 0 such that every probe
    with d_I(t0, t) < delta has |phi(t) - phi(t0)| < eps."""
    v0 = eval_value_function(V, t0, budget=budget, rng=rng).value
    rows = []
    for t in probes:
        di = eval_distance(V.family.index_distance, t0, t)
        vt = eval_value_function(V, t, budget=budget, rng=rng).value
        rows.append((t, di, abs(vt - v0)))
    results = {eps: _delta_search(rows, eps) for eps in eps_grid}
    return dict(t0=t0, value=v0, deltas=results,
                verdict="pass" if all(v is not None for v in results.values())
                else "inconclusive")
