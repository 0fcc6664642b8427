"""Indexed constraint families and their optimal value functions.

A :class:`ParamFamily` maps a parameter t (living in a pseudo-distance
space) to a constraint set A_t; the associated :class:`ValueFunction` is
phi(t) = sup (or inf) of an objective over A_t.  The operations here
certify a Lipschitz constant for phi on sampled pairs and search, per eps,
for a delta of continuity of phi at a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .distances import PseudoDistance, eval_distances
from .extreal import call_one, call_rows, scale_rows
from .optima import (TOL_OPT, Lipschitz, ObjectiveFn, OptValue, VerdictReport,
                     _extremes, inf_over, sup_over)
from .sets import DEFAULT_BUDGET, SetModel

MAX_HALVINGS = 20  # delta searches stop at eps / 2**MAX_HALVINGS


@dataclass(frozen=True)
class ParamFamily:
    index_distance: PseudoDistance
    member: Callable[[object], SetModel] = field(repr=False)
    hausdorff_rate: Optional[Callable[[object, object], float]] = field(default=None, repr=False)

    def set_at(self, t) -> SetModel:
        return _nonempty(t, call_one(self.member, t, dtype=object))


@dataclass(frozen=True)
class ValueFunction:
    mode: str  # "sup" | "inf"
    family: ParamFamily
    objective: ObjectiveFn

    def __post_init__(self):
        if self.mode not in ("sup", "inf"):
            raise ValueError("mode must be 'sup' or 'inf'")


def _nonempty(t, A: Optional[SetModel]) -> SetModel:
    if A is None or A.witness() is None:
        raise ValueError(f"family member at t={t} is empty")
    return A


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


def _values(V: ValueFunction, params: Sequence, budget: int,
            rng: Optional[np.random.Generator]) -> np.ndarray:
    """phi at each parameter, in order, as ``eval_value_function`` gives it
    one parameter at a time.  The family's member is called through
    ``call_rows`` on all the parameters, then the exact hook on all the
    members: a row-form member and hook take the whole stack in one call
    each (the parallel slabs of ``AffineFamily.as_param_family`` under
    ``norm_objective``), others are called once per parameter (member) in
    order.  A hook's value stands for its member, a cloud included; the
    members it leaves without one are checked nonempty, in order, and read
    by ``optima._extremes``: clouds in one stacked objective call, other
    sets by points or samples in order, so ``rng`` is drawn in the sequence
    of a per-parameter loop.  An infinite phi raises ValueError: the
    principle needs f bounded on every A_t."""
    sets = call_rows(V.family.member, len(params), params, dtype=object)
    if isinstance(sets, list):   # per-parameter members: a None is refused before any hook
        for t, A in zip(params, sets):
            if A is None:
                _nonempty(t, A)
    vals, _ = _extremes(V.objective, sets, V.mode == "sup", budget, rng,
                        check=lambda i, A: _nonempty(params[i], A))
    unbounded = np.flatnonzero(np.isinf(vals))
    if len(unbounded):
        i = unbounded[0]
        raise ValueError(f"phi is {vals[i]} at t={params[i]!r}: the objective is "
                         f"unbounded on A_t, and the principle needs it bounded")
    return vals


def eval_value_function(V: ValueFunction, t, budget: int = DEFAULT_BUDGET,
                        rng: Optional[np.random.Generator] = None) -> OptValue:
    A = V.family.set_at(t)
    op = sup_over if V.mode == "sup" else inf_over
    return op(V.objective, A, budget=budget, rng=rng)


def certify_value_lipschitz(V: ValueFunction, sample_pairs: Sequence,
                            lam_of_pair: Optional[Callable[[object, object], float]] = None,
                            tol: float = TOL_OPT,
                            budget: int = DEFAULT_BUDGET,
                            rng: Optional[np.random.Generator] = None) -> VerdictReport:
    """|phi(t) - phi(s)| <= alpha_{t,s} * Lambda_{t,s} * d_I(t,s) + tol per pair.

    alpha comes from the family's declared hausdorff_rate; Lambda from the
    objective's global Lipschitz constant unless a per-pair map is given.
    phi is taken at t then s of each pair, in order, through ``_values``:
    one member call and one hook call for all the pairs on a row-form
    family and hook (``AffineFamily.as_param_family`` with
    ``norm_objective``), one per parameter otherwise.  An infinite phi
    raises ValueError naming the parameter.
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
    pairs = list(sample_pairs)
    di = eval_distances(F.index_distance, [t for t, _ in pairs], [s for _, s in pairs])
    alpha = np.array([F.hausdorff_rate(t, s) for t, s in pairs])
    lam = np.array([lam_of_pair(t, s) for t, s in pairs])
    phi = _values(V, [p for pair in pairs for p in pair], budget, rng).reshape(-1, 2)
    observed = np.abs(phi[:, 0] - phi[:, 1])
    bound = scale_rows(scale_rows(alpha, lam), di) + tol
    slack = bound - observed
    rows = [dict(t=t, s=s, d_I=d, bound=b, observed=o, slack=sl,
                 verdict="pass" if sl >= 0 else "fail")
            for (t, s), d, b, o, sl in zip(pairs, di.tolist(), bound.tolist(),
                                           observed.tolist(), slack.tolist())]
    return VerdictReport(columns, rows)


def empirical_value_continuity(V: ValueFunction, t0, probes: Sequence,
                               eps_grid: Sequence[float],
                               budget: int = DEFAULT_BUDGET,
                               rng: Optional[np.random.Generator] = None) -> dict:
    """For each eps on the grid, search for delta > 0 such that every probe
    with d_I(t0, t) < delta has |phi(t) - phi(t0)| < eps.  phi is taken at
    t0, then the probes, through ``_values`` as in
    ``certify_value_lipschitz``."""
    probes = list(probes)
    di = eval_distances(V.family.index_distance, [t0] * len(probes), probes).tolist()
    phi = _values(V, [t0, *probes], budget, rng)
    rows = list(zip(probes, di, np.abs(phi[1:] - phi[0]).tolist()))
    results = {eps: _delta_search(rows, eps) for eps in eps_grid}
    return dict(t0=t0, value=float(phi[0]), deltas=results,
                verdict="pass" if all(v is not None for v in results.values())
                else "inconclusive")
